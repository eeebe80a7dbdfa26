"""Hypothesis gate and dichotomy classification for the rigidity statement.

The gate sweeps a sample grid, measures per-point geometry (singular values,
trace of the deficit tensor, second-fundamental-form norms, sectional
curvature ranges), evaluates every hypothesis with explicit worst-case
margins, and classifies the map against the constant / totally-geodesic
dichotomy.  All maxima are taken over the sample grid of the chart box, so
every verdict is box-local; no global claim is made.
"""

import functools
import math
import operator
import os
from collections.abc import Mapping
from itertools import islice
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .chart_manifold import block_innermost, matvec, sectional_from_data
from .errors import DegeneratePlaneError, InvalidParameterError
from .extrinsic import MINIMAL_TOL, GraphBlock, graph_blocks
from .graph_map import SmoothMap
from .records import Frozen

Array = np.ndarray

#: Margin required for numerically strict inequalities.
STRICT_MARGIN = 1e-9

DEFAULT_TOLERANCES: dict[str, float] = {
    "minimality": MINIMAL_TOL,
    "gate_slack": 1e-9,            # slack allowed on non-strict gate inequalities
    "classify_constant": 1e-8,     # max singular value for the constant verdict
    "classify_isometric": 1e-8,    # |lambda - 1| and |A| for the geodesic verdict
    "sec_witness": 1e-6,           # curvature witnesses for conclusion checks
    "induced_metric_factor": 1e-8, # |g - 2 g_M| residual in the geodesic verdict
}


class GridSweep(Frozen):
    """Measured graph geometry over a sample grid, one column per quantity.

    Row ``i`` of every column belongs to grid point ``i``: ``coords`` is
    ``(N, m)``, ``lambdas`` ``(N, m)`` (ascending), the others ``(N,)``.
    ``sec_n_min`` / ``sec_n_max`` are NaN where no target plane was sampled
    (the image of the differential is less than two-dimensional there);
    ``has_sec_n`` marks the rows that hold target samples.
    ``metric_factor_res`` is each point's largest ``|g - 2 g_M|`` component.
    """

    __slots__ = _fields = (
        "coords", "lambdas", "rank", "trace_s", "a_norm_sq", "h_norm",
        "sec_m_min", "sec_m_max", "sec_n_min", "sec_n_max", "has_sec_n",
        "metric_factor_res")

    def __len__(self) -> int:
        return len(self.trace_s)

    @property
    def lambda0_sq(self) -> float:
        return float(np.max(self.lambdas[:, -1] ** 2))

    @property
    def max_lambda(self) -> float:
        return float(np.max(self.lambdas[:, -1]))

    @property
    def max_h_norm(self) -> float:
        return float(np.max(self.h_norm))

    @property
    def max_a_norm_sq(self) -> float:
        return float(np.max(self.a_norm_sq))

    @property
    def min_trace_s(self) -> float:
        return float(np.min(self.trace_s))


def _plane_range(sec: Array, spans: Array) -> tuple[Array, Array, Array]:
    """Per row of ``sec``, the min and max over the planes that ``spans``
    marks, NaN for rows with none, and whether each row has one."""
    has = spans.any(axis=1)
    lo = np.min(np.where(spans, sec, np.inf), axis=1)
    hi = np.max(np.where(spans, sec, -np.inf), axis=1)
    return np.where(has, lo, np.nan), np.where(has, hi, np.nan), has


def _sectional_columns(blk: GraphBlock, planes_uv: Array) -> dict[str, Array]:
    """Sectional curvature ranges of a block over its sampled planes.

    ``planes_uv[b, k]`` holds the pair (u, v) of domain vectors of plane
    ``k`` at point ``b``.  Target planes are the images ``(df u, df v)``,
    sampled only where the domain plane is non-degenerate and the
    differential has rank two or more.
    """
    jets = blk.jets
    u, v = planes_uv[:, :, 0], planes_uv[:, :, 1]
    sec_m, spans_m = sectional_from_data(blk.riem_m[:, None],
                                         jets.gm.g[:, None], u, v)
    sec_m_min, sec_m_max, has_sec_m = _plane_range(sec_m, spans_m)
    if not has_sec_m.all():
        raise DegeneratePlaneError(
            f"no sampled domain plane at {jets.coords[np.argmin(has_sec_m)]}")

    n = jets.gn.g.shape[-1]
    wanted = spans_m & (blk.frames.rank >= 2)[:, None]
    if n >= 2 and wanted.any():
        d1 = jets.f.d1[:, None]
        du, dv = matvec(d1, u), matvec(d1, v)
        sec_n, spans_n = sectional_from_data(blk.riem_n[:, None],
                                             jets.gn.g[:, None], du, dv)
        spans_n &= wanted
    else:
        sec_n, spans_n = np.zeros(u.shape[:2]), np.zeros(u.shape[:2], dtype=bool)
    sec_n_min, sec_n_max, has_sec_n = _plane_range(sec_n, spans_n)
    return {"sec_m_min": sec_m_min, "sec_m_max": sec_m_max,
            "sec_n_min": sec_n_min, "sec_n_max": sec_n_max,
            "has_sec_n": has_sec_n}


# Constants of numpy's ``SeedSequence`` (hash and mix steps of its entropy
# pool and state output) and of PCG64's 128-bit linear congruential step.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: Grid points a plane stream can index: the spawn keys are 32-bit words.
MAX_GRID_POINTS = 1 << 32


def _fold(x: Array) -> Array:
    return x ^ (x >> np.uint32(16))


def _hash_steps(init: int, mult: int):
    """``SeedSequence``'s hash steps on uint32 arrays, in order: step ``k``
    xors with ``init * mult**k`` and multiplies by ``init * mult**(k + 1)``
    (mod 2**32), whatever the data."""
    const = init
    while True:
        nxt = (const * mult) & _MASK32
        yield lambda value, a=np.uint32(const), b=np.uint32(nxt): _fold((value ^ a) * b)
        const = nxt


def _spawned_pcg_seeds(seed: int):
    """``seeds(keys)``: the four 64-bit words, an array each, with which
    ``PCG64`` seeds itself from the children of ``SeedSequence(seed)`` whose
    spawn keys are the uint32 array ``keys``.  A child hashes the entropy
    words of ``seed``, zero-padded to the pool size, then its spawn key.  The
    hash constants advance independently of the data, so the seed's words
    are hashed once, here, and ``seeds`` takes the keys' steps for all keys
    at once."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = np.array(words, dtype=np.uint32)[:, None]

    def mix(x: Array, y: Array) -> Array:
        return _fold(np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y)

    hashmix = _hash_steps(_INIT_A, _MULT_A)
    pool = [next(hashmix)(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], next(hashmix)(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], next(hashmix)(word))
    key_steps = list(islice(hashmix, _POOL_SIZE))
    # generate_state(4, np.uint64): eight uint32 words cycling over the pool,
    # paired little-endian into 64-bit words
    output = list(islice(_hash_steps(_INIT_B, _MULT_B), 2 * _POOL_SIZE))

    def seeds(keys: Array) -> list[Array]:
        keyed = [mix(word, step(keys)) for word, step in zip(pool, key_steps)]
        state = [step(keyed[k % _POOL_SIZE]).astype(np.uint64)
                 for k, step in enumerate(output)]
        return [state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(4)]

    return seeds


_MASK64, _MASK52 = (1 << 64) - 1, (1 << 52) - 1
# numpy's ziggurat for the standard normal: its layer-0 tail starts at r
_ZIGGURAT_R, _ZIGGURAT_INV_R = 3.654152885361009, 0.2736612373297583


@functools.cache
def _ziggurat() -> tuple[Array, Array, Array]:
    """numpy's ziggurat tables ``wi`` and ``ki``, indexed by a raw output's
    layer and sign bits (the sign negates ``wi``), and ``fi``.  Their 256
    entries each are copied into ``ziggurat.bin`` byte for byte from the
    ``.rodata`` symbols ``wi_double``, ``ki_double`` and ``fi_double`` of
    ``src_distributions_distributions.c.o`` in numpy 2.4.6's
    ``numpy/random/lib/libnpyrandom.a``; no formula rebuilds them exactly."""
    path = os.path.join(os.path.dirname(__file__), "ziggurat.bin")
    wi, ki, fi = np.fromfile(path, dtype="<u8").reshape(3, 256)
    wi = wi.view("<f8")
    return np.concatenate([wi, -wi]), np.concatenate([ki, ki]), fi.view("<f8")


@functools.cache
def _jumps(count: int) -> tuple[Array, Array, Array, Array]:
    """64-bit limbs ``(a_hi, a_lo, c_hi, c_lo)`` of ``a_k, c_k``, ``k < count``:
    raw output ``k`` of a PCG64 seeded by ``srandom`` comes from the state
    ``a_k u + c_k inc`` (mod 2**128), ``u = inc + s`` for the seed ``s``."""
    a, c, limbs = _PCG_MULT, 1, []
    for _ in range(count):
        a, c = (a * _PCG_MULT) & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        limbs.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
    return tuple(np.array(limbs, dtype=np.uint64).reshape(count, 4).T)


def _mulhi(x: Array, a: Array) -> Array:
    """High 64 bits of the 128-bit products ``x * a`` of uint64 arrays."""
    x1, x0, a1, a0 = x >> 32, x & _MASK32, a >> 32, a & _MASK32
    u = x1 * a0 + (x0 * a0 >> 32)
    v = x0 * a1 + (u & _MASK32)
    return x1 * a1 + (u >> 32) + (v >> 32)


def _pcg_raws(u: list[Array], inc: list[Array], count: int) -> Array:
    """``(R, count)``: the first ``count`` raw outputs (XSL-RR) of the PCG64
    of each row, from the limbs ``[hi, lo]`` of its ``u`` and ``inc``."""
    a_hi, a_lo, c_hi, c_lo = _jumps(count)
    (u_hi, u_lo), (i_hi, i_lo) = ([w[:, None] for w in pair] for pair in (u, inc))
    lo_a = u_lo * a_lo
    lo = lo_a + i_lo * c_lo
    hi = (_mulhi(u_lo, a_lo) + u_hi * a_lo + u_lo * a_hi + _mulhi(i_lo, c_lo)
          + i_hi * c_lo + i_lo * c_hi + (lo < lo_a))
    xsl, rot = hi ^ lo, hi >> 58
    return (xsl >> rot) | (xsl << ((64 - rot) & 63))


def _standard_normals(u: list[Array], inc: list[Array], count: int,
                      spare: int = 4) -> Array:
    """``(R, count)``: the first ``count`` normals that numpy's ziggurat
    (``random_standard_normal``) draws from each row's PCG64 (see
    :func:`_pcg_raws`).  Each raw output is a candidate, accepted outright
    99.3% of the time.  A rejected one takes the next raws as uniforms: one
    for a wedge (layers above 0), pairs until one is accepted for the tail.
    Rows that need more than ``count + spare`` raws are drawn again.
    ``exp`` and ``log1p`` are libm's, through ``math``, as in numpy's C
    code; numpy's own may differ in the last bit."""
    wi, ki, fi = _ziggurat()
    raw = _pcg_raws(u, inc, count + spare)
    low = (raw & 0x1FF).astype(np.intp)
    rabs = (raw >> 9) & _MASK52
    x = rabs.astype(np.float64) * wi[low]
    use = rabs < ki[low]
    wedges, short = [], set()
    row = free = -1                     # the first raw not yet taken in ``row``
    for r, c in zip(*(a.tolist() for a in np.nonzero(~use))):
        if r == row and c < free:       # a uniform of a rejection before it
            continue
        row, free, layer = r, c + 2, low[r, c] & 0xFF
        if not layer:                   # the tail: past the raws unless accepted
            pairs = ((raw[r, c + 1:] >> 11).astype(np.float64) * 2.0 ** -53).tolist()
            free = raw.shape[1] + 1
            for k, (u1, u2) in enumerate(zip(pairs[::2], pairs[1::2])):
                xx = -_ZIGGURAT_INV_R * math.log1p(-u1)
                yy = -math.log1p(-u2)
                if yy + yy > xx * xx:
                    use[r, c], free = True, c + 3 + 2 * k
                    x[r, c] = -(_ZIGGURAT_R + xx) if int(rabs[r, c]) >> 8 & 1 else _ZIGGURAT_R + xx
                    break
        if free > raw.shape[1]:
            short.add(r)
            continue
        use[r, c + 1:free] = False
        if layer:
            wedges.append((r, c))
    rows, cols = np.array(wedges, dtype=np.intp).reshape(-1, 2).T
    layer = low[rows, cols] & 0xFF
    uniform = (raw[rows, cols + 1] >> 11).astype(np.float64) * 2.0 ** -53
    bound = np.array([math.exp(-0.5 * v * v) for v in x[rows, cols].tolist()])
    use[rows, cols] = (fi[layer - 1] - fi[layer]) * uniform + fi[layer] < bound
    short = sorted({*short, *np.flatnonzero(use.sum(axis=1) < count).tolist()})
    use[short] = True
    out = x[use & (np.cumsum(use, axis=1) <= count)].reshape(len(x), count)
    if short:
        out[short] = _standard_normals([w[short] for w in u], [w[short] for w in inc],
                                       count, spare + count)
    return out


def spawned_normals(seed: int, count: int, shape: tuple[int, ...]):
    """``draw(rows)`` for a slice ``start:stop`` of ``range(count)``: those
    rows, block-innermost, of the stream whose row ``i`` is, bit for bit,
    ``default_rng(SeedSequence(seed).spawn(count)[i]).standard_normal(shape)``.

    No ``numpy.random`` is loaded: each row's PCG64 is seeded as by
    ``srandom`` (``inc = 2 seq + 1``, ``state = (inc + s) * mult + inc``),
    and :func:`_standard_normals` draws all rows at once.  Their
    ``.normal(size=shape)`` is ``0.0 + 1.0 * z`` of these draws: equal to
    them except that an exact zero draw ``-0.0`` comes out ``0.0`` there.
    """
    seeds = _spawned_pcg_seeds(seed)
    if count >= MAX_GRID_POINTS:
        raise InvalidParameterError("too many grid points for one plane stream")
    size = math.prod(shape)

    def draw(rows: slice) -> Array:
        s_hi, s_lo, q_hi, q_lo = seeds(np.arange(rows.start, rows.stop, dtype=np.uint32))
        inc = [(q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1]
        u_lo = inc[1] + s_lo
        u = [inc[0] + s_hi + (u_lo < s_lo), u_lo]
        return block_innermost(_standard_normals(u, inc, size).reshape(-1, *shape))

    return draw


def sweep_geometry(f: SmoothMap, grid: Array, seed: int = 0,
                   planes: int = 4) -> GridSweep:
    """Measure the per-point geometry table over the rows of ``grid``
    (shape ``(N, m)``, ``N >= 1``).

    The grid is evaluated in blocks (see :func:`graph_blocks`) whose rows go
    into columns allocated once: the sweep holds one block and its planes
    besides them.  Point ``i`` draws its planes from child ``i`` of
    ``SeedSequence(seed).spawn(N)``, without ``numpy.random`` (see
    :func:`spawned_normals`), so the result does not depend on how the grid
    is split into blocks.
    """
    m = f.domain.dim
    if m < 2:
        raise InvalidParameterError("sectional curvature needs dim M >= 2")
    coords = np.asarray(grid, dtype=float).reshape(len(grid), m)
    planes_of = spawned_normals(seed, len(coords), (planes, 2, m))
    columns = None
    for rows, blk in graph_blocks(f, coords):
        part = {
            "coords": blk.jets.coords, "lambdas": blk.frames.lambdas,
            "rank": blk.frames.rank, "trace_s": blk.trace_s,
            "a_norm_sq": blk.ext.a_norm_sq, "h_norm": blk.ext.h_norm,
            "metric_factor_res": np.max(np.abs(blk.g - 2.0 * blk.gm), axis=(1, 2)),
            **_sectional_columns(blk, planes_of(rows))}
        if columns is None:
            columns = {name: np.empty((len(coords), *a.shape[1:]), a.dtype)
                       for name, a in part.items()}
        for name, a in part.items():
            columns[name][rows] = a
        # free the block before the generator builds the next: holding both
        # raised the peak RSS of the holo-w2 60x60 report by 2-3 MB
        del blk, part
    if columns is None:
        raise ValueError("an empty grid has no geometry to sweep")
    return GridSweep(**columns)


# ---------------------------------------------------------------------------
# Individual hypothesis checks
# ---------------------------------------------------------------------------

class PinchingMargins(NamedTuple):
    domain_margin: float          # min (sec_M - sigma)
    target_margin: float | None   # min (sigma - sec_N), None when vacuous
    ok: bool


def curvature_pinching_check(sweep: GridSweep, sigma: float,
                             slack: float = STRICT_MARGIN) -> PinchingMargins:
    """Worst margins of the curvature separation over the sweep.

    Target planes are sampled inside the image of the differential; points
    where the image is less than two-dimensional contribute vacuously.
    """
    dom = float(np.min(sweep.sec_m_min - sigma))
    tgt = (float(np.min(sigma - sweep.sec_n_max[sweep.has_sec_n]))
           if sweep.has_sec_n.any() else None)
    ok = dom >= -slack and (tgt is None or tgt >= -slack)
    return PinchingMargins(dom, tgt, ok)


def _kappa(sweep: GridSweep, margin: float) -> tuple[float, float]:
    """``kappa^2 = max(1 + margin, (1 + margin) * lambda0^2)`` and its worst
    pointwise slack over the squared top singular values."""
    kappa_sq = float(np.maximum(1.0 + margin, (1.0 + margin) * sweep.lambda0_sq))
    return kappa_sq, float(np.min(kappa_sq - sweep.lambdas[:, -1] ** 2))


def second_fundamental_bound_check(sweep: GridSweep, sigma: float,
                                   kappa_sq: float) -> float:
    """Worst margin of the second-fundamental-form bound.

    The bound compares ``|A|^2`` against ``kappa^2 sigma / (kappa^4 - 1)``
    times the trace of the deficit tensor, pointwise.
    """
    if kappa_sq <= 1.0:
        raise ValueError("the bound needs kappa^2 > 1")
    coeff = kappa_sq * sigma / (kappa_sq ** 2 - 1.0)
    return float(np.min(coeff * sweep.trace_s - sweep.a_norm_sq))


class TraceChainReport(NamedTuple):
    """Pointwise trace chain for the half-dimension reduction."""

    min_trace_margin: float       # min over points of tr(s) - (m - n - r)
    dims_margin: int              # m - 2n
    rank_margin: int              # min over points of n - r  (>= 0 always)
    strict_positive: bool         # tr(s) > 0 held strictly where required
    ok: bool


def trace_rank_chain_check(f: SmoothMap, sweep: GridSweep) -> TraceChainReport:
    """Check the chain ``tr(s) > m - n - r`` at every sweep point.

    When the target has at most half the domain dimension the chain
    continues ``>= m - 2n >= 0``, so the trace is additionally required to
    be strictly positive in that case.
    """
    m, n = f.domain.dim, f.target.dim
    trace_margin = float(np.min(sweep.trace_s - (m - n - sweep.rank)))
    rank_margin = int(np.min(n - sweep.rank))
    dims_margin = m - 2 * n
    strict = sweep.min_trace_s > STRICT_MARGIN if dims_margin >= 0 else True
    ok = trace_margin > STRICT_MARGIN and rank_margin >= 0 and strict
    return TraceChainReport(trace_margin, dims_margin, rank_margin, strict, ok)


# ---------------------------------------------------------------------------
# Hypothesis report and classification
# ---------------------------------------------------------------------------

class HypothesisReport(NamedTuple):
    sigma: float
    kappa_sq: float
    lambda0_sq: float
    minimal_ok: bool
    pinching_ok: bool
    trace_ok: bool
    kappa_ok: bool
    condition4_ok: bool
    margins: Mapping[str, float | None] = MappingProxyType({})   # read-only
    scope: str = "box-local"

    @property
    def all_ok(self) -> bool:
        return (self.minimal_ok and self.pinching_ok and self.trace_ok
                and self.kappa_ok and self.condition4_ok)

    def failing(self) -> list[str]:
        return [name for name, ok in [
            ("minimal", self.minimal_ok), ("pinching", self.pinching_ok),
            ("trace", self.trace_ok), ("kappa", self.kappa_ok),
            ("condition4", self.condition4_ok)] if not ok]


def evaluate_hypotheses(sweep: GridSweep, sigma: float,
                        kappa_margin: float = 0.01,
                        tolerances: dict[str, float] | None = None) -> HypothesisReport:
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    slack = tol["gate_slack"]

    pinch = curvature_pinching_check(sweep, sigma, slack)
    trace_margin = sweep.min_trace_s
    kappa_sq, kappa_worst = _kappa(sweep, kappa_margin)
    kappa_ok = kappa_sq > 1.0 + STRICT_MARGIN and kappa_worst >= STRICT_MARGIN
    cond4_margin = second_fundamental_bound_check(sweep, sigma, kappa_sq)
    h_max = sweep.max_h_norm

    return HypothesisReport(
        sigma=sigma,
        kappa_sq=kappa_sq,
        lambda0_sq=sweep.lambda0_sq,
        minimal_ok=h_max < tol["minimality"],
        pinching_ok=pinch.ok,
        trace_ok=trace_margin >= -slack,
        kappa_ok=kappa_ok,
        condition4_ok=cond4_margin >= -slack,
        margins={
            "max_h_norm": h_max,
            "pinching_domain": pinch.domain_margin,
            "pinching_target": pinch.target_margin,
            "trace": trace_margin,
            "kappa_strict": kappa_worst,
            "condition4": cond4_margin,
        })


class Classification(NamedTuple):
    verdict: str                   # constant | totally-geodesic-isometric-immersion
    evidence: dict[str, object]    # | hypothesis-violated | indeterminate
    scope: str = "box-local"


def classify(sweep: GridSweep, hyp: HypothesisReport,
             tolerances: dict[str, float] | None = None) -> Classification:
    """Classify the map against the rigidity dichotomy from the ``sweep`` of
    the sample grid and its ``hyp``, at the pinching level ``hyp.sigma``.

    A failed hypothesis wins over everything else; with all hypotheses in
    place the verdict is ``constant`` when every singular value vanishes,
    ``totally-geodesic-isometric-immersion`` when all singular values equal
    one and the second fundamental form vanishes (with the induced-metric
    and curvature-witness conclusions re-checked on every sweep row), and
    ``indeterminate`` otherwise.
    """
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    sigma = hyp.sigma

    if not hyp.all_ok:
        return Classification("hypothesis-violated", {
            "failing": hyp.failing(),
            "margins": {k: hyp.margins[k] for k in hyp.margins}})

    if sweep.max_lambda < tol["classify_constant"]:
        return Classification("constant", {"max_lambda": sweep.max_lambda})

    dev_one = float(np.max(np.abs(sweep.lambdas - 1.0)))
    max_a = float(np.sqrt(sweep.max_a_norm_sq))
    if dev_one < tol["classify_isometric"] and max_a < tol["classify_isometric"]:
        evidence: dict[str, object] = {
            "max_lambda_deviation": dev_one, "max_a_norm": max_a}

        # conclusion re-checks: induced metric doubles the domain metric,
        # and both curvature witnesses sit at the pinching level
        factor_res = float(np.max(sweep.metric_factor_res))
        evidence["induced_metric_factor_residual"] = factor_res

        sec_m_dev = float(np.max(np.maximum(np.abs(sweep.sec_m_min - sigma),
                                            np.abs(sweep.sec_m_max - sigma))))
        has = sweep.has_sec_n
        sec_n_dev = float(np.max(np.maximum(np.abs(sweep.sec_n_min[has] - sigma),
                                            np.abs(sweep.sec_n_max[has] - sigma)),
                                 initial=0.0))
        evidence["sec_m_witness_deviation"] = sec_m_dev
        evidence["sec_n_witness_deviation"] = sec_n_dev

        ok = (factor_res < tol["induced_metric_factor"]
              and sec_m_dev < tol["sec_witness"]
              and sec_n_dev < tol["sec_witness"])
        if ok:
            return Classification("totally-geodesic-isometric-immersion", evidence)
        evidence["conclusion_check_failed"] = True
        return Classification("indeterminate", evidence)

    return Classification("indeterminate", {
        "max_lambda": sweep.max_lambda,
        "max_lambda_deviation": dev_one,
        "max_a_norm_sq": sweep.max_a_norm_sq,
        "margins": dict(hyp.margins)})
