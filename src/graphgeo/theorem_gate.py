"""Hypothesis gate and dichotomy classification for the rigidity statement.

The gate sweeps a sample grid, measures per-point geometry (singular values,
trace of the deficit tensor, second-fundamental-form norms, sectional
curvature ranges), evaluates every hypothesis with explicit worst-case
margins, and classifies the map against the constant / totally-geodesic
dichotomy.  All maxima are taken over the sample grid of the chart box, so
every verdict is box-local; no global claim is made.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .chart_manifold import sectional_from_data
from .errors import DegeneratePlaneError, InvalidParameterError
from .extrinsic import BLOCK_SIZE, MINIMAL_TOL, GraphBlock, graph_block, graph_blocks
from .graph_map import SmoothMap

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


@dataclass(frozen=True)
class GridSweep:
    """Measured graph geometry over a sample grid, one column per quantity.

    Row ``i`` of every column belongs to grid point ``i``.  ``sec_n_min`` /
    ``sec_n_max`` are NaN where no target plane was sampled (the image of
    the differential is less than two-dimensional there); ``has_sec_n``
    marks the rows that hold target samples.
    """

    coords: Array       # (N, m)
    lambdas: Array      # (N, m), ascending
    rank: Array         # (N,)
    trace_s: Array
    a_norm_sq: Array
    h_norm: Array
    sec_m_min: Array
    sec_m_max: Array
    sec_n_min: Array
    sec_n_max: Array
    has_sec_n: Array

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
        du, dv = (d1 @ u[..., None])[..., 0], (d1 @ v[..., None])[..., 0]
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


def _hasher(init: int, mult: int):
    """``SeedSequence``'s hash step on uint32 arrays, with its multiplier
    advancing from ``init`` by ``mult`` at every call whatever the data."""
    const = init

    def step(value: Array) -> Array:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return step


def _spawned_pcg_seeds(seed: int, count: int) -> list[Array]:
    """The four 64-bit words with which ``PCG64`` seeds itself from each child
    of ``SeedSequence(seed).spawn(count)``: one ``(count,)`` array per word.

    Child ``i`` hashes the entropy words of ``seed`` (zero-padded to the pool
    size) followed by the spawn key ``i``.  The hash constants advance
    independently of the data, so every child is the same uint32 arithmetic
    on a different last word, done here for all children at once.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if count >= 1 << 32:
        raise InvalidParameterError("too many grid points for one plane stream")
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(count, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(count, dtype=np.uint32))

    def mix(x: Array, y: Array) -> Array:
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): eight uint32 words cycling over the pool,
    # paired little-endian into 64-bit words
    output = _hasher(_INIT_B, _MULT_B)
    state = [output(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    return [state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(4)]


def spawned_normals(seed: int, count: int, shape: tuple[int, ...]) -> Array:
    """Row ``i`` is ``default_rng(SeedSequence(seed).spawn(count)[i])
    .normal(size=shape)``, bit for bit.

    The children's PCG64 seeds come from :func:`_spawned_pcg_seeds`; one
    generator then takes each child's seeded state in turn (the 128-bit
    ``srandom`` step: ``inc = 2 seq + 1``, ``state = (inc + s) * mult + inc``)
    and draws its row.
    """
    bits = np.random.PCG64()
    gen = np.random.Generator(bits)
    doc = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
           "has_uint32": 0, "uinteger": 0}
    out = np.empty((count, *shape))
    words = zip(*(w.tolist() for w in _spawned_pcg_seeds(seed, count)))
    for i, (s_hi, s_lo, q_hi, q_lo) in enumerate(words):
        inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
        doc["state"]["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        doc["state"]["inc"] = inc
        bits.state = doc
        out[i] = gen.normal(size=shape)
    return out


def sweep_geometry(f: SmoothMap, grid: Array, seed: int = 0,
                   planes: int = 4) -> GridSweep:
    """Measure the per-point geometry table over the rows of ``grid``
    (shape ``(N, m)``).

    The grid is evaluated in blocks (see :func:`graph_blocks`).  Point ``i``
    draws its planes from child ``i`` of ``SeedSequence(seed).spawn(N)``
    (see :func:`spawned_normals`), so the result does not depend on how the
    grid is split into blocks.
    """
    m = f.domain.dim
    if m < 2:
        raise InvalidParameterError("sectional curvature needs dim M >= 2")
    coords = np.asarray(grid, dtype=float).reshape(len(grid), m)
    samples = spawned_normals(seed, len(coords), (planes, 2, m))
    parts = []
    for i, blk in enumerate(graph_blocks(f, coords)):
        parts.append({
            "coords": blk.jets.coords, "lambdas": blk.frames.lambdas,
            "rank": blk.frames.rank, "trace_s": blk.trace_s,
            "a_norm_sq": blk.ext.a_norm_sq, "h_norm": blk.ext.h_norm,
            **_sectional_columns(blk, samples[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE])})
    return GridSweep(**{name: np.concatenate([part[name] for part in parts])
                        for name in GridSweep.__dataclass_fields__})


# ---------------------------------------------------------------------------
# Individual hypothesis checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PinchingMargins:
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


@dataclass(frozen=True)
class TraceChainReport:
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

@dataclass(frozen=True)
class HypothesisReport:
    sigma: float
    kappa_sq: float
    lambda0_sq: float
    minimal_ok: bool
    pinching_ok: bool
    trace_ok: bool
    kappa_ok: bool
    condition4_ok: bool
    margins: dict[str, float | None] = field(default_factory=dict)
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


@dataclass(frozen=True)
class Classification:
    verdict: str                   # constant | totally-geodesic-isometric-immersion
    evidence: dict[str, object]    # | hypothesis-violated | indeterminate
    scope: str = "box-local"


def classify(f: SmoothMap, grid: Array, sigma: float,
             kappa_margin: float = 0.01,
             tolerances: dict[str, float] | None = None,
             seed: int = 0, sweep: GridSweep | None = None,
             hypotheses: HypothesisReport | None = None) -> Classification:
    """Classify the map against the rigidity dichotomy on the sample grid
    (the rows of ``grid``).

    A failed hypothesis wins over everything else; with all hypotheses in
    place the verdict is ``constant`` when every singular value vanishes,
    ``totally-geodesic-isometric-immersion`` when all singular values equal
    one and the second fundamental form vanishes (with the induced-metric
    and curvature-witness conclusions re-checked), and ``indeterminate``
    otherwise.
    """
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    if sweep is None:
        sweep = sweep_geometry(f, grid, seed=seed)
    hyp = hypotheses or evaluate_hypotheses(sweep, sigma, kappa_margin, tol)

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
        blk = graph_block(f, grid[:: max(1, len(grid) // 10)])
        factor_res = float(np.max(np.abs(blk.g - 2.0 * blk.jets.gm.g)))
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
