"""Hypothesis gate and dichotomy classification for the rigidity statement.

The gate sweeps a sample grid, measures per-point geometry (singular values,
trace of the deficit tensor, second-fundamental-form norms, sectional
curvature ranges), evaluates every hypothesis of the table
:data:`HYPOTHESES` on its worst-case margins, each decided by :func:`holds`
(the null-eigenvector probe skips its rows by the same rule), and
classifies the map against the constant / totally-geodesic dichotomy.

All maxima are taken over the sample grid of the chart box, so every
verdict is box-local; no global claim is made.
"""

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .chart_manifold import matvec, sectional_from_data
from .draws import spawned_normals
from .errors import DegeneratePlaneError, InvalidParameterError
from .extrinsic import GraphBlock, graph_blocks
from .graph_map import SmoothMap
from .records import Frozen

Array = np.ndarray

#: Margin required for numerically strict inequalities.
STRICT_MARGIN = 1e-9

DEFAULT_TOLERANCES: dict[str, float] = {
    # max |H| for a minimal map: two orders looser than the totally-geodesic
    # bound on |A| (classify_isometric), since H spends one more derivative
    "minimality": 1e-6,
    "gate_slack": 1e-9,            # slack allowed on non-strict gate inequalities
    "classify_constant": 1e-8,     # max singular value for the constant verdict
    "classify_isometric": 1e-8,    # |lambda - 1| and |A| for the geodesic verdict
    "sec_witness": 1e-6,           # curvature witnesses for conclusion checks
    "induced_metric_factor": 1e-8, # |g - 2 g_M| residual in the geodesic verdict
    "frame": 1e-8,                 # from here on, one key per identity check
    "s_eigenvalue": 1e-8,
    "normal_estimate": 1e-10,
    "decomposition": 1e-6,
    "decomposition_gap": 1e-8,
    "elliptic": 1e-4,
    "minimality_relations": 1e-6,
    "log_jacobian": 1e-4,
    "jacobian_consistency": 1e-10,
    "extremum": 1.0,               # normalized: max of gradient and Laplacian ratios
    "null_probe": 1e-10,
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
        d1 = np.ascontiguousarray(jets.f.d1[:, None])     # once for both
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


def sweep_geometry(f: SmoothMap, grid: Array, seed: int = 0) -> GridSweep:
    """Measure the per-point geometry table over the rows of ``grid``
    (shape ``(N, m)``, ``N >= 1``).

    The grid is evaluated in the blocks of :func:`graph_blocks`, whose rows
    go into columns allocated once.  Point ``i`` draws four planes from child
    ``i`` of ``SeedSequence(seed).spawn(N)``, without ``numpy.random`` (see
    :func:`spawned_normals`), so the result does not depend on how the grid
    is split into blocks.  Besides its columns the sweep holds one block and
    that block's planes.
    """
    m = f.domain.dim
    if m < 2:
        raise InvalidParameterError("sectional curvature needs dim M >= 2")
    coords = np.asarray(grid, dtype=float).reshape(len(grid), m)
    if not len(coords):
        raise ValueError("an empty grid has no geometry to sweep")
    planes_of = spawned_normals(seed, len(coords), (4, 2, m))
    for rows, blk in graph_blocks(f, coords):
        part = {
            "coords": blk.jets.coords, "lambdas": blk.frames.lambdas,
            "rank": blk.frames.rank, "trace_s": blk.trace_s,
            "a_norm_sq": blk.ext.a_norm_sq, "h_norm": blk.ext.h_norm,
            "metric_factor_res": np.max(np.abs(blk.g - 2.0 * blk.gm), axis=(1, 2)),
            **_sectional_columns(blk, planes_of(rows))}
        if rows.start == 0:
            columns = {name: np.empty((len(coords), *a.shape[1:]), a.dtype)
                       for name, a in part.items()}
        for name, a in part.items():
            columns[name][rows] = a
        # free the block before building the next: holding both raised the
        # peak RSS of the holo-w2 60x60 report by 2-3 MB
        del blk, part
    return GridSweep(**columns)


# ---------------------------------------------------------------------------
# Individual hypothesis checks
# ---------------------------------------------------------------------------

def kappa_level(lambda0_sq: float, margin: float) -> float:
    """The strict pullback bound's ``kappa^2 = max(1 + margin, (1 + margin)
    * lambda0^2)`` over a largest squared singular value ``lambda0^2``: the
    gate's and the identity suite's."""
    return float(np.maximum(1.0 + margin, (1.0 + margin) * lambda0_sq))


#: The rigidity hypotheses in the order the gate reports them, each with the
#: keys of the margins it reads; :func:`holds` decides each margin.
HYPOTHESES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("minimal", ("max_h_norm",)),
    ("pinching", ("pinching_domain", "pinching_target")),
    ("trace", ("trace",)),
    ("kappa", ("kappa_strict",)),
    ("condition4", ("condition4",)),
)


def holds(key: str, margin, kappa_sq: float, tol: Mapping[str, float]):
    """Whether the margin (a value or a column) under ``key`` meets its
    hypothesis: ``|H|`` below ``minimality``; the strict pullback bound
    ``kappa^2 > 1 + STRICT_MARGIN`` with a margin of at least
    :data:`STRICT_MARGIN`; every other margin at least minus ``gate_slack``.
    A NaN margin fails; a ``None`` one (no target plane anywhere) holds."""
    if margin is None:
        return True
    if key == "max_h_norm":
        return margin < tol["minimality"]
    if key == "kappa_strict":
        return (kappa_sq > 1.0 + STRICT_MARGIN) & (margin >= STRICT_MARGIN)
    return margin >= -tol["gate_slack"]


def row_margins(rows, sigma: float, kappa_sq: float, sec_low: Array,
                sec_high: Array) -> dict[str, Array]:
    """One column per margin key of :data:`HYPOTHESES`, and ``sff_bound``,
    over the rows of ``rows`` (a :class:`GridSweep` or any stack with
    ``h_norm``, ``trace_s``, ``lambdas`` and ``a_norm_sq`` columns) whose
    least domain and greatest target sectional curvatures are ``sec_low`` and
    ``sec_high``, at the pinching level ``sigma`` and the pullback bound
    ``kappa_sq``.

    Condition 4 compares ``|A|^2`` against ``sff_bound = kappa^2 sigma /
    (kappa^4 - 1) tr(s)``.  Where ``kappa^2 <= 1`` there is no such bound,
    its columns are NaN, and the pullback bound fails anyway.  A ``kappa^4``
    or a bound that overflows raises :class:`InvalidParameterError`.
    """
    try:
        coeff = kappa_sq * sigma / (kappa_sq ** 2 - 1.0) if kappa_sq > 1.0 else np.nan
    except OverflowError:
        raise InvalidParameterError(
            f"kappa^2 = {kappa_sq:.6g} is too large: kappa^4 overflows") from None
    with np.errstate(over="ignore", invalid="ignore"):
        bound = coeff * rows.trace_s
    if np.isinf(coeff) or np.isinf(bound).any():
        raise InvalidParameterError(
            f"sigma = {sigma:.6g} is too large: the condition-4 bound overflows")
    return {"max_h_norm": rows.h_norm, "pinching_domain": sec_low - sigma,
            "pinching_target": sigma - sec_high, "trace": rows.trace_s,
            "kappa_strict": kappa_sq - rows.lambdas[:, -1] ** 2,
            "condition4": bound - rows.a_norm_sq, "sff_bound": bound}


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
    strict = float(np.min(sweep.trace_s)) > STRICT_MARGIN if dims_margin >= 0 else True
    ok = trace_margin > STRICT_MARGIN and rank_margin >= 0 and strict
    return TraceChainReport(trace_margin, dims_margin, rank_margin, strict, ok)


# ---------------------------------------------------------------------------
# Hypothesis report and classification
# ---------------------------------------------------------------------------

class HypothesisReport(NamedTuple):
    sigma: float
    kappa_sq: float
    lambda0_sq: float
    minimal_ok: bool             # one flag per row of HYPOTHESES, in its order
    pinching_ok: bool
    trace_ok: bool
    kappa_ok: bool
    condition4_ok: bool
    margins: Mapping[str, float | None] = MappingProxyType({})   # read-only
    scope: str = "box-local"

    @property
    def all_ok(self) -> bool:
        return not self.failing()

    def failing(self) -> list[str]:
        return [name for name, _ in HYPOTHESES if not getattr(self, f"{name}_ok")]


def evaluate_hypotheses(sweep: GridSweep, sigma: float,
                        kappa_margin: float = 0.01,
                        tolerances: dict[str, float] | None = None) -> HypothesisReport:
    """Each hypothesis of :data:`HYPOTHESES` on the worst of its margins over
    the sweep: the greatest ``|H|``, the least of the others.  Target planes
    lie in the image of df, so the target pinching margin is taken over the
    ``has_sec_n`` rows, and is None (and holds) where there are none."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    lambda0_sq = float(np.max(sweep.lambdas[:, -1] ** 2))
    kappa_sq = kappa_level(lambda0_sq, kappa_margin)
    if kappa_sq <= 1.0:
        raise ValueError("the bound needs kappa^2 > 1")
    columns = row_margins(sweep, sigma, kappa_sq, sweep.sec_m_min, sweep.sec_n_max)
    columns["pinching_target"] = columns["pinching_target"][sweep.has_sec_n]
    margins = {key: float((np.max if key == "max_h_norm" else np.min)(columns[key]))
                    if len(columns[key]) else None for _, keys in HYPOTHESES for key in keys}
    return HypothesisReport(
        sigma, kappa_sq, lambda0_sq, margins=margins,
        **{f"{name}_ok": all(holds(key, margins[key], kappa_sq, tol) for key in keys)
           for name, keys in HYPOTHESES})


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

    max_lambda = float(np.max(sweep.lambdas[:, -1]))
    if max_lambda < tol["classify_constant"]:
        return Classification("constant", {"max_lambda": max_lambda})

    dev_one = float(np.max(np.abs(sweep.lambdas - 1.0)))
    max_a_norm_sq = float(np.max(sweep.a_norm_sq))
    max_a = float(np.sqrt(max_a_norm_sq))
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
        "max_lambda": max_lambda,
        "max_lambda_deviation": dev_one,
        "max_a_norm_sq": max_a_norm_sq,
        "margins": dict(hyp.margins)})
