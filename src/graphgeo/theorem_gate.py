"""Hypothesis gate and dichotomy classification for the rigidity statement.

The gate sweeps a sample grid, measures per-point geometry (singular values,
trace of the deficit tensor, second-fundamental-form norms, sectional
curvature ranges), evaluates every hypothesis with explicit worst-case
margins, and classifies the map against the constant / totally-geodesic
dichotomy.  All maxima are taken over the sample grid of the chart box, so
every verdict is box-local; no global claim is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart_manifold import ChartPoint, sectional_from_data
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


def _sectional_columns(blk: GraphBlock, planes_uv: Array) -> dict[str, Array]:
    """Sectional curvature ranges of a block over its sampled planes.

    ``planes_uv[b, k]`` holds the pair (u, v) of domain vectors of plane
    ``k`` at point ``b``.  Target planes are the images ``(df u, df v)``,
    sampled only where the domain plane is non-degenerate and the
    differential has rank two or more.
    """
    jets = blk.jets
    u, v = planes_uv[:, :, 0], planes_uv[:, :, 1]
    sec_m = sectional_from_data(blk.riem_m[:, None],
                                jets.gm.g[:, None], u, v)
    no_plane = np.ma.getmaskarray(sec_m).all(axis=1)
    if no_plane.any():
        raise DegeneratePlaneError(
            f"no sampled domain plane at {jets.coords[np.argmax(no_plane)]}")

    n = jets.gn.g.shape[-1]
    wanted = ~np.ma.getmaskarray(sec_m) & (blk.frames.rank >= 2)[:, None]
    if n >= 2 and wanted.any():
        d1 = jets.f.d1[:, None]
        du, dv = (d1 @ u[..., None])[..., 0], (d1 @ v[..., None])[..., 0]
        sec_n = sectional_from_data(blk.riem_n[:, None],
                                    jets.gn.g[:, None], du, dv)
        sec_n = np.ma.masked_array(sec_n.data,
                                   mask=np.ma.getmaskarray(sec_n) | ~wanted)
    else:
        sec_n = np.ma.masked_all(u.shape[:2])
    return {
        "sec_m_min": sec_m.min(axis=1).filled(np.nan),
        "sec_m_max": sec_m.max(axis=1).filled(np.nan),
        "sec_n_min": sec_n.min(axis=1).filled(np.nan),
        "sec_n_max": sec_n.max(axis=1).filled(np.nan),
        "has_sec_n": ~np.ma.getmaskarray(sec_n).all(axis=1),
    }


def sweep_geometry(f: SmoothMap, grid: list[ChartPoint], seed: int = 0,
                   planes: int = 4) -> GridSweep:
    """Measure the per-point geometry table over ``grid``.

    The grid is evaluated in blocks (see :func:`graph_blocks`).  Plane
    samples are drawn from per-point spawned seeds, so the result does not
    depend on how the grid is split into blocks.
    """
    m = f.domain.dim
    if m < 2:
        raise InvalidParameterError("sectional curvature needs dim M >= 2")
    coords = np.array([p.coords for p in grid], dtype=float).reshape(len(grid), m)
    seqs = np.random.SeedSequence(seed).spawn(len(grid))
    parts = []
    for i, blk in enumerate(graph_blocks(f, coords)):
        start = i * BLOCK_SIZE
        planes_uv = np.stack([np.random.default_rng(seq).normal(size=(planes, 2, m))
                              for seq in seqs[start:start + BLOCK_SIZE]])
        parts.append({
            "coords": blk.jets.coords, "lambdas": blk.frames.lambdas,
            "rank": blk.frames.rank, "trace_s": blk.trace_s,
            "a_norm_sq": blk.ext.a_norm_sq, "h_norm": blk.ext.h_norm,
            **_sectional_columns(blk, planes_uv)})
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


def classify(f: SmoothMap, grid: list[ChartPoint], sigma: float,
             kappa_margin: float = 0.01,
             tolerances: dict[str, float] | None = None,
             seed: int = 0, sweep: GridSweep | None = None,
             hypotheses: HypothesisReport | None = None) -> Classification:
    """Classify the map against the rigidity dichotomy on the sample grid.

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
        sample = grid[:: max(1, len(grid) // 10)]
        blk = graph_block(f, np.array([p.coords for p in sample]))
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
