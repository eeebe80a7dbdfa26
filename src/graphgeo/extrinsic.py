"""Second fundamental form and mean curvature of the graph embedding.

The graph embedding sends a domain point x to (x, f(x)) in the product.
Its second fundamental tensor is computed in product-chart components,

    A(d_i, d_j)^C = d_i d_j F^C + Gamma^C_AB d_i F^A d_j F^B
                    - Gamma^k_ij(g) d_k F^C,

with the block product Christoffels and the Christoffels of the induced
metric, then contracted with the adapted orthonormal frame.  No normal
projection is applied; the tangential residual is reported as a diagnostic,
since for a correct computation it must vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart_manifold import (
    ChartPoint,
    MetricJet,
    christoffel_from_jet,
    quadratic_form,
)
from .graph_map import (
    GraphFrameData,
    GraphJets,
    MapJet,
    SmoothMap,
    adapted_frames_at,
    deficit_trace,
    graph_jets,
    induced_jet,
    pullback_metric_jet,
    verified_frame_block,
)
from .product_space import SplitVector

Array = np.ndarray

#: Default mean-curvature threshold for calling a map minimal.  One order
#: looser than the totally-geodesic threshold: the mean curvature spends one
#: more derivative of the map.
MINIMAL_TOL = 1e-6

#: Default threshold on the second fundamental form for total geodesy.
TOTALLY_GEODESIC_TOL = 1e-8

#: Points per block of the grid engine.  Bounds the engine's working memory;
#: larger blocks save little time once the per-block numpy calls are
#: amortized.
BLOCK_SIZE = 128


@dataclass(frozen=True)
class EmbeddingJet:
    """Jet of the graph embedding in product-chart components."""

    value: Array   # (m + n,)
    d1: Array      # (m + n, m): identity block over d_i f^a
    d2: Array      # (m + n, m, m): zero block over d_i d_j f^a


@dataclass(frozen=True)
class ExtrinsicData:
    """Second fundamental form data.

    ``a_frame_m`` / ``a_frame_n`` hold the factor components of
    ``A(e_i, e_j)`` in the adapted orthonormal frame (indices ``[i, j, :]``);
    ``a_coord_m`` / ``a_coord_n`` the same in chart-basis slots.  For a block
    of points every field carries a leading block axis.
    """

    frames: GraphFrameData
    a_frame_m: Array
    a_frame_n: Array
    a_coord_m: Array
    a_coord_n: Array
    mean_curvature: SplitVector
    a_norm_sq: float | Array
    h_norm: float | Array
    tangency_residual: float | Array

    def a(self, i: int, j: int) -> SplitVector:
        return SplitVector(self.a_frame_m[i, j], self.a_frame_n[i, j])

    def a_coord(self, u: Array, v: Array) -> SplitVector:
        """``A(u, v)`` for chart-component vectors ``u``, ``v``."""
        return SplitVector(
            np.einsum("ijc,i,j->c", self.a_coord_m, u, v),
            np.einsum("ijc,i,j->c", self.a_coord_n, u, v))

    def point(self, i: int) -> "ExtrinsicData":
        """The data of point ``i`` of a block."""
        H = self.mean_curvature
        return ExtrinsicData(
            frames=self.frames.point(i), a_frame_m=self.a_frame_m[i],
            a_frame_n=self.a_frame_n[i], a_coord_m=self.a_coord_m[i],
            a_coord_n=self.a_coord_n[i],
            mean_curvature=SplitVector(H.m_part[i], H.n_part[i]),
            a_norm_sq=float(self.a_norm_sq[i]), h_norm=float(self.h_norm[i]),
            tangency_residual=float(self.tangency_residual[i]))


def graph_embedding_jet(f: SmoothMap, p: ChartPoint) -> EmbeddingJet:
    """Value, differential and Hessian of x -> (x, f(x)) in chart slots."""
    jet = f.jet(p)
    m, n = f.domain.dim, f.target.dim
    value = np.concatenate([p.coords, jet.value])
    d1 = np.vstack([np.eye(m), jet.d1])
    d2 = np.concatenate([np.zeros((m, m, m)), jet.d2], axis=0)
    return EmbeddingJet(value, d1, d2)


def second_fundamental_block(fjet: MapJet, gm_jet: MetricJet, gn_jet: MetricJet,
                             induced: MetricJet,
                             frames: GraphFrameData) -> ExtrinsicData:
    """Second fundamental form, mean curvature and scalar invariants over a
    block of points.

    ``induced`` is the (first-order) jet of the induced metric and
    ``frames`` the adapted frames, both over the same block.
    """
    d1, d2 = fjet.d1, fjet.d2
    gamma_m = christoffel_from_jet(gm_jet)
    gamma_n = christoffel_from_jet(gn_jet)
    gamma_g = christoffel_from_jet(induced)

    # Factor components of A in chart-basis slots.  The domain part carries
    # the connection difference; the target part is the map Hessian corrected
    # by the induced connection.
    a_coord_m = np.einsum("...kij->...ijk", gamma_m - gamma_g)
    a_coord_n = (np.einsum("...aij->...ija", d2)
                 + np.einsum("...abc,...bi,...cj->...ija", gamma_n, d1, d1)
                 - np.einsum("...kij,...ak->...ija", gamma_g, d1))

    # C order gives each point's slice the memory layout, and with it the
    # summation order of the contractions below, of a single-point evaluation
    e = frames.e
    a_frame_m = np.einsum("...ijc,...ip,...jq->...pqc", a_coord_m, e, e, order="C")
    a_frame_n = np.einsum("...ijc,...ip,...jq->...pqc", a_coord_n, e, e, order="C")

    H = SplitVector(np.einsum("...iic->...c", a_frame_m),
                    np.einsum("...iic->...c", a_frame_n))

    gm, gn = gm_jet.g, gn_jet.g
    a_norm_sq = (np.einsum("...ijc,...cd,...ijd->...", a_frame_m, gm, a_frame_m)
                 + np.einsum("...ijc,...cd,...ijd->...", a_frame_n, gn, a_frame_n))
    h_norm = np.sqrt(quadratic_form(H.m_part, gm, H.m_part)
                     + quadratic_form(H.n_part, gn, H.n_part))

    # Gauss-formula diagnostic: A(e_i, e_j) must be product-orthogonal to
    # every tangent frame vector.
    m = gm.shape[-1]
    E = frames.tangent
    tang = np.max([np.abs(
        np.einsum("...ijc,...cd,...d->...ij", a_frame_m, gm, E[..., :m, k])
        + np.einsum("...ijc,...cd,...d->...ij", a_frame_n, gn, E[..., m:, k])
    ).max(axis=(-2, -1)) for k in range(m)], axis=0)

    return ExtrinsicData(frames=frames, a_frame_m=a_frame_m,
                         a_frame_n=a_frame_n, a_coord_m=a_coord_m,
                         a_coord_n=a_coord_n, mean_curvature=H,
                         a_norm_sq=a_norm_sq, h_norm=h_norm,
                         tangency_residual=tang)


def second_fundamental_at(f: SmoothMap, p: ChartPoint,
                          frames: GraphFrameData | None = None) -> ExtrinsicData:
    """Second fundamental form, mean curvature and scalar invariants at ``p``."""
    jets = graph_jets(f, p.coords[None])
    induced = induced_jet(jets.gm, pullback_metric_jet(jets.f, jets.gn, order=1))
    if frames is None:
        frames = adapted_frames_at(f, p)
    return second_fundamental_block(jets.f, jets.gm, jets.gn, induced,
                                    frames.block()).point(0)


# ---------------------------------------------------------------------------
# Grid engine: every pointwise quantity over blocks of points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphBlock:
    """Pointwise graph geometry over a block of domain points.

    Each point's map jet and its two metric jets are evaluated once; every
    other field is computed from them for the whole block at a time.
    """

    jets: GraphJets
    g: Array                # induced metric g_M + f*(g_N)
    s: Array                # deficit tensor g_M - f*(g_N)
    trace_s: Array          # tr_g s
    frames: GraphFrameData  # verified adapted frames
    ext: ExtrinsicData


def graph_block(f: SmoothMap, coords: Array) -> GraphBlock:
    """The graph geometry at the rows of ``coords`` (shape ``(B, m)``)."""
    jets = graph_jets(f, coords)
    pullback = pullback_metric_jet(jets.f, jets.gn, order=1)
    induced = induced_jet(jets.gm, pullback)
    P, gm = pullback[0], jets.gm.g
    s = gm - P
    frames = verified_frame_block(P, jets.f.d1, gm, jets.gn.g, induced.g,
                                  jets.coords)
    ext = second_fundamental_block(jets.f, jets.gm, jets.gn, induced, frames)
    return GraphBlock(jets, induced.g, s, deficit_trace(induced.g, s), frames, ext)


def graph_blocks(f: SmoothMap, coords: Array):
    """Yield the :class:`GraphBlock` of each run of :data:`BLOCK_SIZE` rows
    of ``coords``, in order."""
    for start in range(0, len(coords), BLOCK_SIZE):
        yield graph_block(f, coords[start:start + BLOCK_SIZE])


@dataclass(frozen=True)
class MinimalityReport:
    max_h_norm: float
    max_a_norm: float
    minimal_tol: float
    geodesic_tol: float
    points_checked: int

    @property
    def is_totally_geodesic(self) -> bool:
        return self.max_a_norm < self.geodesic_tol

    @property
    def is_minimal(self) -> bool:
        # total geodesy implies minimality regardless of the measured H
        return self.max_h_norm < self.minimal_tol or self.is_totally_geodesic


def minimality_report(f: SmoothMap, grid: list[ChartPoint],
                      minimal_tol: float = MINIMAL_TOL,
                      geodesic_tol: float = TOTALLY_GEODESIC_TOL) -> MinimalityReport:
    """Scan a grid and report minimality / total geodesy of the graph."""
    if not grid:
        raise ValueError("empty sample grid")
    coords = np.array([p.coords for p in grid])
    exts = [blk.ext for blk in graph_blocks(f, coords)]
    max_h = float(np.max(np.concatenate([ext.h_norm for ext in exts])))
    max_a = float(np.sqrt(np.max(np.concatenate([ext.a_norm_sq for ext in exts]))))
    return MinimalityReport(max_h_norm=max_h, max_a_norm=max_a,
                            minimal_tol=minimal_tol, geodesic_tol=geodesic_tol,
                            points_checked=len(grid))
