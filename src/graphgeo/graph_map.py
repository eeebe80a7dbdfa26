"""Maps between chart manifolds and the geometry of their graphs.

A :class:`SmoothMap` carries exact jets of the map up to third order.  From
these, the module computes the pullback metric and its derivatives, the
metric induced on the domain by the graph embedding, the singular values of
the differential, and the adapted orthonormal frames of the graph's tangent
and normal spaces.

Map jet layout: ``value[a]``, ``d1[a, i] = d_i f^a``, ``d2[a, i, j]``,
``d3[a, i, j, k]``, symmetric in all derivative indices.

The formulas work on blocks of points: array arguments carry a leading
block axis, and the point-level functions (``adapted_frames_at`` and the
like) run them on a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .chart_manifold import (
    ChartManifold,
    ChartPoint,
    MetricJet,
    metric_inverse,
    quadratic_form,
    sym_eigen,
)
from .errors import (
    CapabilityError,
    FrameConstructionError,
    InvalidParameterError,
    OutOfChartError,
)
from .product_space import ProductPoint, ProductSpace, SplitVector, block_diag

Array = np.ndarray

#: A singular value counts toward the rank iff it exceeds this tolerance
#: times ``(1 + lambda_max)``.
RANK_TOL = 1e-8

#: Default tolerance for the internal verification of adapted frames.
FRAME_VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class MapJet:
    value: Array
    d1: Array
    d2: Array
    d3: Array | None = None


def stack_map_jets(jets: list[MapJet]) -> MapJet:
    """One map jet whose arrays carry the given jets along a leading axis."""
    d3 = None if any(j.d3 is None for j in jets) else np.stack([j.d3 for j in jets])
    return MapJet(np.stack([j.value for j in jets]), np.stack([j.d1 for j in jets]),
                  np.stack([j.d2 for j in jets]), d3)


@dataclass(frozen=True)
class SmoothMap:
    """A chart-to-chart map with an exact jet evaluator up to order three."""

    domain: ChartManifold
    target: ChartManifold
    jet_fn: Callable[[Array], MapJet]
    name: str = "map"

    def jet(self, p) -> MapJet:
        """Map jet at a point, or at every row of a coordinate block.

        ``p`` is a :class:`ChartPoint`, or an array of shape ``(B, m)`` whose
        rows' jets are evaluated once each and come stacked on a leading
        axis.  The chart boxes of a block are checked for the whole block at
        once; the :class:`OutOfChartError` names the first offending point
        in block order, as a point-by-point evaluation would.
        """
        if isinstance(p, ChartPoint):
            if not self.domain.contains(p):
                raise OutOfChartError(
                    f"{self.name}: point {p.coords} outside domain chart")
            jet = self.jet_fn(p.coords)
            image = ChartPoint(jet.value)
            if not self.target.contains(image):
                raise OutOfChartError(
                    f"{self.name}: image {jet.value} outside target chart")
            return jet
        coords = np.asarray(p, dtype=float)
        inside = self.domain.contains(coords)
        n_inside = len(coords) if inside.all() else int(np.argmin(inside))
        jets = [self.jet_fn(x) for x in coords[:n_inside]]
        images = np.array([j.value for j in jets], dtype=float).reshape(
            n_inside, self.target.dim)
        outside = ~self.target.contains(images)
        if outside.any():
            raise OutOfChartError(
                f"{self.name}: image {images[np.argmax(outside)]} outside target chart")
        if n_inside < len(coords):
            raise OutOfChartError(
                f"{self.name}: point {coords[n_inside]} outside domain chart")
        return stack_map_jets(jets)

    def image_point(self, p: ChartPoint) -> ChartPoint:
        return ChartPoint(self.jet(p).value)

    def product_space(self) -> ProductSpace:
        return ProductSpace(self.domain, self.target)

    def product_point(self, p: ChartPoint) -> ProductPoint:
        return ProductPoint(p, self.image_point(p))


@dataclass(frozen=True)
class GraphJets:
    """Map jets and both metric jets over a block of domain points."""

    coords: Array     # (B, m)
    f: MapJet         # map jets, stacked
    gm: MetricJet     # domain metric jets at ``coords``
    gn: MetricJet     # target metric jets at the images


def graph_jets(f: SmoothMap, coords: Array) -> GraphJets:
    """Each point's map jet and its two metric jets, evaluated once each."""
    coords = np.asarray(coords, dtype=float)
    fjet = f.jet(coords)
    return GraphJets(coords, fjet, f.domain.jet(coords), f.target.jet(fjet.value))


@dataclass(frozen=True)
class GraphFrameData:
    """Singular values and adapted frames of the graph.

    For one point: ``lambdas`` are ascending; ``alpha[:, i]`` / ``beta[:, i]``
    / ``e[:, i]`` are basis vectors in chart components; column ``i`` of
    ``tangent`` (of ``normal``) stacks the domain and target components of
    the product-orthonormal tangent frame vector ``e_tilde_i`` (normal frame
    vector ``xi_i``) of the graph.  For a block of points every array carries
    a leading block axis and ``rank`` is an integer array.
    """

    lambdas: Array
    rank: int | Array
    alpha: Array
    beta: Array
    e: Array
    tangent: Array
    normal: Array

    @cached_property
    def e_tilde(self) -> tuple[SplitVector, ...]:
        return _split_columns(self.tangent, self.alpha.shape[-1])

    @cached_property
    def xi(self) -> tuple[SplitVector, ...]:
        return _split_columns(self.normal, self.alpha.shape[-1])

    def point(self, i: int) -> "GraphFrameData":
        """The frames of point ``i`` of a block."""
        return GraphFrameData(self.lambdas[i], int(self.rank[i]), self.alpha[i],
                              self.beta[i], self.e[i], self.tangent[i],
                              self.normal[i])

    def block(self) -> "GraphFrameData":
        """The frames of one point as a block of one."""
        return GraphFrameData(self.lambdas[None], np.array([self.rank]),
                              self.alpha[None], self.beta[None], self.e[None],
                              self.tangent[None], self.normal[None])


def _split_columns(cols: Array, m: int) -> tuple[SplitVector, ...]:
    return tuple(SplitVector(cols[:m, i], cols[m:, i]) for i in range(cols.shape[-1]))


# ---------------------------------------------------------------------------
# Pullback metric and its exact derivatives
# ---------------------------------------------------------------------------

def pullback_metric_at(f: SmoothMap, p: ChartPoint) -> Array:
    """Components of the pullback of the target metric, ``d_i f^a d_j f^b h_ab``."""
    jet = f.jet(p)
    hjet = f.target.jet(ChartPoint(jet.value))
    return pullback_metric_jet(jet, hjet, order=0)[0]


def pullback_metric_jet(fjet: MapJet, hjet: MetricJet,
                        order: int = 2) -> tuple[Array, Array | None, Array | None]:
    """Pullback metric with exact first (and second) chart derivatives.

    Second derivatives consume the order-3 jet of the map and the order-2
    jet of the target metric; pass ``order=1`` when only first derivatives
    are needed.  Broadcasts over leading axes.
    """
    d1, d2, d3 = fjet.d1, fjet.d2, fjet.d3
    h, dh, d2h = hjet.g, hjet.dg, hjet.d2g

    P = np.einsum("...ai,...bj,...ab->...ij", d1, d1, h)
    if order < 1:
        return P, None, None

    # dP[k, i, j] = d_k P_ij
    dP = (np.einsum("...aki,...bj,...ab->...kij", d2, d1, h)
          + np.einsum("...ai,...bkj,...ab->...kij", d1, d2, h)
          + np.einsum("...ai,...bj,...cab,...ck->...kij", d1, d1, dh, d1))
    if order < 2:
        return P, dP, None

    if d3 is None:
        raise CapabilityError("second pullback derivatives need order-3 map jets")
    # d2P[l, k, i, j] = d_l d_k P_ij, by product and chain rule
    d2P = (np.einsum("...alki,...bj,...ab->...lkij", d3, d1, h)
           + np.einsum("...aki,...blj,...ab->...lkij", d2, d2, h)
           + np.einsum("...aki,...bj,...cab,...cl->...lkij", d2, d1, dh, d1)
           + np.einsum("...ali,...bkj,...ab->...lkij", d2, d2, h)
           + np.einsum("...ai,...blkj,...ab->...lkij", d1, d3, h)
           + np.einsum("...ai,...bkj,...cab,...cl->...lkij", d1, d2, dh, d1)
           + np.einsum("...ali,...bj,...cab,...ck->...lkij", d2, d1, dh, d1)
           + np.einsum("...ai,...blj,...cab,...ck->...lkij", d1, d2, dh, d1)
           + np.einsum("...ai,...bj,...dcab,...dl,...ck->...lkij",
                       d1, d1, d2h, d1, d1)
           + np.einsum("...ai,...bj,...cab,...clk->...lkij", d1, d1, dh, d2))
    return P, dP, d2P


def induced_jet(gm: MetricJet, pullback: tuple) -> MetricJet:
    """Jet of ``g_M + f*(g_N)`` from the domain jet and a pullback jet."""
    P, dP, d2P = pullback
    return MetricJet(gm.g + P,
                     gm.dg + dP if dP is not None else None,
                     gm.d2g + d2P if d2P is not None else None)


def induced_metric_jet(f: SmoothMap, p: ChartPoint, order: int = 2) -> MetricJet:
    """Jet of the graph-induced metric ``g_M + f*(g_N)`` at ``p``."""
    fjet = f.jet(p)
    hjet = f.target.jet(ChartPoint(fjet.value))
    return induced_jet(f.domain.jet(p), pullback_metric_jet(fjet, hjet, order=order))


def induced_manifold(f: SmoothMap) -> ChartManifold:
    """The domain manifold re-equipped with the graph-induced metric."""

    def jet(x: Array) -> MetricJet:
        return induced_metric_jet(f, ChartPoint(x), order=2)

    return ChartManifold(f.domain.dim, jet, f.domain.chart_box,
                         name=f"graph({f.name})", margin=f.domain.margin)


# ---------------------------------------------------------------------------
# Singular values and adapted frames (blocks of points)
# ---------------------------------------------------------------------------

def _target_frames(d1: Array, alpha: Array, lam: Array, rank: Array,
                   h: Array) -> Array:
    """The g_N-orthonormal target frames ``beta`` of a block of points.

    ``beta_{n-m+i} = df(alpha_i) / lambda_i`` for the positive singular
    values, stabilized against the vectors already built; then a
    g_N-orthonormal completion from the coordinate axes in the first
    ``n - r`` slots.
    """
    size, n, m = d1.shape
    beta = np.zeros((size, n, n))
    built = np.zeros((size, n, n))     # each point's vectors, in build order
    count = np.zeros(size, dtype=int)

    def orthogonalize(w: Array, rows: Array) -> Array:
        # stabilized Gram-Schmidt: two passes against each row's built vectors
        basis, cnt, gram = built[rows], count[rows], h[rows]
        for _ in range(2):
            for slot in range(int(cnt.max(initial=0))):
                b = basis[:, slot]
                coef = quadratic_form(b, gram, w)
                w = np.where((slot < cnt)[:, None], w - coef[:, None] * b, w)
        return w

    def append(w: Array, rows: Array) -> None:
        built[rows, count[rows]] = w
        count[rows] += 1

    for i in range(max(m - n, 0), m):
        rows = np.flatnonzero(i >= m - rank)
        if not rows.size:
            continue
        w = (d1[rows] @ alpha[rows, :, i, None])[..., 0] / lam[rows, i, None]
        w = orthogonalize(w, rows)
        norm = np.sqrt(quadratic_form(w, h[rows], w))
        collapsed = norm < 0.5
        if collapsed.any():
            raise FrameConstructionError(
                "collapsed image vector for singular value "
                f"{lam[rows[np.argmax(collapsed)], i]:.3e}")
        w = w / norm[:, None]
        beta[rows, :, n - m + i] = w
        append(w, rows)

    completed = np.zeros(size, dtype=int)
    for axis in np.eye(n):
        rows = np.flatnonzero(completed < n - rank)
        if not rows.size:
            break
        w = orthogonalize(np.tile(axis, (rows.size, 1)), rows)
        norm = np.sqrt(quadratic_form(w, h[rows], w))
        keep = norm > 1e-6
        rows, w = rows[keep], w[keep] / norm[keep, None]
        beta[rows, :, completed[rows]] = w
        completed[rows] += 1
        append(w, rows)
    if np.any(completed < n - rank):
        raise FrameConstructionError("could not complete target frame")
    return beta


def _singular_values(P: Array, d1: Array, gm: Array, h: Array,
                     rank_tol: float) -> tuple[Array, Array, Array, Array]:
    """``(lambdas, rank, alpha, beta)`` of a block from its pullback metric ``P``."""
    m, n = gm.shape[-1], h.shape[-1]
    mu, alpha = sym_eigen(P, gm)
    lam = np.sqrt(np.maximum(mu, 0.0))
    cut = rank_tol * (1.0 + lam[:, -1])
    rank = np.sum(lam > cut[:, None], axis=-1)
    if np.any(rank > min(m, n)):
        raise FrameConstructionError(
            f"rank {rank.max()} exceeds min(dim M, dim N) = {min(m, n)}")
    return lam, rank, alpha, _target_frames(d1, alpha, lam, rank, h)


def frame_block(P: Array, d1: Array, gm: Array, h: Array,
                rank_tol: float = RANK_TOL) -> GraphFrameData:
    """Adapted frames of the graph over a block of points.

    Builds, from the singular value decomposition, the orthonormal frames

    * ``e_i = alpha_i / sqrt(1 + lambda_i^2)``  (domain, induced metric),
    * ``e_tilde_i = (alpha_i (+) lambda_i beta_{n-m+i}) / sqrt(1+lambda_i^2)``
      (graph tangent space, product metric),
    * ``xi_i = beta_i`` or
      ``(-lambda_{i+m-n} alpha_{i+m-n} (+) beta_i) / sqrt(1+lambda_{i+m-n}^2)``
      (graph normal space, product metric).
    """
    lam, rank, alpha, beta = _singular_values(P, d1, gm, h, rank_tol)
    size, m, n = len(lam), gm.shape[-1], h.shape[-1]
    scale = 1.0 / np.sqrt(1.0 + lam ** 2)
    e = alpha * scale[:, None, :]

    i, k, paired = _pairs(m, n, rank)
    paired = paired[:, None, :]
    fiber = np.zeros((size, n, m))
    fiber[:, :, i] = np.where(paired, lam[:, None, i] * beta[:, :, k], 0.0)
    normal_m = np.zeros((size, m, n))
    normal_m[:, :, k] = np.where(
        paired, (-scale[:, i] * lam[:, i])[:, None, :] * alpha[:, :, i], 0.0)
    normal_n = beta.copy()
    normal_n[:, :, k] = np.where(paired, scale[:, None, i] * beta[:, :, k],
                                 beta[:, :, k])
    tangent = np.concatenate([e, fiber * scale[:, None, :]], axis=1)
    normal = np.concatenate([normal_m, normal_n], axis=1)
    return GraphFrameData(lam, rank, alpha, beta, e, tangent, normal)


def _pairs(m: int, n: int, rank: Array) -> tuple[Array, Array, Array]:
    """Tangent slots ``i`` that can pair with normal slots ``k = i + n - m``,
    and per point which pairs are in use: those of the ``rank`` positive
    singular values, ``i >= m - rank``."""
    i = np.arange(max(m - n, 0), m)
    return i, i + n - m, i >= (m - rank)[:, None]


def frame_residual_block(frames: GraphFrameData, gm: Array, h: Array,
                         g: Array) -> Array:
    """Worst residual of the split-form evaluation identities, per point.

    Checks, against direct block evaluation of the split-signature form:
    the diagonal values ``(1-lambda_i^2)/(1+lambda_i^2)`` on the tangent
    frame, the two-case values on the normal frame, the paired off-diagonal
    values ``-2 lambda/(1+lambda^2)``, and orthonormality of both frames in
    the product metric and of ``e`` in the induced metric ``g``.  A NaN
    anywhere gives a NaN residual.
    """
    m, n = gm.shape[-1], h.shape[-1]
    lam = frames.lambdas
    sdiag = (1.0 - lam ** 2) / (1.0 + lam ** 2)
    i, k, paired = _pairs(m, n, frames.rank)
    expected = np.zeros((len(lam), m + n, m + n))
    expected[:, np.arange(m), np.arange(m)] = sdiag
    expected[:, np.arange(m, m + n), np.arange(m, m + n)] = -1.0
    expected[:, m + k, m + k] = np.where(paired, -sdiag[:, i], -1.0)
    expected[:, i, m + k] = expected[:, m + k, i] = np.where(
        paired, -2.0 * lam[:, i] / (1.0 + lam[:, i] ** 2), 0.0)

    F = np.concatenate([frames.tangent, frames.normal], axis=-1)
    Ft, e = np.swapaxes(F, -1, -2), frames.e
    gaps = [Ft @ block_diag(gm, -h) @ F - expected,
            Ft @ block_diag(gm, h) @ F - np.eye(m + n),
            np.swapaxes(e, -1, -2) @ g @ e - np.eye(m)]
    return np.max([np.abs(gap).max(axis=(-2, -1)) for gap in gaps], axis=0)


def verified_frame_block(P: Array, d1: Array, gm: Array, h: Array, g: Array,
                         coords: Array, verify_tol: float = FRAME_VERIFY_TOL,
                         rank_tol: float = RANK_TOL) -> GraphFrameData:
    """:func:`frame_block`, raising :class:`FrameConstructionError` at the
    first point whose frame residual is not within ``verify_tol``."""
    frames = frame_block(P, d1, gm, h, rank_tol)
    res = frame_residual_block(frames, gm, h, g)
    bad = ~(res <= verify_tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise FrameConstructionError(
            f"frame verification residual {res[k]:.3e} exceeds {verify_tol:.1e}"
            f" at {coords[k]}")
    return frames


# ---------------------------------------------------------------------------
# Point-level frames: blocks of one
# ---------------------------------------------------------------------------

def _point_arrays(f: SmoothMap, p: ChartPoint):
    """Differential, metrics and pullback at ``p``, each as a block of one."""
    jets = graph_jets(f, p.coords[None])
    P = pullback_metric_jet(jets.f, jets.gn, order=0)[0]
    return jets.f.d1, jets.gm.g, jets.gn.g, P


def singular_values_at(f: SmoothMap, p: ChartPoint,
                       rank_tol: float = RANK_TOL) -> GraphFrameData:
    """Singular value decomposition data of the differential at ``p``.

    Only the ``lambdas``, ``rank``, ``alpha`` and ``beta`` fields are
    populated; :func:`adapted_frames_at` fills in the graph frames.
    """
    d1, gm, h, P = _point_arrays(f, p)
    lam, rank, alpha, beta = _singular_values(P, d1, gm, h, rank_tol)
    m, n = f.domain.dim, f.target.dim
    return GraphFrameData(lambdas=lam[0], rank=int(rank[0]), alpha=alpha[0],
                          beta=beta[0], e=np.zeros((m, 0)),
                          tangent=np.zeros((m + n, 0)), normal=np.zeros((m + n, 0)))


def adapted_frames_at(f: SmoothMap, p: ChartPoint,
                      verify_tol: float = FRAME_VERIFY_TOL,
                      rank_tol: float = RANK_TOL) -> GraphFrameData:
    """Complete adapted frames of the graph at ``p`` (see :func:`frame_block`).

    The evaluation identities of the split-signature form are verified on
    them; a residual above ``verify_tol``, or a NaN, raises
    :class:`FrameConstructionError`.
    """
    d1, gm, h, P = _point_arrays(f, p)
    return verified_frame_block(P, d1, gm, h, gm + P, p.coords[None],
                                verify_tol, rank_tol).point(0)


def frame_formula_residual(f: SmoothMap, p: ChartPoint,
                           frames: GraphFrameData) -> float:
    """Worst residual of the split-form evaluation identities on the frames
    of ``p`` (see :func:`frame_residual_block`)."""
    _, gm, h, P = _point_arrays(f, p)
    return float(frame_residual_block(frames.block(), gm, h, gm + P)[0])


# ---------------------------------------------------------------------------
# The deficit tensor s = g_M - f*(g_N) and its shifted variant
# ---------------------------------------------------------------------------

def deficit_trace(g: Array, s: Array) -> Array:
    """Trace of ``s`` with respect to ``g``; broadcasts over leading axes."""
    return np.einsum("...ij,...ji->...", metric_inverse(g), s)


def shift_deficit(s: Array, g: Array, c: float) -> Array:
    """The shifted tensor ``s - ((1-c)/(1+c)) g``.

    Its eigenvalues relative to the induced metric ``g`` are
    ``(1-lambda_i^2)/(1+lambda_i^2) - (1-c)/(1+c)``, so non-negativity
    encodes the bound ``lambda_max^2 <= c``.
    """
    if c <= 0.0:
        raise InvalidParameterError(f"shift parameter must be positive, got {c}")
    return s - (1.0 - c) / (1.0 + c) * g


def s_tensor_at(f: SmoothMap, p: ChartPoint) -> Array:
    """Chart components of the deficit tensor ``g_M - f*(g_N)``."""
    return f.domain.jet(p).g - pullback_metric_at(f, p)


def trace_s_at(f: SmoothMap, p: ChartPoint) -> float:
    """Trace of the deficit tensor with respect to the induced metric.

    Equals ``sum_i (1 - lambda_i^2) / (1 + lambda_i^2)`` over the singular
    values.
    """
    g = induced_metric_jet(f, p, order=0).g
    return float(deficit_trace(g, s_tensor_at(f, p)))


def shifted_s_at(f: SmoothMap, p: ChartPoint, c: float) -> Array:
    """The shifted tensor ``s - ((1-c)/(1+c)) g`` in chart components."""
    g = induced_metric_jet(f, p, order=0).g
    return shift_deficit(s_tensor_at(f, p), g, c)
