"""Maps between chart manifolds and the geometry of their graphs.

A :class:`SmoothMap` carries exact jets of the map up to third order.  From
these, the module computes the pullback metric and its derivatives, the
metric induced on the domain by the graph embedding, the singular values of
the differential, and the adapted orthonormal frames of the graph's tangent
and normal spaces.

Map jet layout: ``value[a]``, ``d1[a, i] = d_i f^a``, ``d2[a, i, j]``,
``d3[a, i, j, k]``, symmetric in all derivative indices.

The formulas work on blocks of points: array arguments carry a leading
block axis.
"""

from typing import Callable, NamedTuple

import numpy as np

from .chart_manifold import (
    ChartManifold,
    ChartPoint,
    MetricJet,
    block_innermost,
    cholesky_factor,
    lower_inverse,
)
from .errors import (
    CapabilityError,
    FrameConstructionError,
    InvalidParameterError,
    OutOfChartError,
)
from .product_space import block_diag

Array = np.ndarray

#: One of the ``min(m, n)`` largest singular values counts toward the rank
#: iff it exceeds this tolerance times ``(1 + lambda_max)``.
RANK_TOL = 1e-8

#: Tolerance for the internal verification of adapted frames.
FRAME_VERIFY_TOL = 1e-8


class MapJet(NamedTuple):
    value: Array
    d1: Array
    d2: Array
    d3: Array | None = None


class SmoothMap(NamedTuple):
    """A chart-to-chart map with an exact jet evaluator up to order three:
    ``jet_fn`` maps a coordinate block of shape ``(B, m)`` to one
    :class:`MapJet` of ``B`` stacked jets (a point is the block ``x[None]``)."""

    domain: ChartManifold
    target: ChartManifold
    jet_fn: Callable[[Array], MapJet]
    name: str = "map"

    def jet(self, coords: Array) -> MapJet:
        """Map jets at the rows of a coordinate block of shape ``(B, m)``,
        from one evaluator call on the rows before the first point outside
        the domain.  The :class:`OutOfChartError` names the first offending
        point in block order, as a point-by-point evaluation would.
        """
        coords = np.asarray(coords, dtype=float)
        inside = self.domain.contains(coords)
        n_inside = len(coords) if inside.all() else int(np.argmin(inside))
        jet = self.jet_fn(coords[:n_inside])
        outside = ~self.target.contains(jet.value)
        if outside.any():
            raise OutOfChartError(
                f"{self.name}: image {jet.value[np.argmax(outside)]} outside target chart")
        if n_inside < len(coords):
            raise OutOfChartError(
                f"{self.name}: point {coords[n_inside]} outside domain chart")
        return MapJet(np.ascontiguousarray(jet.value), block_innermost(jet.d1),
                      block_innermost(jet.d2),
                      None if jet.d3 is None else block_innermost(jet.d3))


class GraphJets(NamedTuple):
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


class GraphFrameData(NamedTuple):
    """Singular values and adapted frames of the graph.

    For one point: ``lambdas`` are ascending; ``alpha[:, i]`` / ``beta[:, i]``
    / ``e[:, i]`` are basis vectors in chart components; column ``i`` of
    ``tangent`` (of ``normal``) is the product-orthonormal tangent frame
    vector ``(e_i, df(e_i))`` (normal frame vector ``xi_i``) of the graph,
    its domain components stacked over its target components.  For a block
    of points every array carries a leading block axis and ``rank`` is an
    integer array.
    """

    lambdas: Array
    rank: int | Array
    alpha: Array
    beta: Array
    e: Array
    tangent: Array
    normal: Array

    def point(self, i: int) -> "GraphFrameData":
        """The frames of point ``i`` of a block."""
        return GraphFrameData(self.lambdas[i], int(self.rank[i]), self.alpha[i],
                              self.beta[i], self.e[i], self.tangent[i],
                              self.normal[i])


# ---------------------------------------------------------------------------
# Pullback metric and its exact derivatives
# ---------------------------------------------------------------------------

def pullback_metric_jet(fjet: MapJet, hjet: MetricJet) -> tuple[Array, Array]:
    """``(P, dP)``: the pullback metric and its exact first chart derivatives
    (second derivatives: :func:`pullback_metric_d2`).  Broadcasts over
    leading axes.
    """
    d1, d2 = fjet.d1, fjet.d2
    h, dh = hjet.g, hjet.dg

    P = np.einsum("...ai,...bj,...ab->...ij", d1, d1, h)
    # dP[k, i, j] = d_k P_ij; the last term contracts the chain rule's
    # dh_f[k, a, b] = d_k (h_ab o f) first: one 4-operand einsum would loop
    # over all six indices at once
    dh_f = np.einsum("...cab,...ck->...kab", dh, d1)
    dP = (np.einsum("...aki,...bj,...ab->...kij", d2, d1, h)
          + np.einsum("...ai,...bkj,...ab->...kij", d1, d2, h)
          + np.einsum("...ai,...bj,...kab->...kij", d1, d1, dh_f))
    return P, dP


def pullback_metric_d2(fjet: MapJet, hjet: MetricJet) -> Array:
    """``d2P[l, k, i, j] = d_l d_k P_ij``, from the order-3 jet of the map and
    the order-2 jet of the target metric."""
    d1, d2, d3 = fjet.d1, fjet.d2, fjet.d3
    h, dh, d2h = hjet.g, hjet.dg, hjet.d2g
    if d3 is None:
        raise CapabilityError("second pullback derivatives need order-3 map jets")
    # d_k (h_ab o f) and d_l d_k (h_ab o f) first, as for dP; the product
    # rule's terms pair up under i <-> j, but for the one with d_l d_k (h o f)
    dh_f = np.einsum("...cab,...ck->...kab", dh, d1)
    d2h_f = (np.einsum("...lcab,...ck->...lkab", np.einsum("...dcab,...dl->...lcab", d2h, d1), d1)
             + np.einsum("...cab,...clk->...lkab", dh, d2))
    right = (np.einsum("...ai,...blkj,...ab->...lkij", d1, d3, h)
             + np.einsum("...ali,...bkj,...ab->...lkij", d2, d2, h)
             + np.einsum("...ai,...bkj,...lab->...lkij", d1, d2, dh_f)
             + np.einsum("...ai,...blj,...kab->...lkij", d1, d2, dh_f))
    return right + np.swapaxes(right, -1, -2) + np.einsum("...ai,...bj,...lkab->...lkij",
                                                          d1, d1, d2h_f)


# ---------------------------------------------------------------------------
# Singular values and adapted frames (blocks of points)
# ---------------------------------------------------------------------------

def frame_block(d1: Array, gm: Array, h: Array) -> GraphFrameData:
    """Adapted frames of the graph over a block of points.

    With the Cholesky factors ``g_M = L_M L_M^T`` and ``h = L_N L_N^T``, one
    batched singular value decomposition of the whitened differential
    ``L_N^T d1 L_M^-T = U diag(lambda) V^T`` gives the singular values and
    the singular bases ``alpha = L_M^-T V`` (g_M-orthonormal) and
    ``beta = L_N^-T U`` (g_N-orthonormal), with ``df(alpha_i) =
    lambda_i beta_{n-m+i}``: ``lambdas`` ascending, a map with ``m > n``
    padded by ``m - n`` exact zeros, and both bases in the same order.  A
    zero singular value comes out at the roundoff of the differential
    (~1e-16 of its scale), and the columns of ``U`` and ``V`` that belong to
    it complete both bases.  From these, the orthonormal frames

    * ``e_i = alpha_i / sqrt(1 + lambda_i^2)``  (domain, induced metric),
    * ``(e_i, df(e_i)) = (alpha_i (+) lambda_i beta_{n-m+i}) / sqrt(1+lambda_i^2)``
      (graph tangent space, product metric),
    * ``xi_k = (-lambda_i alpha_i (+) beta_k) / sqrt(1+lambda_i^2)``,
      ``i = k + m - n``, or ``beta_k`` if ``k < n - m`` (graph normal space).

    Every pair takes these formulas, whatever the ``rank`` (an output only):
    a zero singular value gives ``(e_i, 0)`` and ``(0, beta_k)`` to roundoff.

    A decomposition that fails (a NaN in the differential or in a metric)
    raises :class:`FrameConstructionError`; a metric that is not positive
    definite raises :class:`DegenerateMetricError`.
    """
    size, n, m = d1.shape
    inv_m = lower_inverse(cholesky_factor(gm))
    l_n = cholesky_factor(h)
    # every matrix product in C order or its transpose (see matvec)
    whitened = np.swapaxes(l_n, -1, -2) @ np.ascontiguousarray(d1) \
        @ np.swapaxes(inv_m, -1, -2)
    try:
        u, sv, vt = np.linalg.svd(whitened)
    except np.linalg.LinAlgError as exc:
        raise FrameConstructionError(f"singular value decomposition failed: {exc}") from exc
    # LAPACK orders the singular values descending; the frames ascending
    lam = np.zeros((size, m))
    lam[:, m - sv.shape[-1]:] = sv[:, ::-1]
    alpha = np.swapaxes(np.ascontiguousarray(vt[:, ::-1]) @ inv_m, -1, -2)
    beta = np.swapaxes(lower_inverse(l_n), -1, -2) @ np.ascontiguousarray(u[..., ::-1])
    rank = np.sum(lam > (RANK_TOL * (1.0 + lam[:, -1]))[:, None], axis=-1)
    scale = 1.0 / np.sqrt(1.0 + lam ** 2)
    e = block_innermost(alpha * scale[:, None, :])

    i, k = _pairs(m, n)
    fiber = np.zeros((size, n, m))
    fiber[:, :, i] = lam[:, None, i] * beta[:, :, k]
    normal_m = np.zeros((size, m, n))
    normal_m[:, :, k] = (-scale[:, i] * lam[:, i])[:, None, :] * alpha[:, :, i]
    normal_n = beta.copy()
    normal_n[:, :, k] = scale[:, None, i] * beta[:, :, k]
    tangent = np.concatenate([e, fiber * scale[:, None, :]], axis=1)
    normal = np.concatenate([normal_m, normal_n], axis=1)
    return GraphFrameData(lam, rank, alpha, beta, e, tangent, normal)


def _pairs(m: int, n: int) -> tuple[Array, Array]:
    """Tangent slots ``i`` and the normal slots ``k = i + n - m`` they pair
    with: ``df(alpha_i) = lambda_i beta_k``."""
    i = np.arange(max(m - n, 0), m)
    return i, i + n - m


def frame_residual_block(frames: GraphFrameData, gm: Array, h: Array,
                         g: Array) -> Array:
    """Worst residual of the split-form evaluation identities, per point.

    Checks, against direct block evaluation of the split-signature form:
    the diagonal values ``(1-lambda_i^2)/(1+lambda_i^2)`` on the tangent
    frame, their negatives on the paired normal slots and ``-1`` on the
    others, the paired off-diagonal values ``-2 lambda/(1+lambda^2)`` (every
    pair, as in :func:`frame_block`), and orthonormality of both frames in
    the product metric and of ``e`` in the induced metric ``g``.  A NaN
    anywhere gives a NaN residual.
    """
    m, n = gm.shape[-1], h.shape[-1]
    lam = frames.lambdas
    sdiag = (1.0 - lam ** 2) / (1.0 + lam ** 2)
    i, k = _pairs(m, n)
    expected = np.zeros((len(lam), m + n, m + n))
    expected[:, np.arange(m), np.arange(m)] = sdiag
    expected[:, np.arange(m, m + n), np.arange(m, m + n)] = -1.0
    expected[:, m + k, m + k] = -sdiag[:, i]
    expected[:, i, m + k] = expected[:, m + k, i] = -2.0 * lam[:, i] / (1.0 + lam[:, i] ** 2)

    F = np.concatenate([frames.tangent, frames.normal], axis=-1)
    Ft, e = np.swapaxes(F, -1, -2), frames.e
    gaps = [Ft @ block_diag(gm, -h) @ F - expected,
            Ft @ block_diag(gm, h) @ F - np.eye(m + n),
            np.swapaxes(e, -1, -2) @ g @ e - np.eye(m)]
    return np.max([np.abs(gap).max(axis=(-2, -1)) for gap in gaps], axis=0)


def verified_frame_block(jets: GraphJets, g: Array) -> tuple[GraphFrameData, Array]:
    """:func:`frame_block` for the graph jets ``jets`` with induced metric
    ``g``, and its residual per point, raising :class:`FrameConstructionError`
    at the first point whose residual is not within :data:`FRAME_VERIFY_TOL`."""
    gm, h = jets.gm.g, jets.gn.g
    frames = frame_block(jets.f.d1, gm, h)
    res = frame_residual_block(frames, gm, h, g)
    bad = ~(res <= FRAME_VERIFY_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        raise FrameConstructionError(
            f"frame verification residual {res[k]:.3e} exceeds "
            f"{FRAME_VERIFY_TOL:.1e} at {jets.coords[k]}")
    return frames, res


# ---------------------------------------------------------------------------
# Point-level results: a point is a block of one
# ---------------------------------------------------------------------------

def _at(f: SmoothMap, p: ChartPoint) -> tuple[GraphJets, Array]:
    """The graph jets at ``p`` as a block of one, and their pullback metric."""
    jets = graph_jets(f, p.coords[None])
    return jets, pullback_metric_jet(jets.f, jets.gn)[0]


def pullback_metric_at(f: SmoothMap, p: ChartPoint) -> Array:
    """Components of the pullback of the target metric, ``d_i f^a d_j f^b h_ab``."""
    return _at(f, p)[1][0]


def induced_metric_jet(f: SmoothMap, p: ChartPoint) -> MetricJet:
    """Jet of the graph-induced metric ``g_M + f*(g_N)`` at ``p``, to second
    derivatives."""
    jets = graph_jets(f, p.coords[None])
    gm, (P, dP) = jets.gm, pullback_metric_jet(jets.f, jets.gn)
    jet = (gm.g + P, gm.dg + dP, gm.d2g + pullback_metric_d2(jets.f, jets.gn))
    return MetricJet(*(a[0] for a in jet))


def singular_values_at(f: SmoothMap, p: ChartPoint) -> GraphFrameData:
    """Singular values (ascending), rank and singular bases of the
    differential at ``p``, with the unverified frames of :func:`frame_block`."""
    jets = graph_jets(f, p.coords[None])
    return frame_block(jets.f.d1, jets.gm.g, jets.gn.g).point(0)


def adapted_frames_at(f: SmoothMap, p: ChartPoint) -> GraphFrameData:
    """Complete adapted frames of the graph at ``p`` (see :func:`frame_block`),
    verified by :func:`verified_frame_block`: a residual above
    :data:`FRAME_VERIFY_TOL`, or a NaN, raises :class:`FrameConstructionError`."""
    jets, P = _at(f, p)
    return verified_frame_block(jets, jets.gm.g + P)[0].point(0)


def frame_formula_residual(f: SmoothMap, p: ChartPoint,
                           frames: GraphFrameData) -> float:
    """Worst residual of the split-form evaluation identities on the frames
    of ``p`` (see :func:`frame_residual_block`)."""
    jets, P = _at(f, p)
    one = GraphFrameData(*(np.asarray(a)[None] for a in frames))
    return float(frame_residual_block(one, jets.gm.g, jets.gn.g, jets.gm.g + P)[0])


# ---------------------------------------------------------------------------
# The shifted deficit tensor
# ---------------------------------------------------------------------------

def shift_level(c: float) -> float:
    """``nu = (1-c)/(1+c)`` of a positive shift parameter ``c``; any other
    ``c`` raises :class:`InvalidParameterError`."""
    if not c > 0.0:
        raise InvalidParameterError(f"shift parameter must be positive, got {c}")
    return (1.0 - c) / (1.0 + c)


def shift_deficit(s: Array, g: Array, c: float) -> Array:
    """The shifted tensor ``s - ((1-c)/(1+c)) g``.

    Its eigenvalues relative to the induced metric ``g`` are
    ``(1-lambda_i^2)/(1+lambda_i^2) - (1-c)/(1+c)``, so non-negativity
    encodes the bound ``lambda_max^2 <= c``.
    """
    return s - shift_level(c) * g
