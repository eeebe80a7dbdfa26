"""Second fundamental form and mean curvature of the graph embedding.

The graph embedding sends a domain point x to (x, f(x)) in the product.
Its second fundamental tensor is computed in product-chart components,

    A(d_i, d_j)^C = d_i d_j F^C + Gamma^C_AB d_i F^A d_j F^B
                    - Gamma^k_ij(g) d_k F^C,

with the Christoffels of both factors (the product's Christoffels are
their block sum) and of the induced metric, then contracted with the
adapted orthonormal frame.  No normal projection is applied; for a correct
computation the tangential part vanishes identically, which the tests check
(the Gauss formula on every registry scenario).
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .chart_manifold import ChartPoint, Curvature, MetricJet, sectional_range
from .graph_map import (
    GraphFrameData,
    GraphJets,
    SmoothMap,
    graph_jets,
    pullback_metric_d2,
    pullback_metric_jet,
    shift_deficit,
    shift_level,
    verified_frame_block,
)
from .product_space import product_form
from .records import Frozen

Array = np.ndarray

#: Elements per block of the grid engine's largest arrays: the fourth-order
#: tensors of both metrics (``d2g``, ``dgamma``, ``riem``), ``m**4`` and
#: ``n**4`` per row.  :func:`block_bounds` divides it by that row size; the
#: rest of a block does not follow: a sweep block traces ~3.1 MB on holo-w2
#: (1024 rows), ~2.2 MB on identity-s3 (202) and ~2.7 MB on proj-s3-s1 (399),
#: where 202-row blocks of that 3->1 map trace ~1.4 MB.  Each einsum's inner
#: loop runs over a block's rows, so longer blocks are faster until the time
#: levels off.  Sweep time relative to 128-row blocks (2-vCPU host, medians
#: of 12 interleaved runs): holo-w2 60x60 0.80, 0.70, 0.64 and 0.61 at 256,
#: 512, 1024 and 2048 rows; identity-s3 12x12x12 0.85 at 202 rows and
#: 0.79-0.83 from 256 to 1728; proj-s3-s1 12x12x12 0.85-0.92 at 202 to 399
#: rows.  This budget gives 1024, 202 and 399 rows.
BLOCK_BUDGET = 2 ** 15


class ExtrinsicData(NamedTuple):
    """Second fundamental form data.

    ``a_frame[i, j]`` is ``A(e_i, e_j)`` in the adapted orthonormal frame and
    ``a_coord[i, j]`` is ``A`` on chart-basis slots, each a stacked product
    vector (domain components over target components), as is the mean
    curvature.  For a block of points every field carries a leading block
    axis; the frames and the factor metrics are the :class:`GraphBlock`'s.
    """

    a_frame: Array
    a_coord: Array
    mean_curvature: Array
    a_norm_sq: float | Array
    h_norm: float | Array

    def point(self, i: int) -> "ExtrinsicData":
        """The data of point ``i`` of a block."""
        return ExtrinsicData(
            a_frame=self.a_frame[i], a_coord=self.a_coord[i],
            mean_curvature=self.mean_curvature[i],
            a_norm_sq=float(self.a_norm_sq[i]), h_norm=float(self.h_norm[i]))


def second_fundamental_block(blk: "GraphBlock") -> ExtrinsicData:
    """Second fundamental form, mean curvature and scalar invariants over a
    block of points, from its jets, Christoffels and adapted frames.

    ``a_coord`` (A on chart-basis slots) is contracted with the frame ``e``
    by two matrix products, and each factor slice of ``|A|^2`` by one
    metric product, all on C-ordered operands; ``a_frame`` is C-ordered."""
    fjet, frames = blk.jets.f, blk.frames
    d1, d2 = fjet.d1, fjet.d2
    gamma_m, gamma_n, gamma_g = blk.curv_m.gamma, blk.curv_n.gamma, blk.gamma_g

    # A in chart-basis slots.  The domain components carry the connection
    # difference; the target components are the map Hessian corrected by the
    # induced connection.
    a_coord = np.concatenate([
        np.einsum("...kij->...ijk", gamma_m - gamma_g),
        np.einsum("...aij->...ija", d2)
        + np.einsum("...abc,...bi,...cj->...ija", gamma_n, d1, d1)
        - np.einsum("...kij,...ak->...ija", gamma_g, d1)], axis=-1)

    # A(e_p, e_q) = e_ip e_jq A_ij, one matrix product per contracted slot,
    # on C-ordered operands (see chart_manifold.matvec); a_frame comes out
    # in C order, so a point's slice has the layout of a single-point result
    e_t = np.swapaxes(np.ascontiguousarray(frames.e), -1, -2)
    size, m = e_t.shape[:2]
    a_c = np.ascontiguousarray(a_coord)
    half = (e_t @ a_c.reshape(size, m, -1)).reshape(a_c.shape)    # half[p, j, c]
    a_frame = e_t[:, None] @ half
    H = np.einsum("...iic->...c", a_frame)

    gm, gn = blk.jets.gm.g, blk.jets.gn.g
    # |A|^2 = sum_ij A_ij . g A_ij, one metric product per factor slice
    a_norm_sq = 0.0
    for a, g in ((a_frame[..., :m], gm), (a_frame[..., m:], gn)):
        flat = a.reshape(size, m * m, -1)
        a_norm_sq = a_norm_sq + np.sum((flat @ np.ascontiguousarray(g)) * flat, axis=(-2, -1))
    h_norm = np.sqrt(product_form(gm, gn, H, H))
    return ExtrinsicData(a_frame=a_frame, a_coord=a_coord, mean_curvature=H,
                         a_norm_sq=a_norm_sq, h_norm=h_norm)


# ---------------------------------------------------------------------------
# Grid engine: every pointwise quantity over blocks of points
# ---------------------------------------------------------------------------

class GraphBlock(Frozen):
    """Pointwise graph geometry over a block of domain points.

    ``jets`` holds each point's map jet and its two metric jets, evaluated
    once by :func:`graph_block`.  Every other field is computed from them on
    first use, for the whole block at a time, and kept.
    """

    def __init__(self, f: SmoothMap, jets: GraphJets):
        self.__dict__.update(f=f, jets=jets)     # the cached columns join them

    coords = property(lambda self: self.jets.coords)
    d1 = property(lambda self: self.jets.f.d1)
    gm = property(lambda self: self.jets.gm.g)
    gn = property(lambda self: self.jets.gn.g)

    @cached_property
    def pullback(self) -> tuple[Array, Array]:
        """Pullback metric ``f*(g_N)`` with its first chart derivatives."""
        return pullback_metric_jet(self.jets.f, self.jets.gn)

    @cached_property
    def induced(self) -> MetricJet:
        """First-order jet of the induced metric ``g = g_M + f*(g_N)``."""
        (P, dP), gm = self.pullback, self.jets.gm
        return MetricJet(gm.g + P, gm.dg + dP, None)

    @property
    def g(self) -> Array:
        return self.induced.g

    @cached_property
    def s(self) -> Array:
        """The deficit tensor ``g_M - f*(g_N)``."""
        return self.jets.gm.g - self.pullback[0]

    @cached_property
    def trace_s(self) -> Array:
        """Trace of the deficit tensor with respect to the induced metric."""
        return np.einsum("...ij,...ji->...", self.ginv, self.s)

    # One Curvature per metric jet: each inverse, connection and curvature
    # tensor of the block is computed at most once.

    @cached_property
    def curv_m(self) -> Curvature:
        return Curvature(self.jets.gm)

    @cached_property
    def curv_n(self) -> Curvature:
        return Curvature(self.jets.gn)

    @cached_property
    def curv_g(self) -> Curvature:
        """Curvature data of the first-order induced jet."""
        return Curvature(self.induced)

    @cached_property
    def curv_g2(self) -> Curvature:
        """:attr:`curv_g` completed by second derivatives (order-3 map jets)."""
        d2P = pullback_metric_d2(self.jets.f, self.jets.gn)
        return self.curv_g.completed(self.jets.gm.d2g + d2P)

    @property
    def ginv(self) -> Array:
        return self.curv_g.ginv

    @property
    def gamma_g(self) -> Array:
        return self.curv_g.gamma

    @property
    def dgamma_g(self) -> Array:
        return self.curv_g2.dgamma

    @property
    def riem_m(self) -> Array:
        return self.curv_m.riem

    @property
    def riem_n(self) -> Array:
        return self.curv_n.riem

    @property
    def ric_m(self) -> Array:
        return self.curv_m.ricci[0]

    @property
    def ric_g_op(self) -> Array:
        """Ricci operator of the induced metric."""
        return self.curv_g2.ricci[1]

    @cached_property
    def reaction_traces(self) -> Array:
        """The frame sums of :func:`graphgeo.identities.reaction_term_apply`
        as ``g^-1`` traces, ``(B, 4, m, m)``: ``g^ik A_ij . G A_kl`` for the
        domain and target parts of ``A`` (``G`` their metric), ``g^ik R_M[i, .,
        k, .]`` and ``df^T (H^ac R_N[a, ., c, .]) df``, ``H = df g^-1 df^T``."""
        ginv, d1, a, gm, gn = (np.ascontiguousarray(x) for x in
                               (self.ginv, self.d1, self.ext.a_coord, self.gm, self.gn))
        m, d1_t = ginv.shape[-1], np.swapaxes(d1, -1, -2)
        split = [np.einsum("...ijc,...ikc->...jk",
                           np.einsum("...pi,...ijc->...pjc", ginv, x @ G), x)
                 for x, G in ((a[..., :m], gm[:, None]), (a[..., m:], gn[:, None]))]
        r_n = np.einsum("...ac,...abcd->...bd", d1 @ ginv @ d1_t, self.riem_n)
        return np.stack([*split, np.einsum("...ik,...ijkl->...jl", ginv, self.riem_m),
                         d1_t @ r_n @ d1], axis=1)

    @cached_property
    def sec_range_m(self) -> Array:
        """``(B, 2)``: the domain's least and greatest sectional curvature,
        the :func:`sectional_range` of ``R_M`` on the frame ``alpha``."""
        return sectional_range(self.riem_m, self.frames.alpha)

    @cached_property
    def sec_range_n(self) -> Array:
        """``(B, 2)``: the same for the target's planes in the image of df, on
        the last ``rank`` columns of ``beta``; NaN where the rank is below 2."""
        beta, rank = self.frames.beta, self.frames.rank
        out = np.full((len(rank), 2), np.nan)
        for r in set(rank[rank >= 2].tolist()):     # np.unique imports numpy.ma, ~10 ms
            rows = rank == r
            out[rows] = sectional_range(self.riem_n[rows], beta[rows, :, -r:])
        return out

    @cached_property
    def verified_frames(self) -> tuple[GraphFrameData, Array]:
        """Adapted frames and their residual (see :func:`verified_frame_block`)."""
        return verified_frame_block(self.jets, self.pullback[0])

    frames = property(lambda self: self.verified_frames[0])
    frame_residual = property(lambda self: self.verified_frames[1])

    @cached_property
    def ext(self) -> ExtrinsicData:
        return second_fundamental_block(self)

    def shifted_jet(self, c: float) -> tuple[Array, Array]:
        """The shifted tensor ``s - nu g`` (:func:`shift_deficit`), with ``nu =
        (1-c)/(1+c)``, and its exact chart derivatives ``(1-nu) dg_M - (1+nu) dP``."""
        nu = shift_level(c)
        return (shift_deficit(self.s, self.g, c),
                (1.0 - nu) * self.jets.gm.dg - (1.0 + nu) * self.pullback[1])


def graph_block(f: SmoothMap, coords: Array) -> GraphBlock:
    """The graph geometry at the rows of ``coords`` (shape ``(B, m)``)."""
    return GraphBlock(f, graph_jets(f, coords))


def block_bounds(count: int, m: int, n: int) -> list[int]:
    """The grid engine's partition of ``count`` rows for a map from an
    ``m``- to an ``n``-dimensional manifold: block ``k`` holds rows
    ``bounds[k]:bounds[k + 1]``.

    A block has ``BLOCK_BUDGET // (m**4 + n**4)`` rows, at least 2, except
    the last, which takes any remainder.  A one-row remainder joins the
    block before it: einsum's inner loop then runs over a component axis,
    which moves general (non-diagonal) metrics' curvatures in the last bits.
    """
    rows = max(BLOCK_BUDGET // (m ** 4 + n ** 4), 2)
    bounds = list(range(0, count, rows)) + [count]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def graph_blocks(f: SmoothMap, coords: Array):
    """Yield ``(rows, block)``: the :class:`GraphBlock` of each block of
    :func:`block_bounds` over the rows of ``coords``, in order, with the
    slice of ``coords`` it covers."""
    bounds = block_bounds(len(coords), f.domain.dim, f.target.dim)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        rows = slice(start, stop)
        yield rows, graph_block(f, coords[rows])


# ---------------------------------------------------------------------------
# Point-level results: blocks of one
# ---------------------------------------------------------------------------

def trace_s_at(f: SmoothMap, p: ChartPoint) -> float:
    """Trace of the deficit tensor with respect to the induced metric.

    Equals ``sum_i (1 - lambda_i^2) / (1 + lambda_i^2)`` over the singular
    values.
    """
    return float(graph_block(f, p.coords[None]).trace_s[0])


def second_fundamental_at(f: SmoothMap, p: ChartPoint) -> ExtrinsicData:
    """Second fundamental form, mean curvature and scalar invariants at ``p``."""
    return graph_block(f, p.coords[None]).ext.point(0)
