"""Riemannian geometry on a single coordinate chart from exact metric jets.

Index conventions used throughout the package:

* metric jets:      ``g[i, j]``, ``dg[k, i, j] = d_k g_ij``,
                    ``d2g[l, k, i, j] = d_l d_k g_ij``; jet evaluators and
                    the functions below add a leading block axis ``b``:
                    ``g[b, i, j]`` belongs to the point ``coords[b]``
* Christoffels:     ``gamma[k, i, j] = Gamma^k_ij``
* curvature:        ``riem[i, j, k, l]`` is the fully covariant tensor,
                    normalized so that on a round sphere of radius r
                    ``riem = (1/r^2) (g_ik g_jl - g_il g_jk)``; with this sign
                    ``sec(u, v) = R(u,v,u,v) / |u ^ v|^2`` and the Ricci form
                    ``Ric[j, l] = g^{ik} riem[i, j, k, l]`` is positive on
                    spheres.
* memory layout:    block arrays are stored with the block axis innermost
                    (stride one element) and the component axes in C order
                    (:func:`block_innermost`), so that each einsum's inner
                    loop runs over the block's rows.  :meth:`ChartManifold.jet`,
                    ``SmoothMap.jet``, :func:`metric_inverse`, the plane
                    samples and the adapted frames ``e`` lay out their
                    results so, and einsum outputs inherit the layout.
                    :class:`Curvature` lays out any jet it is given, so the
                    curvature formulas give the same bits for any input
                    layout.  :func:`matvec` and :func:`quadratic_form` copy
                    their matrix to C order: matmul rounds differently on
                    matrices without a unit stride.

All derivative data is exact (supplied by the chart's jet evaluator); finite
differences appear only in tests as an independent cross-check.
"""

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateMetricError, DegeneratePlaneError, OutOfChartError
from .records import Frozen

Array = np.ndarray

#: Relative area tolerance below which two vectors are considered coplanar.
PLANE_TOL = 1e-12

#: Fraction of the box width kept as margin on each side when sampling.
DEFAULT_MARGIN = 0.1


class ChartPoint(Frozen):
    """A point given by its chart coordinates (a copy, as floats)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        super().__init__(np.array(coords, dtype=float, copy=True))

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


class MetricJet(NamedTuple):
    """Metric components with exact first and second chart derivatives."""

    g: Array
    dg: Array
    d2g: Array


class _ChartFields(NamedTuple):
    dim: int
    metric_jet: Callable[[Array], MetricJet]
    chart_box: Array
    name: str = "chart"


class ChartManifold(_ChartFields):
    """A Riemannian manifold seen through one coordinate chart.

    ``metric_jet`` maps a coordinate block of shape ``(B, dim)`` to one
    :class:`MetricJet` of ``B`` stacked jets (a point is the block
    ``x[None]``) and must be smooth on ``chart_box`` (an array of shape
    ``(dim, 2)`` with the low/high bounds per axis; stored as a read-only
    copy).
    """

    __slots__ = ()

    def __new__(cls, dim, metric_jet, chart_box, name="chart"):
        box = np.array(chart_box, dtype=float)
        if box.shape != (dim, 2):
            raise ValueError(f"chart_box must have shape ({dim}, 2)")
        box.flags.writeable = False
        return super().__new__(cls, dim, metric_jet, box, name)

    @classmethod
    def _make(cls, fields) -> "ChartManifold":
        """The chart of ``fields``, validated as by the constructor (and so
        by ``_replace``)."""
        return cls(*fields)

    def point(self, coords) -> ChartPoint:
        p = ChartPoint(np.asarray(coords, dtype=float))
        if p.dim != self.dim:
            raise ValueError(f"{self.name}: point has dimension {p.dim}, expected {self.dim}")
        return p

    def contains(self, coords: Array) -> Array:
        """Whether points lie strictly inside the chart box: a bool array over
        the leading axes of ``coords`` (the chart axis last)."""
        coords = np.asarray(coords, dtype=float)
        lo, hi = self.chart_box[:, 0], self.chart_box[:, 1]
        return np.all((coords > lo) & (coords < hi), axis=-1)

    def sample_box(self) -> Array:
        """The chart box shrunk by :data:`DEFAULT_MARGIN` of its width on each side."""
        lo, hi = self.chart_box[:, 0], self.chart_box[:, 1]
        w = (hi - lo) * DEFAULT_MARGIN
        return np.stack([lo + w, hi - w], axis=1)

    def jet(self, coords: Array) -> MetricJet:
        """Metric jets at the rows of a coordinate block of shape ``(B, dim)``,
        from one evaluator call.  A point outside the chart box raises
        :class:`OutOfChartError` (its first such row)."""
        coords = np.asarray(coords, dtype=float)
        outside = ~self.contains(coords)
        if outside.any():
            raise OutOfChartError(
                f"{self.name}: point {coords[np.argmax(outside)]} outside chart box")
        return _laid_out(self.metric_jet(coords))


def block_innermost(a: Array) -> Array:
    """``a`` stored with its leading (block) axis innermost in memory and its
    other axes in C order; same shape and values, no copy if already so."""
    last = a.ndim - 1
    laid_out = np.ascontiguousarray(a.transpose(*range(1, a.ndim), 0))
    return laid_out.transpose(last, *range(last))


def _laid_out(jet: MetricJet) -> MetricJet:
    return MetricJet(*(None if a is None else block_innermost(a) for a in jet))


def powers(a: Array, k: int) -> Array:
    """``a ** k`` of a 1-d array, element by element through Python floats
    (libm ``pow``): numpy's vectorized power differs from it in the last bit
    on ~5% of elements."""
    return np.array([v ** k for v in a.tolist()], dtype=float)


# ---------------------------------------------------------------------------
# Built-in charts
# ---------------------------------------------------------------------------

def sphere_chart(dim: int, radius: float = 1.0) -> ChartManifold:
    """Round sphere of the given radius in stereographic coordinates, on the
    chart box ``[-20, 20]^dim``.

    The metric is conformally flat, ``g_ij = u(x) delta_ij`` with
    ``u = 4 r^4 / (r^2 + |x|^2)^2``, which has closed-form derivatives of
    every order.
    """
    r2 = float(radius) ** 2
    eye = np.eye(dim)

    def jet(x: Array) -> MetricJet:
        # |x|^2 per row as the 1x1 matrix product x . x, which rounds like x @ x
        q = r2 + (x[:, None, :] @ x[:, :, None])[:, 0, 0]
        q3, q4 = powers(q, 3), powers(q, 4)
        u = 4.0 * r2 * r2 / (q * q)
        du = -16.0 * r2 * r2 * x / q3[:, None]                  # du[b, k]
        d2u = (-16.0 * r2 * r2 / q3)[:, None, None] * eye \
            + (96.0 * r2 * r2 / q4)[:, None, None] \
            * (x[:, :, None] * x[:, None, :])                    # d2u[b, l, k]
        g = u[:, None, None] * eye
        dg = du[:, :, None, None] * eye
        d2g = d2u[:, :, :, None, None] * eye
        return MetricJet(g, dg, d2g)

    return ChartManifold(dim, jet, [[-20.0, 20.0]] * dim, f"S{dim}(r={radius:g})")


def constant_metric_chart(dim: int, matrix=None, name: str = "flat") -> ChartManifold:
    """Chart with a constant (flat) metric on the chart box ``[-50, 50]^dim``:
    tori, circles, Euclidean space."""
    g0 = np.eye(dim) if matrix is None else np.array(matrix, dtype=float)
    if g0.shape != (dim, dim):
        raise ValueError("metric matrix has wrong shape")

    def jet(x: Array) -> MetricJet:
        b = len(x)
        return MetricJet(np.repeat(g0[None], b, axis=0), np.zeros((b, dim, dim, dim)),
                         np.zeros((b, dim, dim, dim, dim)))

    return ChartManifold(dim, jet, [[-50.0, 50.0]] * dim, name)


# ---------------------------------------------------------------------------
# Connection and curvature from a jet
# ---------------------------------------------------------------------------
#
# Every function below broadcasts over leading axes: a jet whose arrays
# carry a leading block axis gives one result per point of the block.  The
# formulas take a jet or its :class:`Curvature`; given the latter, they read
# the inverse metric and the lower-order quantities from it, so that each is
# computed once per jet.

def metric_inverse(g: Array) -> Array:
    try:
        ginv = block_innermost(np.linalg.inv(g))
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"singular metric: {exc}") from exc
    if not np.all(np.isfinite(ginv)):
        raise DegenerateMetricError("metric inverse is not finite")
    return ginv


def _christoffel_numerator(dg: Array) -> Array:
    # T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    return dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)


class Curvature:
    """Connection and curvature of one metric jet: ``ginv``, ``gamma``,
    ``dgamma``, ``riem`` and ``ricci`` are each computed by the formula
    functions below on first use, and kept."""

    def __init__(self, jet: MetricJet):
        self.jet = _laid_out(jet)

    @cached_property
    def ginv(self) -> Array:
        return metric_inverse(self.jet.g)

    @cached_property
    def gamma(self) -> Array:
        return christoffel_from_jet(self)

    @cached_property
    def dgamma(self) -> Array:
        return christoffel_derivative_from_jet(self)

    @cached_property
    def riem(self) -> Array:
        return riemann_from_jet(self)

    @cached_property
    def ricci(self) -> tuple[Array, Array]:
        return ricci_from_jet(self)

    def completed(self, d2g: Array) -> "Curvature":
        """This jet's data with second derivatives ``d2g``; shares ginv and gamma."""
        curv = Curvature(MetricJet(self.jet.g, self.jet.dg, d2g))
        curv.ginv, curv.gamma = self.ginv, self.gamma
        return curv


def _curvature(jet: MetricJet | Curvature) -> Curvature:
    return jet if isinstance(jet, Curvature) else Curvature(jet)


def christoffel_from_jet(jet: MetricJet | Curvature) -> Array:
    """Levi-Civita symbols ``Gamma^k_ij`` of the metric jet."""
    curv = _curvature(jet)
    T = _christoffel_numerator(curv.jet.dg)
    return 0.5 * np.einsum("...kl,...ijl->...kij", curv.ginv, T)


def christoffel_derivative_from_jet(jet: MetricJet | Curvature) -> Array:
    """Exact partials ``dgamma[a, k, i, j] = d_a Gamma^k_ij``."""
    curv = _curvature(jet)
    ginv, dg, d2g = curv.ginv, curv.jet.dg, curv.jet.d2g
    T = _christoffel_numerator(dg)
    # dT[a, i, j, l] = d_a T[i, j, l]
    dT = d2g + np.swapaxes(d2g, -3, -2) - np.moveaxis(d2g, -3, -1)
    # dginv[k, m, s] = d_k g^{ms}
    dginv = -np.einsum("...ma,...kab,...bs->...kms", ginv, dg, ginv)
    return 0.5 * (np.einsum("...akl,...ijl->...akij", dginv, T)
                  + np.einsum("...kl,...aijl->...akij", ginv, dT))


def riemann_from_jet(jet: MetricJet | Curvature) -> Array:
    """Fully covariant curvature tensor ``riem[i, j, k, l]``.

    Sign convention: ``riem[i,j,k,l] = g_im (d_k Gamma^m_lj - d_l Gamma^m_kj
    + Gamma^m_ks Gamma^s_lj - Gamma^m_ls Gamma^s_kj)``, which gives
    ``R(u,v,u,v) > 0`` on round spheres.
    """
    curv = _curvature(jet)
    gamma, dgamma = curv.gamma, curv.dgamma
    curv_op = (np.einsum("...kmlj->...mjkl", dgamma)
               - np.einsum("...lmkj->...mjkl", dgamma)
               + np.einsum("...mks,...slj->...mjkl", gamma, gamma)
               - np.einsum("...mls,...skj->...mjkl", gamma, gamma))
    return np.einsum("...im,...mjkl->...ijkl", curv.jet.g, curv_op)


def ricci_from_jet(jet: MetricJet | Curvature) -> tuple[Array, Array]:
    """Ricci data ``(bilinear form, operator)`` of the metric jet.

    The bilinear form is ``Ric[j, l] = g^{ik} riem[i, j, k, l]`` (positive on
    spheres); the operator raises its first index with the metric, so that
    ``Ric(v, w) = g(ric_op v, w)``.
    """
    curv = _curvature(jet)
    ginv = curv.ginv
    ric = np.einsum("...ik,...ijkl->...jl", ginv, curv.riem)
    ric_op = ginv @ ric
    return ric, ric_op


# Point-level curvature: a point is a block of one.

def christoffel_at(man: ChartManifold, p: ChartPoint) -> Array:
    return christoffel_from_jet(man.jet(p.coords[None]))[0]


def riemann_at(man: ChartManifold, p: ChartPoint) -> Array:
    return riemann_from_jet(man.jet(p.coords[None]))[0]


def ricci_at(man: ChartManifold, p: ChartPoint) -> tuple[Array, Array]:
    ric, ric_op = ricci_from_jet(man.jet(p.coords[None]))
    return ric[0], ric_op[0]


def matvec(a: Array, x: Array) -> Array:
    """``a @ x`` per vector of the stack ``x`` (``x @ a.T`` rounds differently).

    ``a`` is copied to C order first: matmul takes a different code path, and
    rounds differently, for matrices without a unit stride."""
    return (np.ascontiguousarray(a) @ x[..., None])[..., 0]


def quadratic_form(u: Array, g: Array, v: Array) -> Array:
    """``u . g . v`` over leading axes, evaluated as the matrix product
    ``u @ g @ v`` with ``g`` in C order (see :func:`matvec`)."""
    return ((u[..., None, :] @ np.ascontiguousarray(g)) @ v[..., :, None])[..., 0, 0]


def curvature_form(riem: Array, u: Array, v: Array, w: Array, z: Array) -> Array:
    """``R(u, v, w, z)`` of a covariant curvature tensor; broadcasts over leading axes."""
    return np.einsum("...ijkl,...i,...j,...k,...l->...", riem, u, v, w, z)


def sectional_from_data(riem: Array, g: Array, u: Array,
                        v: Array) -> tuple[Array, Array]:
    """Sectional curvatures of the planes span(u, v) from precomputed tensors.

    Broadcasts over leading axes.  Returns ``(sec, spans)``: ``spans`` is
    False for the pairs that span no plane (relative area below
    :data:`PLANE_TOL`), whose ``sec`` entry is meaningless.  A NaN curvature
    spans a plane, so that it reaches every reduction over the planes.
    """
    g = np.ascontiguousarray(g)
    ug = u[..., None, :] @ g                # u . g, shared by uu and uv
    uu, uv = ((ug @ w[..., :, None])[..., 0, 0] for w in (u, v))
    vv = quadratic_form(v, g, v)
    area2 = uu * vv - uv * uv
    spans = ~((area2 < PLANE_TOL * uu * vv) | (area2 <= 0.0))
    return curvature_form(riem, u, v, u, v) / np.where(spans, area2, 1.0), spans


def sectional_curvature(man: ChartManifold, p: ChartPoint,
                        u: Array, v: Array) -> float:
    """Sectional curvature of span(u, v) at ``p``; vectors that span no
    plane raise :class:`DegeneratePlaneError`."""
    jet = man.jet(p.coords[None])
    sec, spans = sectional_from_data(riemann_from_jet(jet)[0], jet.g[0],
                                     np.asarray(u, float), np.asarray(v, float))
    if not spans:
        raise DegeneratePlaneError("vectors span no plane")
    return float(sec)


def sectional_range(riem: Array, basis: Array) -> Array:
    """``(..., 2)``: the least and greatest eigenvalue (``np.linalg.eigvalsh``)
    of ``R(b_i, b_j, b_k, b_l)`` over the pairs ``i < j``, ``k < l`` of a
    g-orthonormal ``basis`` ``(..., d, r)``.  For r = 2 or 3 every 2-vector is
    a plane: these are the span's sectional-curvature range.  For r >= 4 they
    enclose it.  Fewer than 2 vectors, or a non-finite tensor, give NaN ends;
    a zero end is ``0.0``, not ``-0.0``.  Broadcasts over leading axes."""
    *lead, d, r = basis.shape
    if r < 2:
        return np.full((*lead, 2), np.nan)
    i, j = np.triu_indices(r, 1)
    # U[pq, a] = b_p,i(a) b_q,j(a), so that U^T R U holds R(b_i, b_j, b_k, b_l)
    U = (basis[..., :, None, i] * basis[..., None, :, j]).reshape(*lead, d * d, -1)
    flat = np.ascontiguousarray(riem).reshape(*riem.shape[:-4], d * d, d * d)
    op = np.swapaxes(U, -1, -2) @ flat @ U
    finite = np.isfinite(op).all(axis=(-2, -1))
    vals = np.linalg.eigvalsh(np.where(finite[..., None, None], op, 0.0))
    return np.where(finite[..., None], vals[..., [0, -1]], np.nan) + 0.0


# ---------------------------------------------------------------------------
# Generalized symmetric eigenproblem
# ---------------------------------------------------------------------------

def cholesky_factor(g: Array) -> Array:
    """Lower Cholesky factors ``L`` of ``g = L L^T``, per matrix of a stack;
    a metric that is not positive definite raises
    :class:`DegenerateMetricError` (a NaN metric gives a NaN factor)."""
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"metric not positive definite: {exc}") from exc


def lower_inverse(L: Array) -> Array:
    """Inverses of the lower-triangular matrices of a stack, in C order, by
    forward substitution one column at a time: each step is one elementwise
    operation over the whole stack, where ``np.linalg.inv`` spends ~1 us on
    every 3x3 matrix."""
    k = L.shape[-1]
    inv = np.zeros(L.shape)
    for j in range(k):
        inv[..., j, j] = 1.0 / L[..., j, j]
        for i in range(j + 1, k):
            acc = L[..., i, j] * inv[..., j, j]
            for s in range(j + 1, i):
                acc = acc + L[..., i, s] * inv[..., s, j]
            inv[..., i, j] = -acc / L[..., i, i]
    return inv


def sym_eigen(phi: Array, g: Array) -> tuple[Array, Array]:
    """Eigenvalues and g-orthonormal eigenbasis of ``phi`` relative to ``g``.

    Solves ``phi v = lam g v`` for symmetric ``phi`` and positive definite
    ``g``: with ``g = L L^T`` (:func:`cholesky_factor`), LAPACK's symmetric
    eigensolver (``np.linalg.eigh``, which reads the lower triangle) runs on
    the whitened ``L^-1 phi L^-T``, and ``v = L^-T w``.  Broadcasts over
    leading axes; each matrix of a stack gets the bits it gets alone, since
    every operand of a matrix product is in C order.

    Returns ``(vals, vecs)`` with ``vals`` ascending and ``vecs[..., :, i]``
    the eigenvector for ``vals[..., i]``; the basis satisfies
    ``v_i^T g v_j = delta_ij``.
    """
    inv = lower_inverse(cholesky_factor(np.asarray(g, dtype=float)))
    inv_t = np.swapaxes(inv, -1, -2)
    vals, w = np.linalg.eigh(inv @ np.ascontiguousarray(phi, dtype=float) @ inv_t)
    return vals, inv_t @ w
