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

All derivative data is exact (supplied by the chart's jet evaluator); finite
differences appear only in tests as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DegenerateMetricError, DegeneratePlaneError, OutOfChartError

Array = np.ndarray

#: Relative area tolerance below which two vectors are considered coplanar.
PLANE_TOL = 1e-12

#: Fraction of the box width kept as margin on each side when sampling.
DEFAULT_MARGIN = 0.1


@dataclass(frozen=True)
class ChartPoint:
    """A point given by its chart coordinates."""

    coords: Array

    def __post_init__(self):
        object.__setattr__(
            self, "coords", np.array(self.coords, dtype=float, copy=True)
        )

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class MetricJet:
    """Metric components with exact first and second chart derivatives."""

    g: Array
    dg: Array
    d2g: Array


@dataclass(frozen=True)
class ChartManifold:
    """A Riemannian manifold seen through one coordinate chart.

    ``metric_jet`` maps a coordinate block of shape ``(B, dim)`` to one
    :class:`MetricJet` of ``B`` stacked jets (a point is the block
    ``x[None]``) and must be smooth on ``chart_box`` (an array of shape
    ``(dim, 2)`` with the low/high bounds per axis).
    """

    dim: int
    metric_jet: Callable[[Array], MetricJet]
    chart_box: Array
    name: str = "chart"
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        box = np.array(self.chart_box, dtype=float)
        if box.shape != (self.dim, 2):
            raise ValueError(f"chart_box must have shape ({self.dim}, 2)")
        object.__setattr__(self, "chart_box", box)

    def point(self, coords) -> ChartPoint:
        p = ChartPoint(np.asarray(coords, dtype=float))
        if p.dim != self.dim:
            raise ValueError(f"{self.name}: point has dimension {p.dim}, expected {self.dim}")
        return p

    def contains(self, coords: Array, with_margin: bool = False) -> Array:
        """Whether points lie strictly inside the chart box: a bool array over
        the leading axes of ``coords`` (the chart axis last)."""
        coords = np.asarray(coords, dtype=float)
        lo, hi = self.chart_box[:, 0], self.chart_box[:, 1]
        if with_margin:
            w = (hi - lo) * self.margin
            lo, hi = lo + w, hi - w
        return np.all((coords > lo) & (coords < hi), axis=-1)

    def sample_box(self) -> Array:
        """The chart box shrunk by the boundary margin."""
        lo, hi = self.chart_box[:, 0], self.chart_box[:, 1]
        w = (hi - lo) * self.margin
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
        return self.metric_jet(coords)


def powers(a: Array, k: int) -> Array:
    """``a ** k`` of a 1-d array, element by element through Python floats
    (libm ``pow``): numpy's vectorized power differs from it in the last bit
    on ~5% of elements."""
    return np.array([v ** k for v in a.tolist()], dtype=float)


# ---------------------------------------------------------------------------
# Built-in charts
# ---------------------------------------------------------------------------

def sphere_chart(dim: int, radius: float = 1.0, box_halfwidth: float = 20.0,
                 name: str | None = None) -> ChartManifold:
    """Round sphere of the given radius in stereographic coordinates.

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

    box = np.array([[-box_halfwidth, box_halfwidth]] * dim)
    return ChartManifold(dim, jet, box, name or f"S{dim}(r={radius:g})")


def constant_metric_chart(dim: int, matrix=None, box_halfwidth: float = 50.0,
                          name: str = "flat") -> ChartManifold:
    """Chart with a constant (flat) metric: tori, circles, Euclidean space."""
    g0 = np.eye(dim) if matrix is None else np.array(matrix, dtype=float)
    if g0.shape != (dim, dim):
        raise ValueError("metric matrix has wrong shape")

    def jet(x: Array) -> MetricJet:
        b = len(x)
        return MetricJet(np.repeat(g0[None], b, axis=0), np.zeros((b, dim, dim, dim)),
                         np.zeros((b, dim, dim, dim, dim)))

    box = np.array([[-box_halfwidth, box_halfwidth]] * dim)
    return ChartManifold(dim, jet, box, name)


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
        ginv = np.linalg.inv(g)
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
        self.jet = jet

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


def quadratic_form(u: Array, g: Array, v: Array) -> Array:
    """``u . g . v`` over leading axes, evaluated as the matrix product ``u @ g @ v``."""
    return ((u[..., None, :] @ g) @ v[..., :, None])[..., 0, 0]


def sectional_from_data(riem: Array, g: Array, u: Array,
                        v: Array) -> tuple[Array, Array]:
    """Sectional curvatures of the planes span(u, v) from precomputed tensors.

    Broadcasts over leading axes.  Returns ``(sec, spans)``: ``spans`` is
    False for the pairs that span no plane (relative area below
    :data:`PLANE_TOL`), whose ``sec`` entry is meaningless.  A NaN curvature
    spans a plane, so that it reaches every reduction over the planes.
    """
    uu = quadratic_form(u, g, u)
    vv = quadratic_form(v, g, v)
    uv = quadratic_form(u, g, v)
    area2 = uu * vv - uv * uv
    spans = ~((area2 < PLANE_TOL * uu * vv) | (area2 <= 0.0))
    num = np.einsum("...ijkl,...i,...j,...k,...l->...", riem, u, v, u, v)
    return num / np.where(spans, area2, 1.0), spans


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


# ---------------------------------------------------------------------------
# Generalized symmetric eigenproblem
# ---------------------------------------------------------------------------

def sym_eigen(phi: Array, g: Array, tol: float = 1e-12,
              max_sweeps: int = 100) -> tuple[Array, Array]:
    """Eigenvalues and g-orthonormal eigenbasis of ``phi`` relative to ``g``.

    Solves ``phi v = lam g v`` for symmetric ``phi`` and positive definite
    ``g`` by congruence reduction (``g = L L^T``) followed by cyclic Jacobi
    iteration on ``L^-1 phi L^-T``.  Broadcasts over leading axes: each
    ``(p, q)`` rotation is applied at once to every matrix of the stack that
    has not converged and whose ``(p, q)`` entry is above the threshold.

    Returns ``(vals, vecs)`` with ``vals`` ascending and ``vecs[..., :, i]``
    the eigenvector for ``vals[..., i]``; the basis satisfies
    ``v_i^T g v_j = delta_ij``.
    """
    phi = np.asarray(phi, dtype=float)
    g = np.asarray(g, dtype=float)
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(
            f"metric not positive definite: {exc}") from exc
    B = np.linalg.solve(L, np.swapaxes(
        np.linalg.solve(L, np.swapaxes(phi, -1, -2)), -1, -2))
    B = 0.5 * (B + np.swapaxes(B, -1, -2))
    shape, k = B.shape[:-2], B.shape[-1]
    B = B.reshape(-1, k, k)
    V = np.broadcast_to(np.eye(k), B.shape).copy()
    flat = B.reshape(-1, 1, k * k)
    # Frobenius norm through the same dot product as np.linalg.norm
    norm = np.sqrt((flat @ np.swapaxes(flat, -1, -2))[:, 0, 0])
    tol_eff = tol * np.maximum(1.0, norm)
    off_diag = ~np.eye(k, dtype=bool)

    active = np.ones(len(B), dtype=bool)
    for _ in range(max_sweeps if k > 1 else 0):
        active &= np.abs(B[:, off_diag]).max(axis=-1) > tol_eff
        if not active.any():
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                rows = np.flatnonzero(active & (np.abs(B[:, p, q]) > tol_eff))
                if rows.size:
                    B[rows], V[rows] = _jacobi_rotation(B[rows], V[rows], p, q)

    vals = np.diagonal(B, axis1=-2, axis2=-1)
    vecs = np.linalg.solve(np.swapaxes(L, -1, -2), V.reshape(*shape, k, k))
    order = np.argsort(vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=-1).reshape(*shape, k)
    vecs = np.take_along_axis(vecs, order.reshape(*shape, 1, k), axis=-1)
    return vals, vecs


def _jacobi_rotation(B: Array, V: Array, p: int, q: int) -> tuple[Array, Array]:
    """``B <- J^T B J`` and ``V <- V J`` with J the rotation that zeroes B[p, q]."""
    apq = B[:, p, q]
    tau = (B[:, q, q] - B[:, p, p]) / (2.0 * apq)
    nonzero = tau != 0.0
    t = np.ones_like(tau)
    t[nonzero] = np.sign(tau[nonzero]) / (np.abs(tau[nonzero])
                                          + np.hypot(1.0, tau[nonzero]))
    c = (1.0 / np.hypot(1.0, t))[:, None]
    s = t[:, None] * c
    bp, bq = B[:, :, p].copy(), B[:, :, q].copy()
    B[:, :, p] = c * bp - s * bq
    B[:, :, q] = s * bp + c * bq
    bp, bq = B[:, p, :].copy(), B[:, q, :].copy()
    B[:, p, :] = c * bp - s * bq
    B[:, q, :] = s * bp + c * bq
    B[:, p, q] = B[:, q, p] = 0.0
    vp, vq = V[:, :, p].copy(), V[:, :, q].copy()
    V[:, :, p] = c * vp - s * vq
    V[:, :, q] = s * vp + c * vq
    return B, V
