"""Residual evaluation for the pointwise identities and estimates.

Each operation evaluates both sides of one displayed identity (or one
inequality) of the graph geometry and returns the residual (or the worst
slack).  The frame used for the frame-traced decompositions is always the
adapted frame, which diagonalizes both the domain metric and the pullback
metric; the curvature-to-sectional reductions are only valid there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chart_manifold import (
    ChartPoint,
    MetricJet,
    christoffel_derivative_from_jet,
    christoffel_from_jet,
    metric_inverse,
    ricci_from_jet,
    riemann_from_jet,
    sym_eigen,
)
from .errors import InvalidParameterError, PreconditionError
from .extrinsic import MINIMAL_TOL, ExtrinsicData, graph_blocks, second_fundamental_at
from .graph_map import (
    SmoothMap,
    adapted_frames_at,
    deficit_trace,
    frame_formula_residual,
    induced_metric_jet,
    pullback_metric_jet,
    shift_deficit,
)
from .product_space import SplitVector

Array = np.ndarray

#: Covariant-derivative norm below which a tensor field counts as parallel
#: and its rough Laplacian is taken to vanish identically.
PARALLEL_TOL = 1e-10


# ---------------------------------------------------------------------------
# Shared per-point geometry
# ---------------------------------------------------------------------------

class PointData:
    """Everything the identity checks need at one point, computed once."""

    def __init__(self, f: SmoothMap, p: ChartPoint):
        self.f = f
        self.p = p
        self.fjet = f.jet(p)
        self.image = ChartPoint(self.fjet.value)
        self.gm_jet = f.domain.jet(p)
        self.gn_jet = f.target.jet(self.image)

    @cached_property
    def frames(self):
        return adapted_frames_at(self.f, self.p)

    @cached_property
    def ext(self) -> ExtrinsicData:
        return second_fundamental_at(self.f, self.p, frames=self.frames)

    @cached_property
    def induced_jet(self) -> MetricJet:
        return induced_metric_jet(self.f, self.p, order=2)

    @cached_property
    def pullback(self) -> Array:
        return pullback_metric_jet(self.fjet, self.gn_jet, order=0)[0]

    @cached_property
    def g(self) -> Array:
        return self.gm_jet.g + self.pullback

    @cached_property
    def ginv(self) -> Array:
        return metric_inverse(self.g)

    @cached_property
    def gamma_g(self) -> Array:
        return christoffel_from_jet(self.induced_jet)

    @cached_property
    def riem_m(self) -> Array:
        return riemann_from_jet(self.gm_jet)

    @cached_property
    def riem_n(self) -> Array:
        return riemann_from_jet(self.gn_jet)

    @cached_property
    def ric_m(self) -> Array:
        return ricci_from_jet(self.gm_jet)[0]

    @cached_property
    def ric_g_op(self) -> Array:
        return ricci_from_jet(self.induced_jet)[1]

    @cached_property
    def s(self) -> Array:
        return self.gm_jet.g - self.pullback

    @cached_property
    def trace_s(self) -> float:
        return float(deficit_trace(self.g, self.s))

    @property
    def m(self) -> int:
        return self.f.domain.dim

    @property
    def n(self) -> int:
        return self.f.target.dim

    @cached_property
    def df_e(self) -> Array:
        """Images of the adapted frame, ``df_e[:, k] = df(e_k)``."""
        return self.fjet.d1 @ self.frames.e

    def shifted_s(self, c: float) -> Array:
        return shift_deficit(self.s, self.g, c)

    def shifted_s_jet(self, c: float) -> tuple[Array, Array]:
        """Value and exact first chart derivatives of the shifted tensor field."""
        nu = (1.0 - c) / (1.0 + c)
        P, dP, _ = pullback_metric_jet(self.fjet, self.gn_jet, order=1)
        phi = (1.0 - nu) * self.gm_jet.g - (1.0 + nu) * P
        dphi = (1.0 - nu) * self.gm_jet.dg - (1.0 + nu) * dP
        return phi, dphi

    def product_inner(self, u: SplitVector, v: SplitVector) -> float:
        return float(u.m_part @ self.gm_jet.g @ v.m_part
                     + u.n_part @ self.gn_jet.g @ v.n_part)

    def split_form(self, u: SplitVector, v: SplitVector) -> float:
        return float(u.m_part @ self.gm_jet.g @ v.m_part
                     - u.n_part @ self.gn_jet.g @ v.n_part)

    def shifted_split_form(self, c: float, u: SplitVector, v: SplitVector) -> float:
        """The form ``s_prod - ((1-c)/(1+c)) g_prod`` on split vectors."""
        return self.split_form(u, v) - (1.0 - c) / (1.0 + c) * self.product_inner(u, v)

    def pullback_curvature(self, u: Array, v: Array, w: Array, z: Array) -> float:
        """Target curvature pulled back: ``R_N(df u, df v, df w, df z)``."""
        d1 = self.fjet.d1
        return float(np.einsum("abcd,a,b,c,d->", self.riem_n,
                               d1 @ u, d1 @ v, d1 @ w, d1 @ z))

    def domain_curvature(self, u: Array, v: Array, w: Array, z: Array) -> float:
        return float(np.einsum("abcd,a,b,c,d->", self.riem_m, u, v, w, z))


# ---------------------------------------------------------------------------
# Normal estimate for the split-signature form
# ---------------------------------------------------------------------------

def normal_estimate_check(f: SmoothMap, p: ChartPoint, c: float,
                          rng: np.random.Generator | None = None,
                          n_mixtures: int = 20,
                          data: PointData | None = None) -> float:
    """Worst slack of the normal-cone estimate at ``p``.

    For every adapted normal frame vector, ``n_mixtures`` random normal
    combinations, and the second-fundamental-form vectors ``A(e_i, e_j)``,
    evaluates::

        slack = ((c-1)/(1+c)) |eta|^2 - s_prod(eta, eta)

    which must be non-negative whenever ``c >= lambda_max^2``.  Returns the
    minimum slack (negative means the estimate failed).
    """
    d = data or PointData(f, p)
    lam_max_sq = float(d.frames.lambdas[-1] ** 2)
    if c < lam_max_sq - 1e-12 * (1.0 + lam_max_sq):
        raise PreconditionError(
            f"estimate needs c >= lambda_max^2 = {lam_max_sq:.6g}, got {c:.6g}")
    rng = rng or np.random.default_rng(0)
    bound = (c - 1.0) / (1.0 + c)

    def slack(eta: SplitVector) -> float:
        return bound * d.product_inner(eta, eta) - d.split_form(eta, eta)

    worst = np.inf
    for xi in d.frames.xi:
        worst = min(worst, slack(xi))
    n = d.n
    for _ in range(n_mixtures):
        coeff = rng.normal(size=n)
        eta = SplitVector(
            sum(coeff[i] * d.frames.xi[i].m_part for i in range(n)),
            sum(coeff[i] * d.frames.xi[i].n_part for i in range(n)))
        worst = min(worst, slack(eta))
    for i in range(d.m):
        for j in range(d.m):
            worst = min(worst, slack(d.ext.a(i, j)))
    return float(worst)


# ---------------------------------------------------------------------------
# Decompositions of the frame-traced curvature sum
# ---------------------------------------------------------------------------

def _decomposition_sides(d: PointData, c: float, sigma: float,
                         l: int) -> tuple[float, float, float]:
    """Left side and both decomposed right sides of the curvature-sum identity.

    Valid in the adapted frame only: the reduction of the pulled-back
    curvature to sectional values uses that the frame diagonalizes the
    pullback metric.
    """
    if c <= 0.0:
        raise InvalidParameterError(f"decomposition needs c > 0, got {c}")
    m = d.m
    e = d.frames.e
    gm = d.gm_jet.g
    gn = d.gn_jet.g
    df_e = d.df_e
    nu = (1.0 - c) / (1.0 + c)

    gm_ee = e.T @ gm @ e                 # domain metric on the frame
    fgn_ee = df_e.T @ gn @ df_e          # pullback metric on the frame
    s_ee = np.diag(gm_ee) - np.diag(fgn_ee)
    phi_ee = s_ee - nu
    tr_s = d.trace_s
    tr_phi = tr_s - m * nu

    fRN = np.array([d.pullback_curvature(e[:, k], e[:, l], e[:, k], e[:, l])
                    for k in range(m)])
    RM = np.array([d.domain_curvature(e[:, k], e[:, l], e[:, k], e[:, l])
                   for k in range(m)])

    lhs = 2.0 * float(np.sum(fRN - c * RM))

    # (sigma - sec_N) f*g_N(e_k,e_k) f*g_N(e_l,e_l), written through the
    # curvature value to stay finite when df(e_k) or df(e_l) vanishes
    sec_n_excess = np.array([
        sigma * fgn_ee[k, k] * fgn_ee[l, l] - fRN[k] for k in range(m)])
    # sec_M(e_k ^ e_l) is always defined: the frame vectors are independent
    area_m = np.array([
        gm_ee[k, k] * gm_ee[l, l] - gm_ee[k, l] ** 2 for k in range(m)])
    sec_m = np.array([RM[k] / area_m[k] if k != l else 0.0 for k in range(m)])

    ksum = [k for k in range(m) if k != l]
    ric_m_ll = float(e[:, l] @ d.ric_m @ e[:, l])

    term1_grouped = -2.0 * sum(
        sec_n_excess[k] + sigma * phi_ee[l] * fgn_ee[k, k] for k in ksum)
    term1_traced = -2.0 * sum(sec_n_excess[k] for k in ksum)
    term2 = -c * gm_ee[l, l] * sum(
        phi_ee[k] * (sec_m[k] - sigma) for k in ksum)
    term3 = -(2.0 * c / (1.0 + c)) * (ric_m_ll - (m - 1) * sigma * gm_ee[l, l])

    rhs_grouped = (term1_grouped + term2 + term3
                   - (2.0 * sigma * c / (1.0 + c)) * (tr_s - s_ee[l])
                   - (sigma * (1.0 + c) / 2.0) * phi_ee[l] * (tr_phi - phi_ee[l]))

    rhs_traced = (term1_traced + term2 + term3
                  - (2.0 * c * sigma / (1.0 + c)) * tr_s
                  + (sigma * (1.0 - c) / 2.0) * phi_ee[l] * (tr_phi - phi_ee[l])
                  - (2.0 * c * sigma / (1.0 + c)) * ((m - 2) * phi_ee[l] - nu))

    return lhs, rhs_grouped, rhs_traced


def curvature_decomposition_residual(f: SmoothMap, p: ChartPoint, c: float,
                                     sigma: float, l: int,
                                     data: PointData | None = None) -> float:
    """|LHS - RHS| for the grouped five-term decomposition."""
    d = data or PointData(f, p)
    lhs, rhs, _ = _decomposition_sides(d, c, sigma, l)
    return abs(lhs - rhs)


def traced_decomposition_residual(f: SmoothMap, p: ChartPoint, c: float,
                                  sigma: float, l: int,
                                  data: PointData | None = None) -> float:
    """|LHS - RHS| for the trace-isolating seven-term decomposition."""
    d = data or PointData(f, p)
    lhs, _, rhs = _decomposition_sides(d, c, sigma, l)
    return abs(lhs - rhs)


def decomposition_forms_gap(f: SmoothMap, p: ChartPoint, c: float,
                            sigma: float, l: int,
                            data: PointData | None = None) -> float:
    """|grouped RHS - traced RHS|; a purely algebraic rearrangement."""
    d = data or PointData(f, p)
    _, rhs_a, rhs_b = _decomposition_sides(d, c, sigma, l)
    return abs(rhs_a - rhs_b)


# ---------------------------------------------------------------------------
# The reaction term
# ---------------------------------------------------------------------------

def reaction_term_apply(f: SmoothMap, p: ChartPoint, c: float, theta: Array,
                        v: Array, w: Array,
                        data: PointData | None = None) -> float:
    """Value of the fiberwise reaction term on ``theta`` at ``(v, w)``.

    ``theta`` is a symmetric 2-tensor in chart components; ``v``, ``w`` are
    chart vectors.  The Ricci operator is the one of the induced metric.
    """
    if c <= -1.0:
        raise InvalidParameterError(f"reaction term needs c > -1, got {c}")
    d = data or PointData(f, p)
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)

    ric_v = d.ric_g_op @ v
    ric_w = d.ric_g_op @ w
    value = -float(ric_v @ theta @ w) - float(ric_w @ theta @ v)

    e = d.frames.e
    for k in range(d.m):
        a_kv = d.ext.a_coord(e[:, k], v)
        a_kw = d.ext.a_coord(e[:, k], w)
        value -= 2.0 * d.shifted_split_form(c, a_kv, a_kw)

    curv = sum(d.pullback_curvature(e[:, k], v, e[:, k], w)
               - c * d.domain_curvature(e[:, k], v, e[:, k], w)
               for k in range(d.m))
    value -= 4.0 / (1.0 + c) * curv
    return value


def _reaction_on_frame(d: PointData, c: float, theta: Array) -> Array:
    """Reaction term evaluated on all adapted frame pairs."""
    m = d.m
    e = d.frames.e
    out = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            out[i, j] = out[j, i] = reaction_term_apply(
                d.f, d.p, c, theta, e[:, i], e[:, j], data=d)
    return out


# ---------------------------------------------------------------------------
# Finite-difference Laplacians
# ---------------------------------------------------------------------------

def _fd_tensor_derivatives(field_fn, x: Array, h: float) -> tuple[Array, Array, Array]:
    """Central first and second differences of a matrix field."""
    m = x.size
    phi0 = field_fn(x)
    shape = phi0.shape
    dphi = np.zeros((m, *shape))
    d2phi = np.zeros((m, m, *shape))
    plus, minus = [], []
    for k in range(m):
        e = np.zeros(m)
        e[k] = h
        fp, fm = field_fn(x + e), field_fn(x - e)
        plus.append(fp)
        minus.append(fm)
        dphi[k] = (fp - fm) / (2.0 * h)
        d2phi[k, k] = (fp - 2.0 * phi0 + fm) / (h * h)
    for k in range(m):
        ek = np.zeros(m)
        ek[k] = h
        for l in range(k + 1, m):
            el = np.zeros(m)
            el[l] = h
            mixed = (field_fn(x + ek + el) - field_fn(x + ek - el)
                     - field_fn(x - ek + el) + field_fn(x - ek - el)) / (4.0 * h * h)
            d2phi[k, l] = d2phi[l, k] = mixed
    return phi0, dphi, d2phi


def _covariant_derivative(phi: Array, dphi: Array, gamma: Array) -> Array:
    """``T[l, i, j] = nabla_l phi_ij`` from chart partials and Christoffels."""
    return (dphi - np.einsum("pli,pj->lij", gamma, phi)
            - np.einsum("plj,ip->lij", gamma, phi))


def rough_laplacian_fd(field_fn, p: ChartPoint, induced: MetricJet,
                       h: float) -> Array:
    """Rough Laplacian of a symmetric 2-tensor field at ``p``.

    Chart partials of the field come from central differences at step ``h``;
    the connection corrections use the exact jet of the induced metric.
    """
    gamma = christoffel_from_jet(induced)
    dgamma = christoffel_derivative_from_jet(induced)
    ginv = metric_inverse(induced.g)
    phi, dphi, d2phi = _fd_tensor_derivatives(field_fn, p.coords, h)

    T = _covariant_derivative(phi, dphi, gamma)
    dT = (d2phi
          - np.einsum("kpli,pj->klij", dgamma, phi)
          - np.einsum("pli,kpj->klij", gamma, dphi)
          - np.einsum("kplj,ip->klij", dgamma, phi)
          - np.einsum("plj,kip->klij", gamma, dphi))
    nabla2 = (dT
              - np.einsum("pkl,pij->klij", gamma, T)
              - np.einsum("pki,lpj->klij", gamma, T)
              - np.einsum("pkj,lip->klij", gamma, T))
    return np.einsum("kl,klij->ij", ginv, nabla2)


def scalar_laplacian_fd(fn, p: ChartPoint, induced: MetricJet, h: float) -> float:
    """Laplace-Beltrami value of a scalar field at ``p`` (FD partials).

    A field whose stencil values agree to roundoff is treated as constant
    (zero Laplacian): dividing pure cancellation noise by ``h^2`` would
    otherwise masquerade as a derivative.
    """
    gamma = christoffel_from_jet(induced)
    ginv = metric_inverse(induced.g)
    x = p.coords
    m = x.size
    f0 = fn(x)
    du = np.zeros(m)
    d2u = np.zeros((m, m))
    spread = 0.0
    for k in range(m):
        e = np.zeros(m)
        e[k] = h
        fp, fm = fn(x + e), fn(x - e)
        spread = max(spread, abs(fp - f0), abs(fm - f0))
        du[k] = (fp - fm) / (2.0 * h)
        d2u[k, k] = (fp - 2.0 * f0 + fm) / (h * h)
    for k in range(m):
        ek = np.zeros(m)
        ek[k] = h
        for l in range(k + 1, m):
            el = np.zeros(m)
            el[l] = h
            corners = [fn(x + ek + el), fn(x + ek - el),
                       fn(x - ek + el), fn(x - ek - el)]
            spread = max(spread, max(abs(v - f0) for v in corners))
            d2u[k, l] = d2u[l, k] = (corners[0] - corners[1]
                                     - corners[2] + corners[3]) / (4 * h * h)
    if spread < 5e-14 * (1.0 + abs(f0)):
        return 0.0
    hess = d2u - np.einsum("pkl,p->kl", gamma, du)
    return float(np.einsum("kl,kl->", ginv, hess))


# ---------------------------------------------------------------------------
# The elliptic equation for the shifted tensor
# ---------------------------------------------------------------------------

def _is_parallel_field(d: PointData, c: float, probe_step: float = 0.05) -> bool:
    """Whether the shifted tensor field is covariantly parallel near ``d.p``.

    The exact covariant derivative is evaluated at the point and at axis
    neighbors: a vanishing derivative at the point alone would also accept
    isolated critical points of a non-parallel field.
    """
    probes = [d]
    for k in range(d.m):
        for sgn in (-1.0, 1.0):
            x = d.p.coords.copy()
            x[k] += sgn * probe_step
            probes.append(PointData(d.f, ChartPoint(x)))
    for data in probes:
        phi, dphi = data.shifted_s_jet(c)
        gamma = christoffel_from_jet(induced_metric_jet(data.f, data.p, order=1))
        nabla = _covariant_derivative(phi, dphi, gamma)
        if np.abs(nabla).max() >= PARALLEL_TOL * (1.0 + np.abs(phi).max()):
            return False
    return True


def shifted_tensor_laplacian(d: PointData, c: float, h: float) -> Array:
    """Rough Laplacian of the shifted tensor field at ``d.p``.

    If the field is covariantly parallel (detected through its exact first
    chart derivatives at the point and nearby), the Laplacian vanishes
    identically and no finite differences are taken.
    """
    if _is_parallel_field(d, c):
        return np.zeros_like(d.g)

    def field(x: Array) -> Array:
        pt = ChartPoint(x)
        data = PointData(d.f, pt)
        return data.shifted_s(c)

    return rough_laplacian_fd(field, d.p, d.induced_jet, h)


def elliptic_equation_residual(f: SmoothMap, p: ChartPoint, c: float,
                               h: float = 1e-3,
                               minimal_tol: float = MINIMAL_TOL,
                               data: PointData | None = None) -> float:
    """Residual of ``Lap(Phi) + Psi(Phi) = 0`` on the adapted frame at ``p``.

    The equation in this homogeneous form holds for minimal maps only, so a
    point with mean curvature above ``minimal_tol`` is rejected.
    """
    d = data or PointData(f, p)
    if d.ext.h_norm >= minimal_tol:
        raise PreconditionError(
            f"map is not minimal at {p.coords} (|H| = {d.ext.h_norm:.3e})")
    lap = shifted_tensor_laplacian(d, c, h)
    psi = _reaction_on_frame(d, c, d.shifted_s(c))
    e = d.frames.e
    lap_frame = e.T @ lap @ e
    return float(np.abs(lap_frame + psi).max())


# ---------------------------------------------------------------------------
# Two-dimensional logarithmic Jacobian identity
# ---------------------------------------------------------------------------

def projection_jacobian(d: PointData) -> float:
    """Jacobian of the graph-to-domain projection, ``sqrt(det g_M / det g)``."""
    return float(np.sqrt(np.linalg.det(d.gm_jet.g) / np.linalg.det(d.g)))


def jacobian_consistency_2d(f: SmoothMap, p: ChartPoint,
                            data: PointData | None = None) -> float:
    """Gap between the determinant form and the singular-value closed form."""
    d = data or PointData(f, p)
    lam = d.frames.lambdas
    closed = 1.0 / np.sqrt(float(np.prod(1.0 + lam ** 2)))
    return abs(projection_jacobian(d) - closed)


def _normal_components_2d(d: PointData) -> Array:
    """``comp[gamma, i, j] = <A(e_i, e_j), xi_gamma>`` in the product metric."""
    out = np.zeros((2, 2, 2))
    for g_idx in range(2):
        xi = d.frames.xi[g_idx]
        for i in range(2):
            for j in range(2):
                out[g_idx, i, j] = d.product_inner(d.ext.a(i, j), xi)
    return out


def minimality_relations_residual_2d(f: SmoothMap, p: ChartPoint,
                                     data: PointData | None = None) -> float:
    """Residual of the trace relations between normal components of A.

    Minimality forces ``A^g_11 = -A^g_22`` for both normal directions.
    """
    d = data or PointData(f, p)
    comp = _normal_components_2d(d)
    return float(max(abs(comp[1, 0, 0] + comp[1, 1, 1]),
                     abs(comp[0, 1, 1] + comp[0, 0, 0])))


def log_jacobian_residual_2d(f: SmoothMap, p: ChartPoint, h: float = 1e-3,
                             minimal_tol: float = MINIMAL_TOL,
                             data: PointData | None = None) -> float:
    """Residual of the two-dimensional equation for ``ln`` of the projection Jacobian.

    Both dimensions must equal two and the map must be minimal at ``p``.
    The left side is the Laplace-Beltrami value (induced metric, FD partials
    of the pointwise-exact Jacobian field); the right side combines the
    normal components of the second fundamental form with the sectional
    curvatures of domain and target.
    """
    d = data or PointData(f, p)
    if d.m != 2 or d.n != 2:
        raise PreconditionError("identity needs dim M = dim N = 2")
    if d.ext.h_norm >= minimal_tol:
        raise PreconditionError(
            f"map is not minimal at {p.coords} (|H| = {d.ext.h_norm:.3e})")

    def ln_v(x: Array) -> float:
        data_x = PointData(d.f, ChartPoint(x))
        return float(np.log(projection_jacobian(data_x)))

    lhs = scalar_laplacian_fd(ln_v, d.p, d.induced_jet, h)

    lam = d.frames.lambdas
    l1, l2 = float(lam[0]), float(lam[1])
    comp = _normal_components_2d(d)
    a_norm_sq = float(np.sum(comp ** 2))

    gm = d.gm_jet.g
    gn = d.gn_jet.g
    sec_m = float(d.riem_m[0, 1, 0, 1] / (gm[0, 0] * gm[1, 1] - gm[0, 1] ** 2))
    sec_n = float(d.riem_n[0, 1, 0, 1] / (gn[0, 0] * gn[1, 1] - gn[0, 1] ** 2))

    rhs = (-a_norm_sq
           - l1 ** 2 * (comp[0, 0, 0] ** 2 + comp[0, 0, 1] ** 2)
           - l2 ** 2 * (comp[1, 0, 1] ** 2 + comp[1, 1, 1] ** 2)
           - 2.0 * l1 * l2 * (comp[1, 0, 0] * comp[0, 1, 0]
                              + comp[1, 0, 1] * comp[0, 1, 1])
           - ((l1 ** 2 + l2 ** 2) * sec_m - 2.0 * l1 ** 2 * l2 ** 2 * sec_n)
           / ((1.0 + l1 ** 2) * (1.0 + l2 ** 2)))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Null-eigenvector probe of the reaction term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullProbeResult:
    status: str                # "pass", "fail" or "skipped"
    reason: str
    min_value: float
    draws: int
    max_ric_term: float


def _pointwise_pinching(d: PointData, sigma: float,
                        rng: np.random.Generator, planes: int = 4,
                        tol: float = 1e-9) -> str | None:
    """Check the curvature separation at one point; returns a reason on failure."""
    m, n = d.m, d.n
    gm = d.gm_jet.g
    for _ in range(planes):
        u, v = rng.normal(size=m), rng.normal(size=m)
        area2 = (u @ gm @ u) * (v @ gm @ v) - (u @ gm @ v) ** 2
        if area2 < 1e-8 * (u @ gm @ u) * (v @ gm @ v):
            continue
        sec = d.domain_curvature(u, v, u, v) / area2
        if sec < sigma - tol:
            return f"domain sectional curvature {sec:.6g} below {sigma:.6g}"
    if n >= 2 and d.frames.rank >= 2:
        gn = d.gn_jet.g
        d1 = d.fjet.d1
        for _ in range(planes):
            u, v = d1 @ rng.normal(size=m), d1 @ rng.normal(size=m)
            area2 = (u @ gn @ u) * (v @ gn @ v) - (u @ gn @ v) ** 2
            if area2 < 1e-8 * max((u @ gn @ u) * (v @ gn @ v), 1e-300):
                continue
            sec = float(np.einsum("abcd,a,b,c,d->", d.riem_n, u, v, u, v)) / area2
            if sec > sigma + tol:
                return f"target sectional curvature {sec:.6g} above {sigma:.6g}"
    return None


def null_eigenvector_probe(f: SmoothMap, p: ChartPoint, sigma: float,
                           lambda0_sq: float, kappa_sq: float | None = None,
                           rng: np.random.Generator | None = None,
                           n_draws: int = 20, tol: float = 1e-10,
                           data: PointData | None = None) -> NullProbeResult:
    """Probe the null-eigenvector condition of the reaction term at ``p``.

    Draws random positive semi-definite tensors with a prescribed unit null
    direction v (built by projecting a random Gram matrix onto the
    g-orthogonal complement of v) and checks that the reaction term at shift
    ``lambda0_sq`` is non-negative on (v, v).

    Preconditions mirror the two branches of the rigidity argument: for
    ``lambda0_sq < 1`` only the curvature separation is needed; for
    ``lambda0_sq >= 1`` also the trace condition, the strict pullback bound
    with ``kappa_sq`` and the second-fundamental-form bound.  A violated
    precondition yields a skipped result, not a failure.
    """
    d = data or PointData(f, p)
    rng = rng or np.random.default_rng(0)
    if sigma <= 0.0:
        return NullProbeResult("skipped", "needs a positive pinching level",
                               np.inf, 0, 0.0)

    reason = _pointwise_pinching(d, sigma, rng)
    if reason is not None:
        return NullProbeResult("skipped", reason, np.inf, 0, 0.0)

    if lambda0_sq >= 1.0:
        if d.trace_s < -1e-9:
            return NullProbeResult(
                "skipped", f"trace condition fails ({d.trace_s:.6g} < 0)",
                np.inf, 0, 0.0)
        if kappa_sq is None:
            raise PreconditionError("kappa_sq is required when lambda0_sq >= 1")
        lam_max_sq = float(d.frames.lambdas[-1] ** 2)
        if not (kappa_sq > 1.0 + 1e-9 and lam_max_sq < kappa_sq - 1e-9):
            return NullProbeResult(
                "skipped", f"pullback bound fails (lambda^2 = {lam_max_sq:.6g},"
                f" kappa^2 = {kappa_sq:.6g})", np.inf, 0, 0.0)
        bound = kappa_sq * sigma / (kappa_sq ** 2 - 1.0) * d.trace_s
        if d.ext.a_norm_sq > bound + 1e-9:
            return NullProbeResult(
                "skipped", "second-fundamental-form bound fails "
                f"({d.ext.a_norm_sq:.6g} > {bound:.6g})", np.inf, 0, 0.0)

    m = d.m
    g = d.g
    min_value = np.inf
    max_ric = 0.0
    for _ in range(n_draws):
        v = rng.normal(size=m)
        v = v / np.sqrt(float(v @ g @ v))
        proj = np.eye(m) - np.outer(v, g @ v)   # kills v, g-orthogonally
        W = rng.normal(size=(m, m))
        theta = proj.T @ (W.T @ W) @ proj
        theta = 0.5 * (theta + theta.T)
        scale = 1.0 + float(np.abs(theta).max())

        ric_v = d.ric_g_op @ v
        max_ric = max(max_ric, abs(float(ric_v @ theta @ v)) / scale)
        value = reaction_term_apply(d.f, d.p, lambda0_sq, theta, v, v, data=d)
        min_value = min(min_value, value / scale)

    status = "pass" if min_value >= -tol else "fail"
    return NullProbeResult(status, "", float(min_value), n_draws, float(max_ric))


# ---------------------------------------------------------------------------
# Second-derivative probe at the maximum of the top eigenvalue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremumProbeResult:
    status: str                # "pass", "fail" or "inconclusive"
    reason: str
    point: Array | None
    c: float
    grad_norm: float
    lap_value: float
    grad_tol: float
    lap_tol: float


def extremum_derivative_probe(f: SmoothMap, grid: list[ChartPoint],
                              box: Array, c: float | None = None,
                              h: float = 1e-3, grad_tol: float | None = None,
                              lap_tol: float = 1e-4,
                              minimal_tol: float = MINIMAL_TOL) -> ExtremumProbeResult:
    """Locate the grid maximum of the top eigenvalue of the shifted tensor
    and check the first/second derivative criteria there.

    At an interior maximum of the largest eigenvalue, the covariant
    derivative of the field must vanish on the top eigenvector (up to grid
    resolution) and the rough Laplacian must be non-positive there.  A
    maximum attained on the sampling-box boundary is inconclusive.
    """
    if not grid:
        raise ValueError("empty probe grid")
    box = np.asarray(box, dtype=float)
    blocks = list(graph_blocks(f, np.array([p.coords for p in grid])))
    if not np.max([np.max(blk.ext.h_norm) for blk in blocks]) < minimal_tol:
        raise PreconditionError("probe needs a minimal scenario")

    if c is None:
        lam0_sq = float(np.max([np.max(blk.frames.lambdas[:, -1] ** 2)
                                for blk in blocks]))
        c = lam0_sq if lam0_sq > 1e-12 else 1.0

    top = np.concatenate([sym_eigen(shift_deficit(blk.s, blk.g, c), blk.g)[0][:, -1]
                          for blk in blocks])
    best = float(top.max())
    near = np.nonzero(top >= best - 1e-12 * (1.0 + abs(best)))[0]

    def boundary_distance(p: ChartPoint) -> float:
        return float(np.min(np.minimum(p.coords - box[:, 0],
                                       box[:, 1] - p.coords)))

    idx = max(near, key=lambda i: boundary_distance(grid[i]))
    d = PointData(f, grid[idx])
    spacing = float(np.max((box[:, 1] - box[:, 0])
                           / (max(len(grid), 2) ** (1.0 / box.shape[0]))))
    if grad_tol is None:
        grad_tol = 10.0 * spacing

    if boundary_distance(grid[idx]) <= 0.45 * spacing:
        return ExtremumProbeResult(
            "inconclusive", "maximum attained on the sampling-box boundary",
            grid[idx].coords, c, np.nan, np.nan, grad_tol, lap_tol)

    vals, vecs = sym_eigen(d.shifted_s(c), d.g)
    v = vecs[:, -1]
    phi, dphi = d.shifted_s_jet(c)
    nabla = _covariant_derivative(phi, dphi, d.gamma_g)
    grad_vec = np.einsum("lij,i,j->l", nabla, v, v)
    grad_norm = float(np.sqrt(grad_vec @ d.ginv @ grad_vec))
    lap = shifted_tensor_laplacian(d, c, h)
    lap_vv = float(v @ lap @ v)

    ok = grad_norm < grad_tol and lap_vv < lap_tol
    return ExtremumProbeResult("pass" if ok else "fail", "",
                               grid[idx].coords, c, grad_norm, lap_vv,
                               grad_tol, lap_tol)


# ---------------------------------------------------------------------------
# Final-chain sign structure at the probed maximum
# ---------------------------------------------------------------------------

def max_point_term_values(f: SmoothMap, p: ChartPoint, sigma: float,
                          lambda0_sq: float,
                          data: PointData | None = None) -> Array:
    """The six grouped terms bounding ``Lap(Phi)(e_m, e_m)`` at a maximum point.

    Each term is non-positive when the full hypothesis gate holds at the
    probed maximum of the top singular value; their sum bounds the Laplacian
    value from above, which forces every term to vanish there.  Term
    grouping follows the exact regrouping of the decompositions together
    with the normal estimate applied to the second-fundamental-form sum.
    """
    d = data or PointData(f, p)
    c = lambda0_sq
    if c < 0.0:
        raise InvalidParameterError("the squared top singular value cannot be negative")
    m = d.m
    e = d.frames.e
    l = m - 1                      # the top singular direction
    gm = d.gm_jet.g
    gn = d.gn_jet.g
    df_e = d.df_e
    nu = (1.0 - c) / (1.0 + c)

    gm_ee = e.T @ gm @ e
    fgn_ee = df_e.T @ gn @ df_e
    s_ee = np.diag(gm_ee) - np.diag(fgn_ee)
    phi_ee = s_ee - nu
    tr_s = d.trace_s
    tr_phi = tr_s - m * nu

    fRN = np.array([d.pullback_curvature(e[:, k], e[:, l], e[:, k], e[:, l])
                    for k in range(m)])
    RM = np.array([d.domain_curvature(e[:, k], e[:, l], e[:, k], e[:, l])
                   for k in range(m)])
    ksum = [k for k in range(m) if k != l]
    sec_n_excess = np.array([
        sigma * fgn_ee[k, k] * fgn_ee[l, l] - fRN[k] for k in range(m)])
    area_m = np.array([
        gm_ee[k, k] * gm_ee[l, l] - gm_ee[k, l] ** 2 for k in range(m)])
    sec_m = np.array([RM[k] / area_m[k] if k != l else 0.0 for k in range(m)])
    ric_m_ll = float(e[:, l] @ d.ric_m @ e[:, l])

    coeff = 2.0 / (1.0 + c)
    terms = np.array([
        # normal estimate applied to the A-sum, plus the isolated trace part
        (4.0 / (1.0 + c)) * ((c - 1.0) * d.ext.a_norm_sq
                             - (c / (1.0 + c)) * sigma * tr_s),
        coeff * (-2.0) * sum(sec_n_excess[k] for k in ksum),
        coeff * (-c) * gm_ee[l, l] * sum(phi_ee[k] * (sec_m[k] - sigma)
                                         for k in ksum),
        coeff * (-(2.0 * c / (1.0 + c))) * (ric_m_ll
                                            - (m - 1) * sigma * gm_ee[l, l]),
        coeff * (sigma * (1.0 - c) / 2.0) * phi_ee[l] * (tr_phi - phi_ee[l]),
        coeff * (-(2.0 * c * sigma / (1.0 + c))) * ((m - 2) * phi_ee[l] - nu),
    ])
    return terms


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Named residual with its tolerance and pass flag."""

    name: str
    points_checked: int
    max_residual: float
    tolerance: float
    parameters: dict = None
    skipped_reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None

    def line(self) -> str:
        if self.skipped:
            return f"[skip] {self.name}: {self.skipped_reason}"
        flag = "PASS" if self.passed else "FAIL"
        return (f"[{flag}] {self.name}: max residual {self.max_residual:.3e}"
                f" (tolerance {self.tolerance:.1e}, {self.points_checked} checks)")


DEFAULT_IDENTITY_TOLERANCES: dict[str, float] = {
    "frame": 1e-8,
    "s_eigenvalue": 1e-8,
    "normal_estimate": 1e-10,
    "decomposition": 1e-6,
    "decomposition_gap": 1e-8,
    "elliptic": 1e-4,
    "minimality_relations": 1e-6,
    "log_jacobian": 1e-4,
    "jacobian_consistency": 1e-10,
    "extremum": 1.0,        # normalized: max of gradient and Laplacian ratios
    "null_probe": 1e-10,
}


def run_identity_suite(scenario, seed: int = 0, h: float = 1e-3,
                       c: float = 2.0,
                       tolerances: dict[str, float] | None = None,
                       n_points: int = 12,
                       n_tuples: int = 15) -> list[IdentityReport]:
    """Run every identity check applicable to the scenario's dimensions.

    Checks whose preconditions the scenario does not meet (non-minimal
    scenarios for the elliptic equation, dimensions other than two for the
    Jacobian identity) are reported as skipped, not failed.
    """
    tol = {**DEFAULT_IDENTITY_TOLERANCES, **(tolerances or {})}
    f = scenario.f
    sigma = scenario.sigma
    rng = np.random.default_rng(seed)
    reports: list[IdentityReport] = []

    points = scenario.random_points(n_points, rng)
    datas = [PointData(f, p) for p in points]

    res = float(np.max([frame_formula_residual(f, p, d.frames)
                        for p, d in zip(points, datas)]))
    reports.append(IdentityReport("frame-formulas", len(points), res,
                                  tol["frame"], {"seed": seed}))

    vals, _ = sym_eigen(np.array([d.s for d in datas]), np.array([d.g for d in datas]))
    lam = np.array([d.frames.lambdas for d in datas])
    pred = np.sort((1.0 - lam ** 2) / (1.0 + lam ** 2), axis=-1)
    res = float(np.max(np.abs(vals - pred), initial=0.0))
    reports.append(IdentityReport("s-eigenvalue-formula", len(points), res,
                                  tol["s_eigenvalue"], {"seed": seed}))

    worst = np.inf
    for p, d in zip(points, datas):
        lam2 = float(d.frames.lambdas[-1] ** 2)
        for cc in (lam2, lam2 + 1.0):
            worst = min(worst, normal_estimate_check(f, p, cc, rng=rng, data=d))
    reports.append(IdentityReport(
        "normal-estimate", 2 * len(points), max(0.0, -worst),
        tol["normal_estimate"], {"worst_slack": worst}))

    res_grouped = res_traced = res_gap = 0.0
    for _ in range(n_tuples):
        idx = int(rng.integers(0, len(points)))
        d = datas[idx]
        cc = float(rng.uniform(0.05, 10.0))
        sg = float(rng.uniform(-2.0, 2.0))
        l = int(rng.integers(0, d.m))
        lhs, rhs_a, rhs_b = _decomposition_sides(d, cc, sg, l)
        res_grouped = max(res_grouped, abs(lhs - rhs_a))
        res_traced = max(res_traced, abs(lhs - rhs_b))
        res_gap = max(res_gap, abs(rhs_a - rhs_b))
    reports.append(IdentityReport("curvature-decomposition", n_tuples,
                                  res_grouped, tol["decomposition"],
                                  {"seed": seed}))
    reports.append(IdentityReport("curvature-decomposition-traced", n_tuples,
                                  res_traced, tol["decomposition"],
                                  {"seed": seed}))
    reports.append(IdentityReport("decomposition-forms-gap", n_tuples,
                                  res_gap, tol["decomposition_gap"],
                                  {"seed": seed}))

    minimal_here = all(d.ext.h_norm < MINIMAL_TOL for d in datas)

    if minimal_here:
        sub = datas[: min(3, len(datas))]
        res = max(elliptic_equation_residual(f, d.p, c, h=h, data=d)
                  for d in sub)
        reports.append(IdentityReport("elliptic-equation", len(sub), res,
                                      tol["elliptic"], {"c": c, "h": h}))
    else:
        reports.append(IdentityReport("elliptic-equation", 0, 0.0,
                                      tol["elliptic"], {},
                                      skipped_reason="non-minimal scenario"))

    two_dim = f.domain.dim == 2 and f.target.dim == 2
    if two_dim and minimal_here:
        sub = datas[: min(3, len(datas))]
        res = max(log_jacobian_residual_2d(f, d.p, h=h, data=d) for d in sub)
        rel = max(minimality_relations_residual_2d(f, d.p, data=d) for d in sub)
        cons = max(jacobian_consistency_2d(f, d.p, data=d) for d in sub)
        reports.append(IdentityReport("log-jacobian-2d", len(sub), res,
                                      tol["log_jacobian"], {"h": h}))
        reports.append(IdentityReport("minimality-relations-2d", len(sub), rel,
                                      tol["minimality_relations"], {}))
        reports.append(IdentityReport("jacobian-consistency-2d", len(sub), cons,
                                      tol["jacobian_consistency"], {}))
    else:
        reason = ("dimensions are not 2x2" if not two_dim
                  else "non-minimal scenario")
        for name in ("log-jacobian-2d", "minimality-relations-2d",
                     "jacobian-consistency-2d"):
            reports.append(IdentityReport(name, 0, 0.0, tol["log_jacobian"],
                                          {}, skipped_reason=reason))

    if minimal_here:
        shape = tuple(7 if f.domain.dim == 2 else 5
                      for _ in range(f.domain.dim))
        grid = scenario.grid_points(shape)
        probe = extremum_derivative_probe(f, grid, scenario.sample_box, h=h)
        if probe.status == "inconclusive":
            reports.append(IdentityReport("extremum-probe", len(grid), 0.0,
                                          tol["extremum"], {},
                                          skipped_reason=probe.reason))
        else:
            ratio = max(probe.grad_norm / probe.grad_tol,
                        probe.lap_value / probe.lap_tol)
            reports.append(IdentityReport(
                "extremum-probe", len(grid), max(0.0, ratio), tol["extremum"],
                {"point": probe.point.tolist(), "c": probe.c,
                 "grad_norm": probe.grad_norm, "lap_value": probe.lap_value}))
    else:
        reports.append(IdentityReport("extremum-probe", 0, 0.0,
                                      tol["extremum"], {},
                                      skipped_reason="non-minimal scenario"))

    lam0_sq = max(float(d.frames.lambdas[-1] ** 2) for d in datas)
    kappa_sq = max(1.01, 1.01 * lam0_sq)
    worst = np.inf
    n_pass = n_skip = 0
    skip_reason = ""
    for d in datas[:6]:
        pr = null_eigenvector_probe(f, d.p, sigma, lam0_sq, kappa_sq,
                                    rng=rng, data=d)
        if pr.status == "skipped":
            n_skip += 1
            skip_reason = pr.reason
        else:
            n_pass += 1
            worst = min(worst, pr.min_value)
    if n_pass == 0:
        reports.append(IdentityReport(
            "null-eigenvector-probe", 0, 0.0, tol["null_probe"], {},
            skipped_reason=f"hypotheses fail at all probe points: {skip_reason}"))
    else:
        reports.append(IdentityReport(
            "null-eigenvector-probe", n_pass, max(0.0, -worst),
            tol["null_probe"],
            {"lambda0_sq": lam0_sq, "points_skipped": n_skip}))

    return reports
