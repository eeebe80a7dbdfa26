"""Residual evaluation for the pointwise identities and estimates.

Each operation evaluates both sides of one displayed identity (or one
inequality) of the graph geometry and returns the residual (or the worst
slack).  The frame used for the frame-traced decompositions is always the
adapted frame, which diagonalizes both the domain metric and the pullback
metric; the curvature-to-sectional reductions are only valid there.

Every operation reads one point of a :class:`GraphBlock` through
:class:`PointData`; a single point is a block of one (:func:`point_rows`).
Finite-difference stencils and parallel-field probes evaluate their
neighbouring points as one block each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .chart_manifold import ChartPoint, sym_eigen
from .errors import InvalidParameterError, PreconditionError
from .extrinsic import (
    BLOCK_SIZE,
    MINIMAL_TOL,
    ExtrinsicData,
    GraphBlock,
    graph_block,
    graph_blocks,
)
from .graph_map import GraphFrameData, SmoothMap, frame_residual_block, shift_deficit
from .product_space import product_form

Array = np.ndarray

#: Covariant-derivative norm below which a tensor field counts as parallel
#: and its rough Laplacian is taken to vanish identically.
PARALLEL_TOL = 1e-10


# ---------------------------------------------------------------------------
# One point of a block
# ---------------------------------------------------------------------------

class PointData:
    """Point ``i`` of a :class:`GraphBlock`, as the identity checks read it.

    ``d.x`` is row ``i`` of the block's column ``x`` (``g``, ``s``,
    ``trace_s``, ``ginv``, ``gamma_g``, ``dgamma_g``, ``riem_m``,
    ``riem_n``, ``ric_m``, ``ric_g_op``); the block computes each column
    once for all its points.  Reading a row evaluates no jet.
    """

    def __init__(self, blk: GraphBlock, i: int):
        self.blk, self.i, self.f = blk, i, blk.f
        self.p = ChartPoint(blk.jets.coords[i])
        self.m, self.n = self.f.domain.dim, self.f.target.dim
        self.d1 = blk.jets.f.d1[i]
        self.gm, self.gn = blk.jets.gm.g[i], blk.jets.gn.g[i]

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.blk, name)[self.i]

    @cached_property
    def frames(self) -> GraphFrameData:
        return self.blk.frames.point(self.i)

    @cached_property
    def ext(self) -> ExtrinsicData:
        return self.blk.ext.point(self.i)

    def shifted_s(self, c: float) -> Array:
        return shift_deficit(self.s, self.g, c)

    def shifted_jet(self, c: float) -> tuple[Array, Array]:
        """Value and exact first chart derivatives of the shifted tensor field."""
        return tuple(x[self.i] for x in self.blk.shifted_jet(c))

    def pullback_curvature(self, u: Array, v: Array, w: Array, z: Array) -> float:
        """Target curvature pulled back: ``R_N(df u, df v, df w, df z)``."""
        d1 = self.d1
        return float(np.einsum("abcd,a,b,c,d->", self.riem_n,
                               d1 @ u, d1 @ v, d1 @ w, d1 @ z))

    def domain_curvature(self, u: Array, v: Array, w: Array, z: Array) -> float:
        return float(np.einsum("abcd,a,b,c,d->", self.riem_m, u, v, w, z))


def point_rows(f: SmoothMap, points: list[ChartPoint]) -> list[PointData]:
    """The points as the rows of one :class:`GraphBlock`."""
    blk = graph_block(f, np.array([p.coords for p in points]))
    return [PointData(blk, i) for i in range(len(points))]


# ---------------------------------------------------------------------------
# Normal estimate for the split-signature form
# ---------------------------------------------------------------------------

def normal_estimate_check(d: PointData, c: float,
                          rng: np.random.Generator | None = None,
                          n_mixtures: int = 20) -> float:
    """Worst slack of the normal-cone estimate at ``d.p``.

    For every adapted normal frame vector, ``n_mixtures`` random normal
    combinations, and the second-fundamental-form vectors ``A(e_i, e_j)``,
    evaluates::

        slack = ((c-1)/(1+c)) |eta|^2 - s_prod(eta, eta)

    which must be non-negative whenever ``c >= lambda_max^2``.  Returns the
    minimum slack (negative means the estimate failed; NaN if any slack is
    NaN).
    """
    lam_max_sq = float(d.frames.lambdas[-1] ** 2)
    if c < lam_max_sq - 1e-12 * (1.0 + lam_max_sq):
        raise PreconditionError(
            f"estimate needs c >= lambda_max^2 = {lam_max_sq:.6g}, got {c:.6g}")
    rng = rng or np.random.default_rng(0)
    bound = (c - 1.0) / (1.0 + c)

    # the normal frame vectors, random mixtures of them (summed column by
    # column) and the vectors A(e_i, e_j), as rows of one stack
    xi = np.swapaxes(d.frames.normal, -1, -2)
    coeff = rng.normal(size=(n_mixtures, d.n))
    mixtures = sum(coeff[:, i, None] * xi[i] for i in range(d.n))
    eta = np.concatenate([xi, mixtures, d.ext.a_frame.reshape(d.m * d.m, -1)])
    slacks = (bound * product_form(d.gm, d.gn, eta, eta)
              - product_form(d.gm, -d.gn, eta, eta))
    return float(np.min(slacks))


# ---------------------------------------------------------------------------
# Decompositions of the frame-traced curvature sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FrameTerms:
    """Frame-diagonal pieces of the curvature sum in direction ``e_l``."""

    lhs: float            # 2 sum_k (R_N(df e_k, df e_l, ..) - c R_M(e_k, e_l, ..))
    sec_n_sum: float      # sum_{k != l} (sigma - sec_N) |df e_k|^2 |df e_l|^2
    grouped_sum: float    # the same plus sigma phi_ll |df e_k|^2 under the sum
    term2: float          # -c g_M(e_l, e_l) sum_{k != l} phi_kk (sec_M - sigma)
    term3: float          # the Ricci term of the domain
    s_ll: float
    phi_ll: float
    tr_s: float
    tr_phi: float
    nu: float


def _frame_terms(d: PointData, c: float, sigma: float, l: int) -> _FrameTerms:
    """The pieces shared by the decompositions and the maximum-point terms.

    Valid in the adapted frame only: the reduction of the pulled-back
    curvature to sectional values uses that the frame diagonalizes the
    pullback metric.
    """
    m = d.m
    e = d.frames.e
    df_e = d.d1 @ e                      # df_e[:, k] = df(e_k)
    nu = (1.0 - c) / (1.0 + c)

    gm_ee = e.T @ d.gm @ e               # domain metric on the frame
    fgn_ee = df_e.T @ d.gn @ df_e        # pullback metric on the frame
    s_ee = np.diag(gm_ee) - np.diag(fgn_ee)
    phi_ee = s_ee - nu
    tr_s = d.trace_s

    fRN = np.array([d.pullback_curvature(e[:, k], e[:, l], e[:, k], e[:, l])
                    for k in range(m)])
    RM = np.array([d.domain_curvature(e[:, k], e[:, l], e[:, k], e[:, l])
                   for k in range(m)])

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

    return _FrameTerms(
        lhs=2.0 * float(np.sum(fRN - c * RM)),
        sec_n_sum=sum(sec_n_excess[k] for k in ksum),
        grouped_sum=sum(sec_n_excess[k] + sigma * phi_ee[l] * fgn_ee[k, k]
                        for k in ksum),
        term2=-c * gm_ee[l, l] * sum(phi_ee[k] * (sec_m[k] - sigma) for k in ksum),
        term3=-(2.0 * c / (1.0 + c)) * (ric_m_ll - (m - 1) * sigma * gm_ee[l, l]),
        s_ll=s_ee[l], phi_ll=phi_ee[l], tr_s=tr_s, tr_phi=tr_s - m * nu, nu=nu)


def decomposition_sides(d: PointData, c: float, sigma: float,
                        l: int) -> tuple[float, float, float]:
    """Left side and both decomposed right sides of the curvature-sum identity:
    the grouped five-term form and the trace-isolating seven-term form.

    Their differences are the decomposition residuals; the difference of the
    two right sides is a purely algebraic rearrangement.
    """
    if c <= 0.0:
        raise InvalidParameterError(f"decomposition needs c > 0, got {c}")
    t = _frame_terms(d, c, sigma, l)
    m = d.m
    rhs_grouped = (-2.0 * t.grouped_sum + t.term2 + t.term3
                   - (2.0 * sigma * c / (1.0 + c)) * (t.tr_s - t.s_ll)
                   - (sigma * (1.0 + c) / 2.0) * t.phi_ll * (t.tr_phi - t.phi_ll))
    rhs_traced = (-2.0 * t.sec_n_sum + t.term2 + t.term3
                  - (2.0 * c * sigma / (1.0 + c)) * t.tr_s
                  + (sigma * (1.0 - c) / 2.0) * t.phi_ll * (t.tr_phi - t.phi_ll)
                  - (2.0 * c * sigma / (1.0 + c)) * ((m - 2) * t.phi_ll - t.nu))
    return t.lhs, rhs_grouped, rhs_traced


# ---------------------------------------------------------------------------
# The reaction term
# ---------------------------------------------------------------------------

def reaction_term_apply(d: PointData, c: float, theta: Array, v: Array,
                        w: Array) -> float:
    """Value of the fiberwise reaction term on ``theta`` at ``(v, w)``.

    ``theta`` is a symmetric 2-tensor in chart components; ``v``, ``w`` are
    chart vectors.  The Ricci operator is the one of the induced metric.
    """
    if c <= -1.0:
        raise InvalidParameterError(f"reaction term needs c > -1, got {c}")
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)

    ric_v = d.ric_g_op @ v
    ric_w = d.ric_g_op @ w
    value = -float(ric_v @ theta @ w) - float(ric_w @ theta @ v)

    e = d.frames.e
    nu = (1.0 - c) / (1.0 + c)
    a_v = np.einsum("ijc,ik,j->kc", d.ext.a_coord, e, v)    # A(e_k, v)
    a_w = np.einsum("ijc,ik,j->kc", d.ext.a_coord, e, w)
    # the shifted split form s_prod - ((1-c)/(1+c)) g_prod on each pair,
    # subtracted one at a time to keep the rounding of a running sum
    for term in (product_form(d.gm, -d.gn, a_v, a_w)
                 - nu * product_form(d.gm, d.gn, a_v, a_w)):
        value -= 2.0 * term

    curv = sum(d.pullback_curvature(e[:, k], v, e[:, k], w)
               - c * d.domain_curvature(e[:, k], v, e[:, k], w)
               for k in range(d.m))
    value -= 4.0 / (1.0 + c) * curv
    return float(value)


def _reaction_on_frame(d: PointData, c: float, theta: Array) -> Array:
    """Reaction term evaluated on all adapted frame pairs."""
    m = d.m
    e = d.frames.e
    out = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            out[i, j] = out[j, i] = reaction_term_apply(d, c, theta, e[:, i], e[:, j])
    return out


# ---------------------------------------------------------------------------
# Finite-difference Laplacians
# ---------------------------------------------------------------------------

def _stencil_steps(m: int) -> Array:
    """Unit offsets of the central-difference stencil around a point, the
    point itself left out: ``+e_k, -e_k`` for each axis ``k``, then
    ``+e_k+e_l, +e_k-e_l, -e_k+e_l, -e_k-e_l`` for each ``k < l``."""
    eye = np.eye(m)
    axis = [sgn * eye[k] for k in range(m) for sgn in (1.0, -1.0)]
    corner = [a * eye[k] + b * eye[l] for k, l in combinations(range(m), 2)
              for a, b in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]
    return np.array(axis + corner)


def _stencil_block(d: PointData, step: float, count: int) -> GraphBlock:
    """The first ``count`` stencil neighbours of ``d.p`` at ``step``, as one block."""
    return graph_block(d.f, d.p.coords + step * _stencil_steps(d.m)[:count])


def _fd_partials(f0: Array, vals: Array, m: int, h: float) -> tuple[Array, Array]:
    """Central first and second differences, over an ``m``-dimensional
    chart, of a scalar or tensor field from its value ``f0`` at the point and
    its values ``vals`` on the stencil of :func:`_stencil_steps` (leading
    axis)."""
    fp, fm = vals[0:2 * m:2], vals[1:2 * m:2]
    du = (fp - fm) / (2.0 * h)
    d2u = np.empty((m, m, *np.shape(f0)))
    d2u[range(m), range(m)] = (fp - 2.0 * f0 + fm) / (h * h)
    for i, (k, l) in enumerate(combinations(range(m), 2)):
        pp, pm, mp, mm = vals[2 * m + 4 * i:2 * m + 4 * i + 4]
        d2u[k, l] = d2u[l, k] = (pp - pm - mp + mm) / (4.0 * h * h)
    return du, d2u


def _covariant_derivative(phi: Array, dphi: Array, gamma: Array) -> Array:
    """``T[l, i, j] = nabla_l phi_ij`` from chart partials and Christoffels;
    broadcasts over leading axes."""
    return (dphi - np.einsum("...pli,...pj->...lij", gamma, phi)
            - np.einsum("...plj,...ip->...lij", gamma, phi))


def rough_laplacian_fd(d: PointData, phi: Array, vals: Array, h: float) -> Array:
    """Rough Laplacian at ``d.p`` of a symmetric 2-tensor field with value
    ``phi`` there and values ``vals`` on the stencil at step ``h``.

    Chart partials of the field come from central differences; the
    connection corrections use the exact jet of the induced metric.
    """
    gamma, dgamma = d.gamma_g, d.dgamma_g
    dphi, d2phi = _fd_partials(phi, vals, d.m, h)

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
    return np.einsum("kl,klij->ij", d.ginv, nabla2)


def scalar_laplacian_fd(d: PointData, f0: float, vals: Array, h: float) -> float:
    """Laplace-Beltrami value at ``d.p`` of a scalar field with value ``f0``
    there and values ``vals`` on the stencil at step ``h`` (FD partials).

    A field whose stencil values agree to roundoff is treated as constant
    (zero Laplacian): dividing pure cancellation noise by ``h^2`` would
    otherwise masquerade as a derivative.
    """
    if np.max(np.abs(vals - f0)) < 5e-14 * (1.0 + abs(f0)):
        return 0.0
    du, d2u = _fd_partials(f0, vals, d.m, h)
    hess = d2u - np.einsum("pkl,p->kl", d.gamma_g, du)
    return float(np.einsum("kl,kl->", d.ginv, hess))


# ---------------------------------------------------------------------------
# The elliptic equation for the shifted tensor
# ---------------------------------------------------------------------------

def _is_parallel_field(d: PointData, c: float, probe_step: float = 0.05) -> bool:
    """Whether the shifted tensor field is covariantly parallel near ``d.p``.

    The exact covariant derivative is evaluated at the point and at its axis
    neighbours, one block: a vanishing derivative at the point alone would
    also accept isolated critical points of a non-parallel field.
    """
    probes = _stencil_block(d, probe_step, 2 * d.m)
    phi, dphi = (np.concatenate([at_p[None], near]) for at_p, near
                 in zip(d.shifted_jet(c), probes.shifted_jet(c)))
    gamma = np.concatenate([d.gamma_g[None], probes.gamma_g])
    nabla = _covariant_derivative(phi, dphi, gamma)
    return bool(np.all(np.abs(nabla).max(axis=(1, 2, 3))
                       < PARALLEL_TOL * (1.0 + np.abs(phi).max(axis=(1, 2)))))


def shifted_tensor_laplacian(d: PointData, c: float, h: float) -> Array:
    """Rough Laplacian of the shifted tensor field at ``d.p``.

    If the field is covariantly parallel (detected through its exact first
    chart derivatives at the point and nearby), the Laplacian vanishes
    identically and no finite differences are taken.
    """
    if _is_parallel_field(d, c):
        return np.zeros_like(d.g)
    stencil = _stencil_block(d, h, 2 * d.m * d.m)
    return rough_laplacian_fd(d, d.shifted_s(c),
                              shift_deficit(stencil.s, stencil.g, c), h)


def elliptic_equation_residual(d: PointData, c: float, h: float = 1e-3,
                               minimal_tol: float = MINIMAL_TOL) -> float:
    """Residual of ``Lap(Phi) + Psi(Phi) = 0`` on the adapted frame at ``d.p``.

    The equation in this homogeneous form holds for minimal maps only, so a
    point with mean curvature above ``minimal_tol`` is rejected.
    """
    if d.ext.h_norm >= minimal_tol:
        raise PreconditionError(
            f"map is not minimal at {d.p.coords} (|H| = {d.ext.h_norm:.3e})")
    lap = shifted_tensor_laplacian(d, c, h)
    psi = _reaction_on_frame(d, c, d.shifted_s(c))
    e = d.frames.e
    lap_frame = e.T @ lap @ e
    return float(np.abs(lap_frame + psi).max())


# ---------------------------------------------------------------------------
# Two-dimensional logarithmic Jacobian identity
# ---------------------------------------------------------------------------

def projection_jacobian(gm: Array, g: Array) -> Array:
    """Jacobian of the graph-to-domain projection, ``sqrt(det g_M / det g)``;
    broadcasts over leading axes."""
    return np.sqrt(np.linalg.det(gm) / np.linalg.det(g))


def jacobian_consistency_2d(d: PointData) -> float:
    """Gap between the determinant form and the singular-value closed form."""
    lam = d.frames.lambdas
    closed = 1.0 / np.sqrt(float(np.prod(1.0 + lam ** 2)))
    return abs(float(projection_jacobian(d.gm, d.g)) - closed)


def _normal_components_2d(d: PointData) -> Array:
    """``comp[gamma, i, j] = <A(e_i, e_j), xi_gamma>`` in the product metric."""
    xi = np.swapaxes(d.frames.normal, -1, -2)
    return product_form(d.gm, d.gn, d.ext.a_frame, xi[:, None, None])


def minimality_relations_residual_2d(d: PointData) -> float:
    """Residual of the trace relations between normal components of A.

    Minimality forces ``A^g_11 = -A^g_22`` for both normal directions.
    """
    comp = _normal_components_2d(d)
    return float(np.max([abs(comp[1, 0, 0] + comp[1, 1, 1]),
                         abs(comp[0, 1, 1] + comp[0, 0, 0])]))


def log_jacobian_residual_2d(d: PointData, h: float = 1e-3,
                             minimal_tol: float = MINIMAL_TOL) -> float:
    """Residual of the two-dimensional equation for ``ln`` of the projection Jacobian.

    Both dimensions must equal two and the map must be minimal at ``d.p``.
    The left side is the Laplace-Beltrami value (induced metric, FD partials
    of the pointwise-exact Jacobian field); the right side combines the
    normal components of the second fundamental form with the sectional
    curvatures of domain and target.
    """
    if d.m != 2 or d.n != 2:
        raise PreconditionError("identity needs dim M = dim N = 2")
    if d.ext.h_norm >= minimal_tol:
        raise PreconditionError(
            f"map is not minimal at {d.p.coords} (|H| = {d.ext.h_norm:.3e})")

    stencil = _stencil_block(d, h, 2 * d.m * d.m)
    lhs = scalar_laplacian_fd(
        d, float(np.log(projection_jacobian(d.gm, d.g))),
        np.log(projection_jacobian(stencil.jets.gm.g, stencil.g)), h)

    lam = d.frames.lambdas
    l1, l2 = float(lam[0]), float(lam[1])
    comp = _normal_components_2d(d)
    a_norm_sq = float(np.sum(comp ** 2))

    gm, gn = d.gm, d.gn
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
    gm = d.gm
    for _ in range(planes):
        u, v = rng.normal(size=m), rng.normal(size=m)
        area2 = (u @ gm @ u) * (v @ gm @ v) - (u @ gm @ v) ** 2
        if area2 < 1e-8 * (u @ gm @ u) * (v @ gm @ v):
            continue
        sec = d.domain_curvature(u, v, u, v) / area2
        if sec < sigma - tol:
            return f"domain sectional curvature {sec:.6g} below {sigma:.6g}"
    if n >= 2 and d.frames.rank >= 2:
        gn = d.gn
        for _ in range(planes):
            u, v = d.d1 @ rng.normal(size=m), d.d1 @ rng.normal(size=m)
            area2 = (u @ gn @ u) * (v @ gn @ v) - (u @ gn @ v) ** 2
            if area2 < 1e-8 * max((u @ gn @ u) * (v @ gn @ v), 1e-300):
                continue
            sec = float(np.einsum("abcd,a,b,c,d->", d.riem_n, u, v, u, v)) / area2
            if sec > sigma + tol:
                return f"target sectional curvature {sec:.6g} above {sigma:.6g}"
    return None


def null_eigenvector_probe(d: PointData, sigma: float, lambda0_sq: float,
                           kappa_sq: float | None = None,
                           rng: np.random.Generator | None = None,
                           n_draws: int = 20, tol: float = 1e-10) -> NullProbeResult:
    """Probe the null-eigenvector condition of the reaction term at ``d.p``.

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
    values, ric_terms = [], []
    for _ in range(n_draws):
        v = rng.normal(size=m)
        v = v / np.sqrt(float(v @ g @ v))
        proj = np.eye(m) - np.outer(v, g @ v)   # kills v, g-orthogonally
        W = rng.normal(size=(m, m))
        theta = proj.T @ (W.T @ W) @ proj
        theta = 0.5 * (theta + theta.T)
        scale = 1.0 + float(np.abs(theta).max())

        ric_v = d.ric_g_op @ v
        ric_terms.append(abs(float(ric_v @ theta @ v)) / scale)
        values.append(reaction_term_apply(d, lambda0_sq, theta, v, v) / scale)

    min_value = float(np.min(values, initial=np.inf))
    status = "pass" if min_value >= -tol else "fail"
    return NullProbeResult(status, "", min_value, n_draws,
                           float(np.max(ric_terms, initial=0.0)))


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


def extremum_derivative_probe(f: SmoothMap, grid: Array,
                              box: Array, c: float | None = None,
                              h: float = 1e-3, grad_tol: float | None = None,
                              lap_tol: float = 1e-4,
                              minimal_tol: float = MINIMAL_TOL) -> ExtremumProbeResult:
    """Locate the maximum of the top eigenvalue of the shifted tensor over
    the rows of ``grid`` and check the first/second derivative criteria there.

    At an interior maximum of the largest eigenvalue, the covariant
    derivative of the field must vanish on the top eigenvector (up to grid
    resolution) and the rough Laplacian must be non-positive there.  A
    maximum attained on the sampling-box boundary is inconclusive.
    """
    grid = np.asarray(grid, dtype=float)
    if not len(grid):
        raise ValueError("empty probe grid")
    box = np.asarray(box, dtype=float)
    blocks = list(graph_blocks(f, grid))
    h_max = np.max([np.max(blk.ext.h_norm) for blk in blocks])
    if np.isnan(h_max):
        return ExtremumProbeResult("fail", "mean curvature is NaN", None, np.nan,
                                   np.nan, np.nan, np.nan, lap_tol)
    if not h_max < minimal_tol:
        raise PreconditionError("probe needs a minimal scenario")

    if c is None:
        lam0_sq = float(np.max([np.max(blk.frames.lambdas[:, -1] ** 2)
                                for blk in blocks]))
        c = lam0_sq if lam0_sq > 1e-12 else 1.0

    top = np.concatenate([sym_eigen(shift_deficit(blk.s, blk.g, c), blk.g)[0][:, -1]
                          for blk in blocks])
    best = float(top.max())
    near = np.nonzero(top >= best - 1e-12 * (1.0 + abs(best)))[0]

    def boundary_distance(x: Array) -> float:
        return float(np.min(np.minimum(x - box[:, 0], box[:, 1] - x)))

    idx = max(near, key=lambda i: boundary_distance(grid[i]))
    d = PointData(blocks[idx // BLOCK_SIZE], idx % BLOCK_SIZE)
    spacing = float(np.max((box[:, 1] - box[:, 0])
                           / (max(len(grid), 2) ** (1.0 / box.shape[0]))))
    if grad_tol is None:
        grad_tol = 10.0 * spacing

    if boundary_distance(grid[idx]) <= 0.45 * spacing:
        return ExtremumProbeResult(
            "inconclusive", "maximum attained on the sampling-box boundary",
            grid[idx], c, np.nan, np.nan, grad_tol, lap_tol)

    vals, vecs = sym_eigen(d.shifted_s(c), d.g)
    v = vecs[:, -1]
    phi, dphi = d.shifted_jet(c)
    nabla = _covariant_derivative(phi, dphi, d.gamma_g)
    grad_vec = np.einsum("lij,i,j->l", nabla, v, v)
    grad_norm = float(np.sqrt(grad_vec @ d.ginv @ grad_vec))
    lap = shifted_tensor_laplacian(d, c, h)
    lap_vv = float(v @ lap @ v)

    ok = grad_norm < grad_tol and lap_vv < lap_tol
    return ExtremumProbeResult("pass" if ok else "fail", "",
                               grid[idx], c, grad_norm, lap_vv,
                               grad_tol, lap_tol)


# ---------------------------------------------------------------------------
# Final-chain sign structure at the probed maximum
# ---------------------------------------------------------------------------

def max_point_term_values(d: PointData, sigma: float, lambda0_sq: float) -> Array:
    """The six grouped terms bounding ``Lap(Phi)(e_m, e_m)`` at a maximum point.

    Each term is non-positive when the full hypothesis gate holds at the
    probed maximum of the top singular value; their sum bounds the Laplacian
    value from above, which forces every term to vanish there.  Term
    grouping follows the exact regrouping of the decompositions together
    with the normal estimate applied to the second-fundamental-form sum.
    """
    c = lambda0_sq
    if c < 0.0:
        raise InvalidParameterError("the squared top singular value cannot be negative")
    m = d.m
    t = _frame_terms(d, c, sigma, m - 1)     # the top singular direction
    coeff = 2.0 / (1.0 + c)
    return np.array([
        # normal estimate applied to the A-sum, plus the isolated trace part
        (4.0 / (1.0 + c)) * ((c - 1.0) * d.ext.a_norm_sq
                             - (c / (1.0 + c)) * sigma * t.tr_s),
        coeff * -2.0 * t.sec_n_sum,
        coeff * t.term2,
        coeff * t.term3,
        coeff * (sigma * (1.0 - c) / 2.0) * t.phi_ll * (t.tr_phi - t.phi_ll),
        coeff * -(2.0 * c * sigma / (1.0 + c)) * ((m - 2) * t.phi_ll - t.nu),
    ])


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


def _worst(values) -> float:
    """Largest value and 0.0 (a zero of either sign gives 0.0); NaN if any
    value is NaN."""
    return float(np.maximum(np.max(values, initial=-np.inf), 0.0))


def _not_run(name: str, tolerance: float, reason: str,
             nan_h: bool) -> IdentityReport:
    """A check for minimal maps that was not run: skipped for ``reason``, or
    failed with a NaN residual when a NaN mean curvature (``nan_h``) leaves
    minimality undecided."""
    if nan_h:
        return IdentityReport(name, 0, np.nan, tolerance, {})
    return IdentityReport(name, 0, 0.0, tolerance, {}, skipped_reason=reason)


def run_identity_suite(scenario, seed: int = 0, h: float = 1e-3,
                       c: float = 2.0,
                       tolerances: dict[str, float] | None = None,
                       n_points: int = 12,
                       n_tuples: int = 15) -> list[IdentityReport]:
    """Run every identity check applicable to the scenario's dimensions.

    The sample points are one :class:`GraphBlock`.  Checks whose
    preconditions the scenario does not meet (non-minimal scenarios for the
    elliptic equation, dimensions other than two for the Jacobian identity)
    are reported as skipped, not failed.  Every residual is reduced so that
    a NaN anywhere makes it NaN, which never passes; a NaN mean curvature
    fails the checks for minimal maps instead of skipping them.
    """
    tol = {**DEFAULT_IDENTITY_TOLERANCES, **(tolerances or {})}
    f = scenario.f
    sigma = scenario.sigma
    rng = np.random.default_rng(seed)
    reports: list[IdentityReport] = []

    datas = point_rows(f, scenario.random_points(n_points, rng))
    blk = datas[0].blk
    frames = blk.frames

    res = frame_residual_block(frames, blk.jets.gm.g, blk.jets.gn.g, blk.g)
    reports.append(IdentityReport("frame-formulas", n_points, _worst(res),
                                  tol["frame"], {"seed": seed}))

    vals, _ = sym_eigen(blk.s, blk.g)
    pred = np.sort((1.0 - frames.lambdas ** 2) / (1.0 + frames.lambdas ** 2), axis=-1)
    reports.append(IdentityReport("s-eigenvalue-formula", n_points,
                                  _worst(np.abs(vals - pred)),
                                  tol["s_eigenvalue"], {"seed": seed}))

    slacks = []
    for d in datas:
        lam2 = float(d.frames.lambdas[-1] ** 2)
        slacks += [normal_estimate_check(d, cc, rng=rng) for cc in (lam2, lam2 + 1.0)]
    worst = float(np.min(slacks))
    reports.append(IdentityReport(
        "normal-estimate", 2 * n_points, _worst([-worst]),
        tol["normal_estimate"], {"worst_slack": worst}))

    sides = []
    for _ in range(n_tuples):
        d = datas[int(rng.integers(0, n_points))]
        cc = float(rng.uniform(0.05, 10.0))
        sg = float(rng.uniform(-2.0, 2.0))
        sides.append(decomposition_sides(d, cc, sg, int(rng.integers(0, d.m))))
    lhs, rhs_grouped, rhs_traced = np.array(sides).reshape(n_tuples, 3).T
    for name, gap, key in (
            ("curvature-decomposition", lhs - rhs_grouped, "decomposition"),
            ("curvature-decomposition-traced", lhs - rhs_traced, "decomposition"),
            ("decomposition-forms-gap", rhs_grouped - rhs_traced, "decomposition_gap")):
        reports.append(IdentityReport(name, n_tuples, _worst(np.abs(gap)), tol[key],
                                      {"seed": seed}))

    minimal_here = bool(np.all(blk.ext.h_norm < MINIMAL_TOL))
    nan_h = bool(np.isnan(blk.ext.h_norm).any())
    sub = datas[: min(3, n_points)]

    if minimal_here:
        res = _worst([elliptic_equation_residual(d, c, h=h) for d in sub])
        reports.append(IdentityReport("elliptic-equation", len(sub), res,
                                      tol["elliptic"], {"c": c, "h": h}))
    else:
        reports.append(_not_run("elliptic-equation", tol["elliptic"],
                                "non-minimal scenario", nan_h))

    two_dim = f.domain.dim == 2 and f.target.dim == 2
    if two_dim and minimal_here:
        reports.append(IdentityReport(
            "log-jacobian-2d", len(sub),
            _worst([log_jacobian_residual_2d(d, h=h) for d in sub]),
            tol["log_jacobian"], {"h": h}))
        reports.append(IdentityReport(
            "minimality-relations-2d", len(sub),
            _worst([minimality_relations_residual_2d(d) for d in sub]),
            tol["minimality_relations"], {}))
        reports.append(IdentityReport(
            "jacobian-consistency-2d", len(sub),
            _worst([jacobian_consistency_2d(d) for d in sub]),
            tol["jacobian_consistency"], {}))
    else:
        reason = ("dimensions are not 2x2" if not two_dim
                  else "non-minimal scenario")
        for name in ("log-jacobian-2d", "minimality-relations-2d",
                     "jacobian-consistency-2d"):
            reports.append(_not_run(name, tol["log_jacobian"], reason,
                                    two_dim and nan_h))

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
            ratio = _worst([probe.grad_norm / probe.grad_tol,
                            probe.lap_value / probe.lap_tol])
            reports.append(IdentityReport(
                "extremum-probe", len(grid), ratio, tol["extremum"],
                {"point": probe.point.tolist(), "c": probe.c,
                 "grad_norm": probe.grad_norm, "lap_value": probe.lap_value}))
    else:
        reports.append(_not_run("extremum-probe", tol["extremum"],
                                "non-minimal scenario", nan_h))

    lam0_sq = float(np.max(frames.lambdas[:, -1] ** 2))
    kappa_sq = max(1.01, 1.01 * lam0_sq)
    probes = [null_eigenvector_probe(d, sigma, lam0_sq, kappa_sq, rng=rng)
              for d in datas[:6]]
    ran = [pr.min_value for pr in probes if pr.status != "skipped"]
    if not ran:
        reports.append(IdentityReport(
            "null-eigenvector-probe", 0, 0.0, tol["null_probe"], {},
            skipped_reason=f"hypotheses fail at all probe points: {probes[-1].reason}"))
    else:
        reports.append(IdentityReport(
            "null-eigenvector-probe", len(ran),
            _worst([-np.min(ran)]), tol["null_probe"],
            {"lambda0_sq": lam0_sq, "points_skipped": len(probes) - len(ran)}))

    return reports
