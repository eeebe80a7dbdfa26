"""Residual evaluation for the pointwise identities and estimates.

Each operation evaluates both sides of one displayed identity (or one
inequality) of the graph geometry and returns the residual (or the worst
slack).  The frame used for the frame-traced decompositions is always the
adapted frame, which diagonalizes both the domain metric and the pullback
metric; the curvature-to-sectional reductions are only valid there.

Every operation evaluates a stack of rows of a :class:`GraphBlock`
(:class:`PointData`; a point is the stack ``rows=[i]``) in one call, one
value per row, each with the bits of a single-point evaluation.  The
stencils and parallel-field probes of all rows are one block each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chart_manifold import curvature_form, matvec, powers, quadratic_form, sym_eigen
from .errors import InvalidParameterError, PreconditionError
from .extrinsic import MINIMAL_TOL, GraphBlock, graph_block, graph_blocks
from .graph_map import SmoothMap, frame_residual_block, shift_deficit
from .product_space import product_form

Array = np.ndarray

#: Covariant-derivative norm below which a tensor field counts as parallel
#: and its rough Laplacian is taken to vanish identically.
PARALLEL_TOL = 1e-10


# ---------------------------------------------------------------------------
# Rows of a block
# ---------------------------------------------------------------------------

def _rows(a: Array, rows: Array) -> Array:
    """Rows ``rows`` of a block column, rows outermost in memory and each
    row's components laid out as in a row view of the block: einsum's
    summation order and matmul's choice of BLAS follow the strides."""
    row = a[0]
    if row.flags.c_contiguous:
        return a[rows]
    order = sorted(range(row.ndim), key=lambda i: (row.strides[i], i), reverse=True)
    buf = np.empty((len(rows), *[row.shape[i] for i in order], 2), dtype=a.dtype)
    out = buf[..., 0].transpose(0, *[1 + order.index(i) for i in range(row.ndim)])
    out[...] = a[rows]
    return out


def _expand(a: Array, k: int) -> Array:
    """A per-row array with ``k`` unit axes after the row axis."""
    return a.reshape(a.shape[0], *(1,) * k, *a.shape[1:])


class PointData:
    """Rows ``rows`` of a :class:`GraphBlock`, as the identity checks read them.

    ``d.x`` stacks the rows of the block's column ``x`` (``g``, ``s``,
    ``trace_s``, ``ginv``, ``gamma_g``, ``dgamma_g``, ``riem_m``, ``riem_n``,
    ``ric_m``, ``ric_g_op``, ``coords``, ``d1``, ``gm``, ``gn``), of its
    adapted frames (``lambdas``, ``rank``, ``e``, ``normal``) or of its
    second fundamental form (``a_frame``, ``a_coord``, ``a_norm_sq``,
    ``h_norm``).  The block computes each column once for all its points.
    """

    def __init__(self, blk: GraphBlock, rows):
        self.blk, self.f = blk, blk.f
        self.rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        self.m, self.n = self.f.domain.dim, self.f.target.dim

    def __len__(self) -> int:
        return len(self.rows)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        blk = self.blk
        record = (blk if hasattr(blk, name) else blk.frames if hasattr(blk.frames, name)
                  else blk.ext)
        self.__dict__[name] = value = _rows(getattr(record, name), self.rows)
        return value

    def take(self, which) -> "PointData":
        """The rows ``which`` of this stack."""
        return PointData(self.blk, self.rows[which])

    def shifted_s(self, c: float) -> Array:
        return shift_deficit(self.s, self.g, c)

    def shifted_jet(self, c: float) -> tuple[Array, Array]:
        """Value and exact first chart derivatives of the shifted tensor field."""
        return tuple(_rows(x, self.rows) for x in self.blk.shifted_jet(c))


def point_rows(f: SmoothMap, points) -> PointData:
    """The points (chart points or coordinate rows) as the rows of one block."""
    coords = np.array([getattr(p, "coords", p) for p in points], dtype=float)
    return PointData(graph_block(f, coords), np.arange(len(coords)))


def _curvatures(d: PointData, u: Array, v: Array, w: Array, z: Array) -> tuple:
    """``R_N(df u, df v, df w, df z)`` and ``R_M(u, v, w, z)`` on stacks of
    vectors whose first axis is the row."""
    d1, riem_n, riem_m = (_expand(x, u.ndim - 2) for x in (d.d1, d.riem_n, d.riem_m))
    pushed = (matvec(d1, x) for x in (u, v, w, z))
    return curvature_form(riem_n, *pushed), curvature_form(riem_m, u, v, w, z)


def _require_minimal(d: PointData, minimal_tol: float) -> None:
    bad = np.flatnonzero(d.h_norm >= minimal_tol)
    if len(bad):
        raise PreconditionError(f"map is not minimal at {d.coords[bad[0]]} "
                                f"(|H| = {d.h_norm[bad[0]]:.3e})")


# ---------------------------------------------------------------------------
# Normal estimate for the split-signature form
# ---------------------------------------------------------------------------

def normal_estimate_check(d: PointData, c, rng: np.random.Generator | None = None,
                          n_mixtures: int = 20) -> Array:
    """Worst slack of the normal-cone estimate ``((c-1)/(1+c)) |eta|^2 -
    s_prod(eta, eta) >= 0`` (for ``c >= lambda_max^2``) over the adapted
    normal frame vectors, ``n_mixtures`` random normal combinations (drawn
    row by row, shift by shift) and the vectors ``A(e_i, e_j)``.  The shift
    ``c`` is shared or per row (first axis; further axes: more shifts); the
    result has its shape, and is NaN where a slack is.
    """
    c = np.asarray(c, dtype=float)
    c = np.full(len(d), c) if c.ndim == 0 else c
    k = c.ndim
    lam_max_sq = _expand(d.lambdas[:, -1] ** 2, k - 1)
    if np.any(c < lam_max_sq - 1e-12 * (1.0 + lam_max_sq)):
        raise PreconditionError(f"estimate needs c >= lambda_max^2 = "
                                f"{np.max(lam_max_sq):.6g}, got {np.min(c):.6g}")
    rng = rng or np.random.default_rng(0)
    bound = (c - 1.0) / (1.0 + c)

    # the normal frame vectors, random mixtures of them (summed column by
    # column) and the vectors A(e_i, e_j), as rows of one stack per shift
    xi = _expand(np.swapaxes(d.normal, -1, -2), k - 1)
    coeff = rng.normal(size=(*c.shape, n_mixtures, d.n))
    mixtures = sum(coeff[..., i, None] * xi[..., i, None, :] for i in range(d.n))
    a = _expand(d.a_frame.reshape(len(d), d.m * d.m, -1), k - 1)
    eta = np.concatenate([np.broadcast_to(x, (*c.shape, *x.shape[k:]))
                          for x in (xi, mixtures, a)], axis=-2)
    gm, gn = (_expand(x, k) for x in (d.gm, d.gn))
    slacks = (bound[..., None] * product_form(gm, gn, eta, eta)
              - product_form(gm, -gn, eta, eta))
    return np.min(slacks, axis=-1)


# ---------------------------------------------------------------------------
# Decompositions of the frame-traced curvature sum
# ---------------------------------------------------------------------------

def _running_sum(x: Array, keep: Array) -> Array:
    """Python's ``sum`` of the entries ``keep`` selects on the last axis."""
    total = np.zeros(x.shape[:-1])
    for k in range(x.shape[-1]):
        total = total + np.where(keep[..., k], x[..., k], 0.0)
    return total


def _frame_terms(d: PointData, c, sigma, l) -> tuple:
    """Per-row pieces of the curvature sum in direction ``e_l`` (``c``,
    ``sigma``, ``l`` per row or shared), valid in the adapted frame only:

    * ``lhs = 2 sum_k (R_N(df e_k, df e_l, ..) - c R_M(e_k, e_l, ..))``;
    * ``sec_n_sum = sum_{k != l} (sigma - sec_N) |df e_k|^2 |df e_l|^2``;
    * ``grouped_sum``, the same plus ``sigma phi_ll |df e_k|^2`` under it;
    * ``term2 = -c g_M(e_l, e_l) sum_{k != l} phi_kk (sec_M - sigma)``;
    * ``term3``, the Ricci term of the domain; ``s_ll``, ``phi_ll``,
      ``tr_s``, ``tr_phi`` and ``nu``.
    """
    m, at = d.m, np.arange(len(d))
    c, sigma, l = (np.broadcast_to(x, (len(d),)) for x in (c, sigma, l))
    e = d.e
    e_t = np.swapaxes(e, -1, -2)
    df_e = d.d1 @ e                      # df_e[:, :, k] = df(e_k)
    nu = (1.0 - c) / (1.0 + c)

    gm_ee = e_t @ d.gm @ e               # domain metric on the frame
    fgn_ee = np.swapaxes(df_e, -1, -2) @ d.gn @ df_e    # pullback metric on the frame
    gm_kk, fgn_kk = (np.diagonal(x, axis1=-2, axis2=-1) for x in (gm_ee, fgn_ee))
    gm_ll, fgn_ll = gm_kk[at, l], fgn_kk[at, l]
    s_ee = gm_kk - fgn_kk
    phi_ee = s_ee - nu[:, None]
    phi_ll = phi_ee[at, l]
    tr_s = d.trace_s

    e_l = e[at, :, l][:, None]
    fRN, RM = _curvatures(d, e_t, e_l, e_t, e_l)

    others = np.arange(m) != l[:, None]  # the sums run over k != l, in order
    # (sigma - sec_N) f*g_N(e_k,e_k) f*g_N(e_l,e_l), written through the
    # curvature value to stay finite when df(e_k) or df(e_l) vanishes
    sec_n_excess = sigma[:, None] * fgn_kk * fgn_ll[:, None] - fRN
    # sec_M(e_k ^ e_l) is always defined: the frame vectors are independent
    area_m = (gm_kk * gm_ll[:, None]
              - powers(gm_ee[at, :, l].ravel(), 2).reshape(len(d), m))
    sec_m = RM / np.where(others, area_m, 1.0)
    ric_m_ll = (e_l @ d.ric_m @ np.swapaxes(e_l, -1, -2))[:, 0, 0]

    return (2.0 * np.sum(fRN - c[:, None] * RM, axis=-1),
            _running_sum(sec_n_excess, others),
            _running_sum(sec_n_excess + sigma[:, None] * phi_ll[:, None] * fgn_kk, others),
            -c * gm_ll * _running_sum(phi_ee * (sec_m - sigma[:, None]), others),
            -(2.0 * c / (1.0 + c)) * (ric_m_ll - (m - 1) * sigma * gm_ll),
            s_ee[at, l], phi_ll, tr_s, tr_s - m * nu, nu)


def decomposition_sides(d: PointData, c, sigma, l) -> tuple[Array, Array, Array]:
    """Left side and both decomposed right sides (grouped five-term and
    trace-isolating seven-term forms) of the curvature-sum identity at each
    row, for ``c``, ``sigma`` and ``l`` per row or shared; the two right
    sides differ by a purely algebraic rearrangement."""
    if np.any(np.asarray(c) <= 0.0):
        raise InvalidParameterError(f"decomposition needs c > 0, got {c}")
    (lhs, sec_n_sum, grouped_sum, term2, term3,
     s_ll, phi_ll, tr_s, tr_phi, nu) = _frame_terms(d, c, sigma, l)
    rhs_grouped = (-2.0 * grouped_sum + term2 + term3
                   - (2.0 * sigma * c / (1.0 + c)) * (tr_s - s_ll)
                   - (sigma * (1.0 + c) / 2.0) * phi_ll * (tr_phi - phi_ll))
    rhs_traced = (-2.0 * sec_n_sum + term2 + term3
                  - (2.0 * c * sigma / (1.0 + c)) * tr_s
                  + (sigma * (1.0 - c) / 2.0) * phi_ll * (tr_phi - phi_ll)
                  - (2.0 * c * sigma / (1.0 + c)) * ((d.m - 2) * phi_ll - nu))
    return lhs, rhs_grouped, rhs_traced


# ---------------------------------------------------------------------------
# The reaction term
# ---------------------------------------------------------------------------

def reaction_term_apply(d: PointData, c: float, theta: Array, v: Array,
                        w: Array) -> Array:
    """Value of the fiberwise reaction term on ``theta`` at ``(v, w)``.

    ``theta`` is a symmetric 2-tensor in chart components; ``v``, ``w`` are
    chart vectors.  The Ricci operator is the one of the induced metric.
    Their first axis is the row of ``d``, and they broadcast over further
    leading axes: one value per element, rounded as a single evaluation is.
    """
    if c <= -1.0:
        raise InvalidParameterError(f"reaction term needs c > -1, got {c}")
    theta, v, w = (np.asarray(x, dtype=float) for x in (theta, v, w))
    k = v.ndim - 2

    ric_g_op = _expand(d.ric_g_op, k)
    ric_v, ric_w = matvec(ric_g_op, v), matvec(ric_g_op, w)
    value = -quadratic_form(ric_v, theta, w) - quadratic_form(ric_w, theta, v)

    e = _expand(d.e, k)
    nu = (1.0 - c) / (1.0 + c)
    a_coord = _expand(d.a_coord, k)
    a_v = np.einsum("...ijc,...ik,...j->...kc", a_coord, e, v)    # A(e_k, v)
    a_w = np.einsum("...ijc,...ik,...j->...kc", a_coord, e, w)
    # the shifted split form s_prod - ((1-c)/(1+c)) g_prod on each pair,
    # subtracted one at a time to keep the rounding of a running sum
    gm, gn = (_expand(x, k + 1) for x in (d.gm, d.gn))
    for term in np.moveaxis(product_form(gm, -gn, a_v, a_w)
                            - nu * product_form(gm, gn, a_v, a_w), -1, 0):
        value -= 2.0 * term

    # frame vector e_k on the last axis, summed over k as a running sum
    e_t = np.swapaxes(e, -1, -2)
    fRN, RM = _curvatures(d, e_t, v[..., None, :], e_t, w[..., None, :])
    value -= 4.0 / (1.0 + c) * sum(np.moveaxis(fRN - c * RM, -1, 0))
    return value


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
    """Every row's first ``count`` stencil neighbours at ``step``, as one block."""
    near = d.coords[:, None] + step * _stencil_steps(d.m)[:count]
    return graph_block(d.f, near.reshape(-1, d.m))


def _per_row(values: Array, count: int) -> Array:
    """Stencil-block values as ``(row, count, ...)``, each row's neighbours
    laid out as a block of their own."""
    values = values.reshape(-1, count, *values.shape[1:])
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, 1, -1)), -1, 1)


def _fd_partials(f0: Array, vals: Array, m: int, h: float) -> tuple[Array, Array]:
    """Central first and second differences of a scalar or tensor field per
    row, from its value ``f0`` at the point and its values ``vals`` on the
    stencil of :func:`_stencil_steps` (second axis)."""
    fp, fm = vals[:, 0:2 * m:2], vals[:, 1:2 * m:2]
    du = (fp - fm) / (2.0 * h)
    d2u = np.empty((len(f0), m, m, *np.shape(f0)[1:]))
    d2u[:, range(m), range(m)] = (fp - 2.0 * _expand(f0, 1) + fm) / (h * h)
    for i, (k, l) in enumerate(combinations(range(m), 2)):
        pp, pm, mp, mm = np.moveaxis(vals[:, 2 * m + 4 * i:2 * m + 4 * i + 4], 1, 0)
        d2u[:, k, l] = d2u[:, l, k] = (pp - pm - mp + mm) / (4.0 * h * h)
    return du, d2u


def _covariant_derivative(phi: Array, dphi: Array, gamma: Array) -> Array:
    """``T[l, i, j] = nabla_l phi_ij`` from chart partials and Christoffels;
    broadcasts over leading axes."""
    return (dphi - np.einsum("...pli,...pj->...lij", gamma, phi)
            - np.einsum("...plj,...ip->...lij", gamma, phi))


def rough_laplacian_fd(d: PointData, phi: Array, vals: Array, h: float) -> Array:
    """Rough Laplacian at each row of a symmetric 2-tensor field with value
    ``phi`` there and values ``vals`` on the row's stencil at step ``h``:
    chart partials from central differences, connection corrections from
    the exact jet of the induced metric."""
    gamma, dgamma = d.gamma_g, d.dgamma_g
    dphi, d2phi = _fd_partials(phi, vals, d.m, h)

    T = _covariant_derivative(phi, dphi, gamma)
    dT = (d2phi
          - np.einsum("...kpli,...pj->...klij", dgamma, phi)
          - np.einsum("...pli,...kpj->...klij", gamma, dphi)
          - np.einsum("...kplj,...ip->...klij", dgamma, phi)
          - np.einsum("...plj,...kip->...klij", gamma, dphi))
    nabla2 = (dT
              - np.einsum("...pkl,...pij->...klij", gamma, T)
              - np.einsum("...pki,...lpj->...klij", gamma, T)
              - np.einsum("...pkj,...lip->...klij", gamma, T))
    return np.einsum("...kl,...klij->...ij", d.ginv, nabla2)


def scalar_laplacian_fd(d: PointData, f0: Array, vals: Array, h: float) -> Array:
    """Laplace-Beltrami value at each row of a scalar field with value ``f0``
    there and values ``vals`` on the row's stencil at step ``h``.

    A field whose stencil values agree to roundoff is treated as constant
    (zero Laplacian): dividing pure cancellation noise by ``h^2`` would
    otherwise masquerade as a derivative.
    """
    constant = np.max(np.abs(vals - f0[:, None]), axis=1) < 5e-14 * (1.0 + np.abs(f0))
    du, d2u = _fd_partials(f0, vals, d.m, h)
    hess = d2u - np.einsum("...pkl,...p->...kl", d.gamma_g, du)
    return np.where(constant, 0.0, np.einsum("...kl,...kl->...", d.ginv, hess))


# ---------------------------------------------------------------------------
# The elliptic equation for the shifted tensor
# ---------------------------------------------------------------------------

def shifted_tensor_laplacian(d: PointData, c: float, h: float,
                             probe_step: float = 0.05) -> Array:
    """Rough Laplacian of the shifted tensor field at each row: zero where
    the field is parallel (exact covariant derivative vanishing at the point
    and at its axis neighbours at ``probe_step``, not at an isolated
    critical point alone), else from one stencil block for those rows."""
    count = 2 * d.m
    probes = _stencil_block(d, probe_step, count)
    phi, dphi, gamma = (
        np.concatenate([_expand(at_p, 1), _per_row(near, count)], axis=1)
        for at_p, near in zip((*d.shifted_jet(c), d.gamma_g),
                              (*probes.shifted_jet(c), probes.gamma_g)))
    nabla = _covariant_derivative(phi, dphi, gamma)
    rough = ~np.all(np.abs(nabla).max(axis=(2, 3, 4))
                    < PARALLEL_TOL * (1.0 + np.abs(phi).max(axis=(2, 3))), axis=1)
    lap = np.zeros((len(d), d.m, d.m))
    if rough.any():
        sub, count = d.take(rough), 2 * d.m * d.m
        stencil = _stencil_block(sub, h, count)
        vals = _per_row(shift_deficit(stencil.s, stencil.g, c), count)
        lap[rough] = rough_laplacian_fd(sub, sub.shifted_s(c), vals, h)
    return lap


def elliptic_equation_residual(d: PointData, c: float, h: float = 1e-3,
                               minimal_tol: float = MINIMAL_TOL) -> Array:
    """Residual of ``Lap(Phi) + Psi(Phi) = 0`` on the adapted frame at each
    row.  The equation in this homogeneous form holds for minimal maps only,
    so a point with mean curvature above ``minimal_tol`` is rejected."""
    _require_minimal(d, minimal_tol)
    lap = shifted_tensor_laplacian(d, c, h)
    e_t = np.swapaxes(d.e, -1, -2)
    i, j = np.triu_indices(d.m)
    psi = np.empty((len(d), d.m, d.m))
    psi[:, i, j] = psi[:, j, i] = reaction_term_apply(
        d, c, _expand(d.shifted_s(c), 1), np.ascontiguousarray(e_t[:, i]),
        np.ascontiguousarray(e_t[:, j]))
    return np.abs(e_t @ lap @ d.e + psi).max(axis=(1, 2))


# ---------------------------------------------------------------------------
# Two-dimensional logarithmic Jacobian identity
# ---------------------------------------------------------------------------

def projection_jacobian(gm: Array, g: Array) -> Array:
    """Jacobian of the graph-to-domain projection, ``sqrt(det g_M / det g)``;
    broadcasts over leading axes."""
    return np.sqrt(np.linalg.det(gm) / np.linalg.det(g))


def jacobian_consistency_2d(d: PointData) -> Array:
    """Gap between the determinant form and the singular-value closed form."""
    closed = 1.0 / np.sqrt(np.prod(1.0 + d.lambdas ** 2, axis=-1))
    return np.abs(projection_jacobian(d.gm, d.g) - closed)


def _normal_components_2d(d: PointData) -> Array:
    """``comp[:, gamma, i, j] = <A(e_i, e_j), xi_gamma>`` in the product metric."""
    xi = np.swapaxes(d.normal, -1, -2)
    return product_form(_expand(d.gm, 3), _expand(d.gn, 3), _expand(d.a_frame, 1),
                        xi[:, :, None, None])


def minimality_relations_residual_2d(d: PointData) -> Array:
    """Residual of the trace relations between normal components of A:
    minimality forces ``A^g_11 = -A^g_22`` for both normal directions."""
    comp = _normal_components_2d(d)
    return np.maximum(np.abs(comp[:, 1, 0, 0] + comp[:, 1, 1, 1]),
                      np.abs(comp[:, 0, 1, 1] + comp[:, 0, 0, 0]))


def log_jacobian_residual_2d(d: PointData, h: float = 1e-3,
                             minimal_tol: float = MINIMAL_TOL) -> Array:
    """Residual at each row of the 2x2-dimensional equation for ``ln`` of the
    projection Jacobian of a minimal map: the Laplace-Beltrami value (FD
    partials of the exact Jacobian field) against the normal components of
    the second fundamental form and the sectional curvatures."""
    if d.m != 2 or d.n != 2:
        raise PreconditionError("identity needs dim M = dim N = 2")
    _require_minimal(d, minimal_tol)

    count = 2 * d.m * d.m
    stencil = _stencil_block(d, h, count)
    lhs = scalar_laplacian_fd(
        d, np.log(projection_jacobian(d.gm, d.g)),
        _per_row(np.log(projection_jacobian(stencil.gm, stencil.g)), count), h)

    l1, l2 = d.lambdas.T
    comp = _normal_components_2d(d)
    c = comp.reshape(len(d), 8)          # comp[:, g, i, j] is c[:, 4 g + 2 i + j]
    # the squares of single values, rounded as libm pow rounds them
    l1s, l2s, c2 = (powers(x.ravel(), 2).reshape(x.shape) for x in (l1, l2, c))
    gm, gn = d.gm, d.gn
    sec_m = d.riem_m[:, 0, 1, 0, 1] / (gm[:, 0, 0] * gm[:, 1, 1] - powers(gm[:, 0, 1], 2))
    sec_n = d.riem_n[:, 0, 1, 0, 1] / (gn[:, 0, 0] * gn[:, 1, 1] - powers(gn[:, 0, 1], 2))
    rhs = (-np.sum(comp ** 2, axis=(1, 2, 3))
           - l1s * (c2[:, 0] + c2[:, 1]) - l2s * (c2[:, 5] + c2[:, 7])
           - 2.0 * l1 * l2 * (c[:, 4] * c[:, 2] + c[:, 5] * c[:, 3])
           - ((l1s + l2s) * sec_m - 2.0 * l1s * l2s * sec_n)
           / ((1.0 + l1s) * (1.0 + l2s)))
    return np.abs(lhs - rhs)


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


def _skip_reason(d: PointData, r: int, sigma: float, lambda0_sq: float,
                 kappa_sq: float | None, rng: np.random.Generator, planes: int = 4,
                 tol: float = 1e-9) -> str | None:
    """Why the null probe does not run at row ``r``, or None if it does: the
    curvature separation, then for ``lambda0_sq >= 1`` the other hypotheses."""
    # planes are drawn one at a time, the first violation ends the draws;
    # target planes are images under df, probed where df has rank two
    target = d.n >= 2 and d.rank[r] >= 2
    for side in ("domain", "target")[:1 + target]:
        g, riem = (d.gm[r], d.riem_m[r]) if side == "domain" else (d.gn[r], d.riem_n[r])
        for _ in range(planes):
            u, v = rng.normal(size=d.m), rng.normal(size=d.m)
            if side == "target":
                u, v = d.d1[r] @ u, d.d1[r] @ v
            uu, vv = u @ g @ u, v @ g @ v
            area2 = uu * vv - (u @ g @ v) ** 2
            if area2 < (1e-8 * uu * vv if side == "domain" else 1e-8 * max(uu * vv, 1e-300)):
                continue
            sec = float(curvature_form(riem, u, v, u, v)) / area2
            if sec < sigma - tol if side == "domain" else sec > sigma + tol:
                return (f"{side} sectional curvature {sec:.6g} "
                        f"{'below' if side == 'domain' else 'above'} {sigma:.6g}")
    if lambda0_sq < 1.0:
        return None
    trace_s = d.trace_s[r]
    if trace_s < -1e-9:
        return f"trace condition fails ({trace_s:.6g} < 0)"
    if kappa_sq is None:
        raise PreconditionError("kappa_sq is required when lambda0_sq >= 1")
    lam_max_sq = float(d.lambdas[r, -1] ** 2)
    if not (kappa_sq > 1.0 + 1e-9 and lam_max_sq < kappa_sq - 1e-9):
        return (f"pullback bound fails (lambda^2 = {lam_max_sq:.6g},"
                f" kappa^2 = {kappa_sq:.6g})")
    bound = kappa_sq * sigma / (kappa_sq ** 2 - 1.0) * trace_s
    a_norm_sq = d.a_norm_sq[r]
    if a_norm_sq > bound + 1e-9:
        return f"second-fundamental-form bound fails ({a_norm_sq:.6g} > {bound:.6g})"
    return None


def null_eigenvector_probe(d: PointData, sigma: float, lambda0_sq: float,
                           kappa_sq: float | None = None,
                           rng: np.random.Generator | None = None,
                           n_draws: int = 20,
                           tol: float = 1e-10) -> list[NullProbeResult]:
    """Probe the null-eigenvector condition of the reaction term at each row.

    Draws random positive semi-definite tensors with a prescribed unit null
    direction v (built by projecting a random Gram matrix onto the
    g-orthogonal complement of v) and checks that the reaction term at shift
    ``lambda0_sq`` is non-negative on (v, v).

    A row whose preconditions (the two branches of the rigidity argument,
    see :func:`_skip_reason`) fail is skipped.  The rows are checked, and
    their draws taken, in turn; the reaction term then runs once.
    """
    rng = rng or np.random.default_rng(0)
    if sigma <= 0.0:
        return [NullProbeResult("skipped", "needs a positive pinching level",
                                np.inf, 0, 0.0)] * len(d)
    m = d.m
    reasons, draws = [], []
    for r in range(len(d)):
        reasons.append(_skip_reason(d, r, sigma, lambda0_sq, kappa_sq, rng))
        if reasons[-1] is None:
            # each row holds one draw's v, then its Gram factor W
            draws.append(rng.normal(size=(n_draws, m + m * m)))

    ran = d.take([r for r, reason in enumerate(reasons) if reason is None])
    draws = np.reshape(draws, (len(ran), n_draws, m + m * m))
    g = _expand(ran.g, 1)
    v = draws[..., :m]
    v = v / np.sqrt(quadratic_form(v, g, v))[..., None]
    proj = np.eye(m) - v[..., :, None] * matvec(g, v)[..., None, :]  # kills v, g-orthogonally
    W = draws[..., m:].reshape(len(ran), n_draws, m, m)
    theta = np.swapaxes(proj, -1, -2) @ (np.swapaxes(W, -1, -2) @ W) @ proj
    theta = 0.5 * (theta + np.swapaxes(theta, -1, -2))
    scale = 1.0 + np.abs(theta).max(axis=(-2, -1))

    ric_terms = np.abs(quadratic_form(matvec(_expand(ran.ric_g_op, 1), v), theta, v)) / scale
    values = reaction_term_apply(ran, lambda0_sq, theta, v, v) / scale
    per_row = iter(zip(np.min(values, axis=-1, initial=np.inf).tolist(),
                       np.max(ric_terms, axis=-1, initial=0.0).tolist()))
    results = []
    for reason in reasons:
        low, ric = (np.inf, 0.0) if reason else next(per_row)
        status = "skipped" if reason else "pass" if low >= -tol else "fail"
        results.append(NullProbeResult(status, reason or "", low,
                                       0 if reason else n_draws, ric))
    return results


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
    # keep only the columns the probe reduces, one block alive at a time
    h_max, lam0_sq, tensors = [], [], []
    for rows, blk in graph_blocks(f, grid):
        h_max.append(np.max(blk.ext.h_norm))
        lam0_sq.append(np.max(blk.frames.lambdas[:, -1] ** 2))
        tensors.append((rows, blk.s, blk.g))
        del blk
    h_max = np.max(h_max)
    if np.isnan(h_max):
        return ExtremumProbeResult("fail", "mean curvature is NaN", None, np.nan,
                                   np.nan, np.nan, np.nan, lap_tol)
    if not h_max < minimal_tol:
        raise PreconditionError("probe needs a minimal scenario")

    if c is None:
        lam0_sq = float(np.max(lam0_sq))
        c = lam0_sq if lam0_sq > 1e-12 else 1.0

    top = np.concatenate([sym_eigen(shift_deficit(s, g, c), g)[0][:, -1]
                          for _, s, g in tensors])
    best = float(top.max())
    near = np.nonzero(top >= best - 1e-12 * (1.0 + abs(best)))[0]

    def boundary_distance(x: Array) -> Array:
        return np.min(np.minimum(x - box[:, 0], box[:, 1] - x), axis=-1)

    # the first of the nearly maximal rows farthest from the boundary
    idx = near[np.argmax(boundary_distance(grid[near]))]
    spacing = float(np.max((box[:, 1] - box[:, 0])
                           / (max(len(grid), 2) ** (1.0 / box.shape[0]))))
    if grad_tol is None:
        grad_tol = 10.0 * spacing

    if boundary_distance(grid[idx]) <= 0.45 * spacing:
        return ExtremumProbeResult(
            "inconclusive", "maximum attained on the sampling-box boundary",
            grid[idx], c, np.nan, np.nan, grad_tol, lap_tol)

    # the maximum's row with a neighbour from its block's slice: a block of
    # two or more rows gives a row the bits it has in its grid block
    rows = next(rows for rows, _, _ in tensors if idx < rows.stop)
    pair = [idx, idx + 1 if idx + 1 < rows.stop else max(idx - 1, rows.start)]
    d = PointData(graph_block(f, grid[pair]), [0])
    v = sym_eigen(d.shifted_s(c), d.g)[1][..., -1]
    nabla = _covariant_derivative(*d.shifted_jet(c), d.gamma_g)
    grad_vec = np.einsum("...lij,...i,...j->...l", nabla, v, v)
    grad_norm = float(np.sqrt(grad_vec @ d.ginv @ grad_vec[..., None])[0, 0, 0])
    lap = shifted_tensor_laplacian(d, c, h)
    lap_vv = float((v[:, None] @ lap @ v[..., None])[0, 0, 0])

    ok = grad_norm < grad_tol and lap_vv < lap_tol
    return ExtremumProbeResult("pass" if ok else "fail", "", grid[idx], c,
                               grad_norm, lap_vv, grad_tol, lap_tol)


# ---------------------------------------------------------------------------
# Final-chain sign structure at the probed maximum
# ---------------------------------------------------------------------------

def max_point_term_values(d: PointData, sigma: float, lambda0_sq: float) -> Array:
    """The six grouped terms bounding ``Lap(Phi)(e_m, e_m)`` at a maximum
    point, per row: each is non-positive where the full hypothesis gate
    holds, and their sum bounds the Laplacian from above.  The grouping is
    the decompositions' with the normal estimate applied to the A-sum."""
    c = lambda0_sq
    if c < 0.0:
        raise InvalidParameterError("the squared top singular value cannot be negative")
    m = d.m
    _, sec_n_sum, _, term2, term3, _, phi_ll, tr_s, tr_phi, nu = _frame_terms(
        d, c, sigma, m - 1)                  # the top singular direction
    coeff = 2.0 / (1.0 + c)
    return np.stack([
        # normal estimate applied to the A-sum, plus the isolated trace part
        (4.0 / (1.0 + c)) * ((c - 1.0) * d.a_norm_sq - (c / (1.0 + c)) * sigma * tr_s),
        coeff * -2.0 * sec_n_sum,
        coeff * term2,
        coeff * term3,
        coeff * (sigma * (1.0 - c) / 2.0) * phi_ll * (tr_phi - phi_ll),
        coeff * -(2.0 * c * sigma / (1.0 + c)) * ((m - 2) * phi_ll - nu),
    ], axis=-1)


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
    """A check for minimal maps not run: skipped for ``reason``, or failed
    (NaN) where a NaN mean curvature (``nan_h``) leaves minimality open."""
    if nan_h:
        return IdentityReport(name, 0, np.nan, tolerance, {})
    return IdentityReport(name, 0, 0.0, tolerance, {}, skipped_reason=reason)


def run_identity_suite(scenario, seed: int = 0, h: float = 1e-3,
                       c: float = 2.0,
                       tolerances: dict[str, float] | None = None,
                       n_points: int = 12,
                       n_tuples: int = 15) -> list[IdentityReport]:
    """Run every identity check applicable to the scenario's dimensions.

    The sample points are one :class:`GraphBlock`; each check evaluates all
    its rows (or tuples) in one call, after the draws it needs.  A check
    whose preconditions fail (a non-minimal map, dimensions other than two)
    is skipped, not failed.  A NaN residual never passes; a NaN mean
    curvature fails the checks for minimal maps instead of skipping them.
    """
    tol = {**DEFAULT_IDENTITY_TOLERANCES, **(tolerances or {})}
    f = scenario.f
    sigma = scenario.sigma
    rng = np.random.default_rng(seed)
    reports: list[IdentityReport] = []

    d = point_rows(f, scenario.random_points(n_points, rng))
    blk = d.blk
    frames = blk.frames

    res = frame_residual_block(frames, blk.gm, blk.gn, blk.g)
    reports.append(IdentityReport("frame-formulas", n_points, _worst(res),
                                  tol["frame"], {"seed": seed}))

    vals, _ = sym_eigen(blk.s, blk.g)
    pred = np.sort((1.0 - frames.lambdas ** 2) / (1.0 + frames.lambdas ** 2), axis=-1)
    reports.append(IdentityReport("s-eigenvalue-formula", n_points,
                                  _worst(np.abs(vals - pred)),
                                  tol["s_eigenvalue"], {"seed": seed}))

    lam2 = powers(frames.lambdas[:, -1], 2)
    worst = float(np.min(normal_estimate_check(
        d, np.stack([lam2, lam2 + 1.0], axis=-1), rng=rng)))
    reports.append(IdentityReport(
        "normal-estimate", 2 * n_points, _worst([-worst]),
        tol["normal_estimate"], {"worst_slack": worst}))

    # each tuple draws its point, c, sigma and direction in turn
    at, cc, sg, ll = np.array([
        (rng.integers(0, n_points), rng.uniform(0.05, 10.0), rng.uniform(-2.0, 2.0),
         rng.integers(0, f.domain.dim)) for _ in range(n_tuples)]).reshape(-1, 4).T
    lhs, rhs_grouped, rhs_traced = decomposition_sides(
        d.take(at.astype(np.intp)), cc, sg, ll.astype(np.intp))
    for name, gap, key in (
            ("curvature-decomposition", lhs - rhs_grouped, "decomposition"),
            ("curvature-decomposition-traced", lhs - rhs_traced, "decomposition"),
            ("decomposition-forms-gap", rhs_grouped - rhs_traced, "decomposition_gap")):
        reports.append(IdentityReport(name, n_tuples, _worst(np.abs(gap)), tol[key],
                                      {"seed": seed}))

    minimal_here = bool(np.all(blk.ext.h_norm < MINIMAL_TOL))
    nan_h = bool(np.isnan(blk.ext.h_norm).any())
    sub = d.take(slice(0, 3))

    if minimal_here:
        res = _worst(elliptic_equation_residual(sub, c, h=h))
        reports.append(IdentityReport("elliptic-equation", len(sub), res,
                                      tol["elliptic"], {"c": c, "h": h}))
    else:
        reports.append(_not_run("elliptic-equation", tol["elliptic"],
                                "non-minimal scenario", nan_h))

    two_dim = f.domain.dim == 2 and f.target.dim == 2
    if two_dim and minimal_here:
        for name, res, key, params in (
                ("log-jacobian-2d", log_jacobian_residual_2d(sub, h=h), "log_jacobian",
                 {"h": h}),
                ("minimality-relations-2d", minimality_relations_residual_2d(sub),
                 "minimality_relations", {}),
                ("jacobian-consistency-2d", jacobian_consistency_2d(sub),
                 "jacobian_consistency", {})):
            reports.append(IdentityReport(name, len(sub), _worst(res), tol[key], params))
    else:
        reason = ("dimensions are not 2x2" if not two_dim
                  else "non-minimal scenario")
        for name in ("log-jacobian-2d", "minimality-relations-2d",
                     "jacobian-consistency-2d"):
            reports.append(_not_run(name, tol["log_jacobian"], reason,
                                    two_dim and nan_h))

    if minimal_here:
        grid = scenario.grid_points((7 if f.domain.dim == 2 else 5,) * f.domain.dim)
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
    probes = null_eigenvector_probe(d.take(slice(0, 6)), sigma, lam0_sq, kappa_sq,
                                    rng=rng)
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
