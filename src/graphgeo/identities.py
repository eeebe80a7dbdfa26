"""Residual evaluation for the pointwise identities and estimates.

Each operation evaluates both sides of one displayed identity (or one
inequality) of the graph geometry and returns the residual (or the worst
slack).  The frame used for the frame-traced decompositions is always the
adapted frame, which diagonalizes both the domain metric and the pullback
metric; the curvature-to-sectional reductions are only valid there.

Every operation evaluates a stack of rows of a :class:`GraphBlock`
(:class:`PointData`; a point is the stack ``rows=[i]``) in one call, one
value per row, each with the bits of a single-point evaluation.  Every
row's parallel-field probes and stencil are one block, which the suite's
elliptic and 2-d checks share (:meth:`PointData.neighbours`).  Sectional
curvatures have one formula, :func:`graphgeo.chart_manifold.sectional_range`:
the null probe reads the block's ranges (it draws no planes), and the 2-d
log-Jacobian equation reads ``sec_M`` from the domain's range and ``sec_N``
from the range of the whole target plane.  The null probe skips rows by the
gate's hypothesis table and rule (:mod:`graphgeo.theorem_gate`).  The two
checks that hold in every direction, the normal estimate and the null
probe, sample none: each takes one generalized eigenvalue per row
(:func:`graphgeo.chart_manifold.sym_eigen`).

:func:`run_identity_suite` is one ordered table of checks, each a record
name, its tolerance key, what it needs (a minimal map, dimensions 2x2 or
nothing) and the call that runs it; one loop turns every check into its
:class:`IdentityReport`, run, skipped or failed.
"""

from functools import cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .chart_manifold import (curvature_form, matvec, powers, quadratic_form, sectional_range,
                             sym_eigen)
from .draws import Stream
from .errors import InvalidParameterError, PreconditionError
from .extrinsic import GraphBlock, graph_block, graph_blocks
from .graph_map import SmoothMap, shift_deficit
from .product_space import product_form
from .theorem_gate import DEFAULT_TOLERANCES, HYPOTHESES, holds, kappa_level, row_margins

Array = np.ndarray

#: Covariant-derivative norm below which a tensor field counts as parallel
#: and its rough Laplacian is taken to vanish identically.
PARALLEL_TOL = 1e-10

#: Random sample points of :func:`run_identity_suite`.
SUITE_POINTS = 12


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
    ``ric_m``, ``ric_g_op``, ``reaction_traces``, ``sec_range_m``,
    ``sec_range_n``, ``coords``, ``d1``, ``gm``, ``gn``), of its adapted
    frames (``lambdas``, ``rank``, ``e``, ``normal``) or of its second
    fundamental form (``a_frame``, ``a_coord``, ``a_norm_sq``, ``h_norm``).
    The block computes each column once for all its points.
    """

    def __init__(self, blk: GraphBlock, rows):
        self.blk, self.f = blk, blk.f
        self.rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        self.m, self.n = self.f.domain.dim, self.f.target.dim
        self._near = {}

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

    def shifted_jet(self, c: float) -> tuple[Array, Array]:
        """Value and exact first chart derivatives of the shifted tensor field."""
        return tuple(_rows(x, self.rows) for x in self.blk.shifted_jet(c))

    def neighbours(self, h: float) -> GraphBlock:
        """One block, built once per step ``h``, of each row's ``2 m`` axis
        neighbours at step 0.05 (the parallel-field probes), then its ``2 m^2``
        stencil neighbours at ``h`` (see :func:`_neighbour_values`)."""
        if h not in self._near:
            steps = _stencil_steps(self.m)
            near = self.coords[:, None] + np.concatenate([0.05 * steps[:2 * self.m], h * steps])
            self._near[h] = graph_block(self.f, near.reshape(-1, self.m))
        return self._near[h]


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

def _eigenvalues(phi: Array, g: Array) -> Array:
    """Ascending eigenvalues of the symmetric part of ``phi`` relative to
    ``g`` (:func:`sym_eigen`), per matrix of a stack; NaN for a pair with a
    non-finite entry, which LAPACK may refuse to converge on."""
    phi = 0.5 * (phi + np.swapaxes(phi, -1, -2))
    finite = (np.isfinite(phi) & np.isfinite(g)).all(axis=(-2, -1))[..., None, None]
    vals = sym_eigen(np.where(finite, phi, 0.0), np.where(finite, g, np.eye(g.shape[-1])))[0]
    return np.where(finite[..., 0], vals, np.nan)


def normal_estimate_check(d: PointData, c) -> Array:
    """Worst slack of the normal-cone estimate ``((c-1)/(1+c)) |eta|^2 -
    s_prod(eta, eta) >= 0`` (for ``c >= lambda_max^2``) over the unit normals
    ``eta`` of each row: ``bound - lambda_max(G_split, G_prod)``, with the
    Gram matrices of the split form and of the product metric on the
    adapted normal frame.  The vectors ``A(e_i, e_j)``, to which the rigidity
    argument applies the estimate, are normal, so it covers them; a row where
    they are not finite reads NaN.  The shift ``c`` is shared or per row
    (first axis; further axes: more shifts); the result has its shape.
    """
    c = np.asarray(c, dtype=float)
    c = np.full(len(d), c) if c.ndim == 0 else c
    k = c.ndim
    lam_max_sq = _expand(d.lambdas[:, -1] ** 2, k - 1)
    if np.any(c < lam_max_sq - 1e-12 * (1.0 + lam_max_sq)):
        raise PreconditionError(f"estimate needs c >= lambda_max^2 = "
                                f"{np.max(lam_max_sq):.6g}, got {np.min(c):.6g}")
    bound = (c - 1.0) / (1.0 + c)

    xi = np.swapaxes(d.normal, -1, -2)          # the frame vectors, (row, n, m + n)
    gm, gn, u, v = _expand(d.gm, 2), _expand(d.gn, 2), xi[:, :, None], xi[:, None]
    top = _eigenvalues(product_form(gm, -gn, u, v), product_form(gm, gn, u, v))[:, -1]
    top = np.where(np.isfinite(d.a_frame).all(axis=(1, 2, 3)), top, np.nan)
    return bound - _expand(top, k - 1)


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

def reaction_form(d: PointData, c: float) -> Array:
    """The form ``q`` of :func:`reaction_term_apply` at each row, in chart
    components: its frame sums over the adapted frame, taken as traces with
    ``g^-1`` (:attr:`GraphBlock.reaction_traces`)."""
    if c <= -1.0:
        raise InvalidParameterError(f"reaction term needs c > -1, got {c}")
    nu = (1.0 - c) / (1.0 + c)
    a_m, a_n, r_m, r_n = np.moveaxis(d.reaction_traces, 1, 0)
    return -2.0 * ((1.0 - nu) * a_m - (1.0 + nu) * a_n) - 4.0 / (1.0 + c) * (r_n - c * r_m)


def reaction_term_apply(d: PointData, c: float, theta: Array, v: Array,
                        w: Array) -> Array:
    """Value of the fiberwise reaction term on ``theta`` at ``(v, w)``.

    ``theta`` is a symmetric 2-tensor in chart components; ``v``, ``w`` are
    chart vectors.  The Ricci operator is the one of the induced metric.
    Their first axis is the row of ``d``, and they broadcast over further
    leading axes: one value per element, rounded as a single evaluation is.

    The value is ``-theta(Ric v, w) - theta(Ric w, v) + v . q . w``, where
    ``q`` sums over the adapted frame ``-2 (s_prod - nu g_prod)(A(e_k, .),
    A(e_k, .)) - 4/(1+c) (R_N(df e_k, df ., df e_k, df .) - c R_M(e_k, ., e_k,
    .))``, ``nu = (1-c)/(1+c)`` (:func:`reaction_form`).  The frame is
    g-orthonormal, so these sums are traces with ``g^-1``, taken once per row.
    """
    q = reaction_form(d, c)
    theta, v, w = (np.asarray(x, dtype=float) for x in (theta, v, w))
    ric_g_op, q = (_expand(x, v.ndim - 2) for x in (d.ric_g_op, q))
    ric_v, ric_w = matvec(ric_g_op, v), matvec(ric_g_op, w)
    return (-quadratic_form(ric_v, theta, w) - quadratic_form(ric_w, theta, v)
            + quadratic_form(v, q, w))


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


def _neighbour_values(values: Array, m: int, stencil: bool) -> Array:
    """Values of a :meth:`PointData.neighbours` block as ``(row, neighbour,
    ...)``, the stencil's or the probes', each row's neighbours laid out as
    a block of their own."""
    values = values.reshape(-1, 2 * m + 2 * m * m, *values.shape[1:])
    part = values[:, 2 * m:] if stencil else values[:, :2 * m]
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(part, 1, -1)), -1, 1)


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

def shifted_tensor_laplacian(d: PointData, c: float, h: float) -> Array:
    """Rough Laplacian of the shifted tensor field at each row: zero where
    the field is parallel (exact covariant derivative vanishing at the point
    and at its axis neighbours at step 0.05, not at an isolated critical
    point alone), else from its stencil at step ``h``."""
    near = d.neighbours(h)
    shifted = near.shifted_jet(c)
    phi, dphi, gamma = (np.concatenate([_expand(at_p, 1), _neighbour_values(x, d.m, False)], 1)
                        for at_p, x in zip((*d.shifted_jet(c), d.gamma_g),
                                           (*shifted, near.gamma_g)))
    nabla = _covariant_derivative(phi, dphi, gamma)
    rough = ~np.all(np.abs(nabla).max(axis=(2, 3, 4))
                    < PARALLEL_TOL * (1.0 + np.abs(phi).max(axis=(2, 3))), axis=1)
    lap = np.zeros((len(d), d.m, d.m))
    if rough.any():
        sub = d.take(rough)
        lap[rough] = rough_laplacian_fd(sub, sub.shifted_jet(c)[0],
                                        _neighbour_values(shifted[0], d.m, True)[rough], h)
    return lap


def elliptic_equation_residual(d: PointData, c: float, h: float = 1e-3,
                               minimal_tol: float = DEFAULT_TOLERANCES["minimality"]) -> Array:
    """Residual of ``Lap(Phi) + Psi(Phi) = 0`` on the adapted frame at each
    row.  The equation in this homogeneous form holds for minimal maps only,
    so a point with mean curvature above ``minimal_tol`` is rejected."""
    _require_minimal(d, minimal_tol)
    lap = shifted_tensor_laplacian(d, c, h)
    e_t = np.swapaxes(d.e, -1, -2)
    frame = np.ascontiguousarray(e_t)       # psi[:, i, j] = Psi(Phi)(e_i, e_j)
    psi = reaction_term_apply(d, c, _expand(d.shifted_jet(c)[0], 2), frame[:, :, None],
                              frame[:, None])
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
                             minimal_tol: float = DEFAULT_TOLERANCES["minimality"]) -> Array:
    """Residual at each row of the 2x2-dimensional equation for ``ln`` of the
    projection Jacobian of a minimal map: the Laplace-Beltrami value (FD
    partials of the exact Jacobian field on the rows' stencils at step
    ``h``) against the normal components of the second fundamental form
    and the sectional curvatures: ``sec_M`` from :attr:`GraphBlock.sec_range_m`,
    ``sec_N`` from :func:`sectional_range` on the whole target plane (the
    frame ``beta``), defined at every rank, where ``sec_range_n`` is NaN
    below rank 2."""
    if d.m != 2 or d.n != 2:
        raise PreconditionError("identity needs dim M = dim N = 2")
    _require_minimal(d, minimal_tol)

    near = d.neighbours(h)
    lhs = scalar_laplacian_fd(
        d, np.log(projection_jacobian(d.gm, d.g)),
        _neighbour_values(np.log(projection_jacobian(near.gm, near.g)), d.m, True), h)

    l1, l2 = d.lambdas.T
    comp = _normal_components_2d(d)
    c = comp.reshape(len(d), 8)          # comp[:, g, i, j] is c[:, 4 g + 2 i + j]
    # the squares of single values, rounded as libm pow rounds them
    l1s, l2s, c2 = (powers(x.ravel(), 2).reshape(x.shape) for x in (l1, l2, c))
    sec_m, sec_n = d.sec_range_m[:, 0], sectional_range(d.riem_n, d.beta)[:, 0]
    rhs = (-np.sum(comp ** 2, axis=(1, 2, 3))
           - l1s * (c2[:, 0] + c2[:, 1]) - l2s * (c2[:, 5] + c2[:, 7])
           - 2.0 * l1 * l2 * (c[:, 4] * c[:, 2] + c[:, 5] * c[:, 3])
           - ((l1s + l2s) * sec_m - 2.0 * l1s * l2s * sec_n)
           / ((1.0 + l1s) * (1.0 + l2s)))
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Null-eigenvector probe of the reaction term
# ---------------------------------------------------------------------------

class NullProbeResult(NamedTuple):
    status: str                # "pass", "fail" or "skipped"
    reason: str
    min_value: float


#: Why the null probe skips a row, by the first margin that fails its hypothesis.
_SKIP_TEXT = {
    "pinching_domain": "domain sectional curvature {low:.6g} below {sigma:.6g}",
    "pinching_target": "target sectional curvature {high:.6g} above {sigma:.6g}",
    "trace": "trace condition fails ({trace:.6g} < 0)",
    "kappa_strict": "pullback bound fails (lambda^2 = {lam_sq:.6g}, kappa^2 = {kappa_sq:.6g})",
    "condition4": "second-fundamental-form bound fails ({a_sq:.6g} > {sff_bound:.6g})",
}


def null_eigenvector_probe(d: PointData, sigma: float, lambda0_sq: float, kappa_sq: float,
                           tol: dict[str, float]) -> list[NullProbeResult]:
    """Check the null-eigenvector condition of the reaction term at each row.

    For a positive semi-definite ``theta`` with ``theta v = 0`` the Ricci
    terms of the reaction term vanish on ``(v, v)``, which leaves ``q(v,
    v)`` at shift ``lambda0_sq`` (:func:`reaction_form`).  Its least value
    over the g-unit ``v`` is ``lambda_min(q, g)``, one eigenvalue per row.

    A row is skipped at its first margin in the order of
    :data:`~graphgeo.theorem_gate.HYPOTHESES` that is not NaN and fails
    :func:`~graphgeo.theorem_gate.holds` at the run's tolerances ``tol`` (a
    full :data:`~graphgeo.theorem_gate.DEFAULT_TOLERANCES` table): the
    pinching on the ends of ``sec_range_m`` / ``sec_range_n``, then, where
    ``lambda0_sq >= 1``, trace, kappa and condition 4 (the two branches of
    the rigidity argument).  The others are solved together, and a row
    passes where its least value is at least ``-tol["null_probe"]``; a NaN
    value fails.
    """
    if sigma <= 0.0:
        return [NullProbeResult("skipped", "needs a positive pinching level", np.inf)] * len(d)
    # taken on both branches, so that a bound that overflows is refused on
    # both; below lambda0_sq = 1 the skips read only the pinching margins
    low, high = d.sec_range_m[:, 0], d.sec_range_n[:, 1]
    margins = row_margins(d, sigma, kappa_sq, low, high)
    names = ("pinching", "trace", "kappa", "condition4") if lambda0_sq >= 1.0 else ("pinching",)
    fails = [(key, ~np.isnan(margins[key])
              & ~holds(key, margins[key], kappa_sq, tol))
             for name, keys in HYPOTHESES if name in names for key in keys]
    reasons = [next((_SKIP_TEXT[key].format(
        sigma=sigma, kappa_sq=kappa_sq, low=low[r], high=high[r], trace=d.trace_s[r],
        lam_sq=float(d.lambdas[r, -1] ** 2), a_sq=d.a_norm_sq[r],
        sff_bound=margins["sff_bound"][r]) for key, fail in fails if fail[r]), None)
        for r in range(len(d))]
    ran = d.take([r for r, reason in enumerate(reasons) if reason is None])
    per_row = iter(_eigenvalues(reaction_form(ran, lambda0_sq), ran.g)[:, 0].tolist())
    results = []
    for reason in reasons:
        low = np.inf if reason else next(per_row)
        status = "skipped" if reason else "pass" if low >= -tol["null_probe"] else "fail"
        results.append(NullProbeResult(status, reason or "", low))
    return results


# ---------------------------------------------------------------------------
# Second-derivative probe at the maximum of the top eigenvalue
# ---------------------------------------------------------------------------

class ExtremumProbeResult(NamedTuple):
    status: str                # "pass", "fail" or "inconclusive"
    reason: str
    point: Array | None
    c: float
    grad_norm: float
    lap_value: float
    grad_tol: float
    lap_tol: float


def extremum_derivative_probe(f: SmoothMap, grid: Array, box: Array, h: float = 1e-3,
                              minimal_tol: float = DEFAULT_TOLERANCES["minimality"]
                              ) -> ExtremumProbeResult:
    """Locate the maximum of the top eigenvalue of the shifted tensor over
    the rows of ``grid`` and check the first/second derivative criteria there.
    The shift ``c`` is the grid's largest ``lambda^2`` (1 where that is at
    most 1e-12).

    At an interior maximum of the largest eigenvalue, the covariant
    derivative of the field must vanish on the top eigenvector (below ten
    grid spacings) and the rough Laplacian must be non-positive there (below
    ``lap_tol``).  A maximum attained on the sampling-box boundary is
    inconclusive.
    """
    grid = np.asarray(grid, dtype=float)
    if not len(grid):
        raise ValueError("empty probe grid")
    lap_tol = 1e-4
    box = np.asarray(box, dtype=float)
    # keep only the columns the probe reduces, one block alive at a time
    h_max, lam0_sq, tensors = [], [], []
    for _, blk in graph_blocks(f, grid):
        h_max.append(np.max(blk.ext.h_norm))
        lam0_sq.append(np.max(blk.frames.lambdas[:, -1] ** 2))
        tensors.append((blk.s, blk.g))
        del blk
    h_max = np.max(h_max)
    if np.isnan(h_max):
        return ExtremumProbeResult("fail", "mean curvature is NaN", None, np.nan,
                                   np.nan, np.nan, np.nan, lap_tol)
    if not h_max < minimal_tol:
        raise PreconditionError("probe needs a minimal scenario")

    lam0_sq = float(np.max(lam0_sq))
    c = lam0_sq if lam0_sq > 1e-12 else 1.0

    top = np.concatenate([sym_eigen(shift_deficit(s, g, c), g)[0][:, -1]
                          for s, g in tensors])
    best = float(top.max())
    near = np.nonzero(top >= best - 1e-12 * (1.0 + abs(best)))[0]

    def boundary_distance(x: Array) -> Array:
        return np.min(np.minimum(x - box[:, 0], box[:, 1] - x), axis=-1)

    # the first of the nearly maximal rows farthest from the boundary
    idx = near[np.argmax(boundary_distance(grid[near]))]
    spacing = float(np.max((box[:, 1] - box[:, 0])
                           / (max(len(grid), 2) ** (1.0 / box.shape[0]))))
    grad_tol = 10.0 * spacing

    if boundary_distance(grid[idx]) <= 0.45 * spacing:
        return ExtremumProbeResult(
            "inconclusive", "maximum attained on the sampling-box boundary",
            grid[idx], c, np.nan, np.nan, grad_tol, lap_tol)

    # a block of two rows gives the row the bits it has in its grid block
    d = PointData(graph_block(f, grid[[idx, idx]]), [0])
    v = sym_eigen(d.shifted_jet(c)[0], d.g)[1][..., -1]
    nabla = _covariant_derivative(*d.shifted_jet(c), d.gamma_g)
    grad_vec = np.einsum("...lij,...i,...j->...l", nabla, v, v)
    grad_norm = float(np.sqrt(grad_vec @ d.ginv @ grad_vec[..., None])[0, 0, 0])
    lap = shifted_tensor_laplacian(d, c, h)
    lap_vv = float((v[:, None] @ lap @ v[..., None])[0, 0, 0])

    ok = grad_norm < grad_tol and lap_vv < lap_tol
    return ExtremumProbeResult("pass" if ok else "fail", "", grid[idx], c,
                               grad_norm, lap_vv, grad_tol, lap_tol)


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

class IdentityReport(NamedTuple):
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


def _worst(values) -> float:
    """Largest value and 0.0 (a zero of either sign gives 0.0); NaN if any
    value is NaN."""
    return float(np.maximum(np.max(values, initial=-np.inf), 0.0))


def run_identity_suite(scenario, seed: int = 0, h: float = 1e-3,
                       c: float = 2.0,
                       tolerances: dict[str, float] | None = None,
                       kappa_margin: float = 0.01) -> list[IdentityReport]:
    """Run the identity checks on the scenario's :data:`SUITE_POINTS` random
    sample points, one record per check.

    ``tolerances`` overrides the gate's table :data:`~graphgeo.theorem_gate.DEFAULT_TOLERANCES`.
    The checks form one ordered table of ``(name, tolerance key, needs,
    run)``.  ``needs`` is ``""``, ``"minimal"`` or ``"2x2"``: a 2x2 check on
    other dimensions is skipped, and a check for minimal maps is skipped on
    a non-minimal scenario (by the gate's rule, on the largest ``|H|``), or
    fails with a NaN residual where the mean curvature is NaN (minimality is
    then undecided).  ``run()`` returns the check count, the per-row
    residuals or a skip reason, and the parameters; the worst residual is
    the record's.  A NaN residual never passes.

    The sample points are one :class:`GraphBlock`; each check evaluates all
    its rows (or tuples) in one call.  The checks run in table order.  The
    stream draws the sample points, then the decomposition tuples (drawn by
    the first decomposition check); nothing else draws.  The
    null-eigenvector probe takes the gate's ``kappa^2`` at ``kappa_margin``
    (see :func:`graphgeo.theorem_gate.kappa_level`).
    """
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    min_tol = tol["minimality"]
    f, m = scenario.f, scenario.f.domain.dim
    rng = Stream(seed)
    d = point_rows(f, scenario.random_points(SUITE_POINTS, rng))
    blk, lambdas = d.blk, d.blk.frames.lambdas
    sub = d.take(slice(0, 3))   # its neighbour block is shared by the checks on it

    def s_eigenvalues():
        pred = np.sort((1.0 - lambdas ** 2) / (1.0 + lambdas ** 2), axis=-1)
        return SUITE_POINTS, np.abs(sym_eigen(blk.s, blk.g)[0] - pred), {"seed": seed}

    def normal_estimate():
        lam2 = powers(lambdas[:, -1], 2)
        worst = float(np.min(normal_estimate_check(d, np.stack([lam2, lam2 + 1.0], axis=-1))))
        return 2 * SUITE_POINTS, [-worst], {"worst_slack": worst}

    @cache
    def sides():
        # each tuple draws its point, c, sigma and direction in turn
        at, cc, sg, ll = np.array([
            (rng.integers(0, SUITE_POINTS), rng.uniform(0.05, 10.0), rng.uniform(-2.0, 2.0),
             rng.integers(0, m)) for _ in range(15)]).reshape(-1, 4).T
        return decomposition_sides(d.take(at.astype(np.intp)), cc, sg, ll.astype(np.intp))

    def gap(a: int, b: int):
        return lambda: (15, np.abs(sides()[a] - sides()[b]), {"seed": seed})

    def extremum():
        grid = scenario.grid_points((7 if m == 2 else 5,) * m)
        try:
            probe = extremum_derivative_probe(f, grid, scenario.sample_box, h, min_tol)
        except PreconditionError as exc:    # |H| reaches min_tol on the grid only
            return 0, str(exc), {}
        if probe.status == "inconclusive":
            return len(grid), probe.reason, {}
        return (len(grid), [probe.grad_norm / probe.grad_tol, probe.lap_value / probe.lap_tol],
                {"point": probe.point.tolist(), "c": probe.c,
                 "grad_norm": probe.grad_norm, "lap_value": probe.lap_value})

    def null_probe():
        probes = null_eigenvector_probe(d.take(slice(0, 6)), scenario.sigma, lam0_sq, kappa_sq,
                                        tol)
        ran = [pr.min_value for pr in probes if pr.status != "skipped"]
        if not ran:
            return 0, f"hypotheses fail at all probe points: {probes[-1].reason}", {}
        return (len(ran), -np.asarray(ran),
                {"lambda0_sq": lam0_sq, "points_skipped": len(probes) - len(ran)})

    checks = (
        ("frame-formulas", "frame", "",
         lambda: (SUITE_POINTS, blk.frame_residual, {"seed": seed})),
        ("s-eigenvalue-formula", "s_eigenvalue", "", s_eigenvalues),
        ("normal-estimate", "normal_estimate", "", normal_estimate),
        ("curvature-decomposition", "decomposition", "", gap(0, 1)),
        ("curvature-decomposition-traced", "decomposition", "", gap(0, 2)),
        ("decomposition-forms-gap", "decomposition_gap", "", gap(1, 2)),
        ("elliptic-equation", "elliptic", "minimal",
         lambda: (len(sub), elliptic_equation_residual(sub, c, h, min_tol), {"c": c, "h": h})),
        ("log-jacobian-2d", "log_jacobian", "2x2",
         lambda: (len(sub), log_jacobian_residual_2d(sub, h, min_tol), {"h": h})),
        ("minimality-relations-2d", "minimality_relations", "2x2",
         lambda: (len(sub), minimality_relations_residual_2d(sub), {})),
        ("jacobian-consistency-2d", "jacobian_consistency", "2x2",
         lambda: (len(sub), jacobian_consistency_2d(sub), {})),
        ("extremum-probe", "extremum", "minimal", extremum),
        ("null-eigenvector-probe", "null_probe", "", null_probe),
    )
    lam0_sq = float(np.max(lambdas[:, -1] ** 2))
    kappa_sq = kappa_level(lam0_sq, kappa_margin)
    minimal = bool(holds("max_h_norm", np.max(blk.ext.h_norm), kappa_sq, tol))
    nan_h = bool(np.isnan(blk.ext.h_norm).any())
    two_dim = m == f.target.dim == 2
    reports = []
    for name, key, needs, run in checks:
        if needs == "2x2" and not two_dim:
            count, res, params = 0, "dimensions are not 2x2", {}
        elif needs and not minimal:
            count, res, params = 0, [np.nan] if nan_h else "non-minimal scenario", {}
        else:
            count, res, params = run()
        # a 2x2 check that does not run carries tol["log_jacobian"], the FOUND
        # at CHANGES.md:54: the benchmark's references pin that value, and
        # their re-record makes this tol[key]
        tolerance = tol["log_jacobian" if needs == "2x2" and not (two_dim and minimal) else key]
        skipped = isinstance(res, str)
        reports.append(IdentityReport(name, count, 0.0 if skipped else _worst(res), tolerance,
                                      params, res if skipped else None))
    return reports
