"""The frame-side sweep columns against oracles that build no frame.

The sweep reads the singular values of df from one SVD of the whitened
differential and contracts the second fundamental form with the adapted
frame ``e``.  On quadratic maps between non-diagonal polynomial charts
(m, n in {2, 3}), 20 points each, five columns are compared:

* the pullback metric ``P = d1^T h d1`` against the same product formed in
  mpmath at 40 digits from the same float64 jets;
* ``lambdas**2`` against the generalized eigenvalues mu of (P, g_M), with
  that ``P`` solved in mpmath at 40 digits;
* ``trace_s`` against ``sum_i (1 - mu_i) / (1 + mu_i)``, the trace of
  ``g^-1 s`` (``s = g_M - P``, ``g = g_M + P``) from those eigenvalues;
* ``a_norm_sq`` and ``h_norm`` against a float64 contraction of ``a_coord``
  (A on chart-basis slots) with the inverse induced metric ``g^-1`` and the
  product metric ``G = g_M (+) h``, which uses no frame.

Each bound is ``K * eps * scale``, with one ``K`` for every column:

* P.  Each entry is a float64 sum of ``n^2`` products of three factors, so
  it errs by at most ``(n^2 + 2) eps`` times the same sum over absolute
  values, ``(|d1|^T |h| |d1|)_ij`` (Higham's bound for a sum of products),
  which ``K`` covers up to ``n = 5``.
* lambda^2.  Forming ``W = L_N^T d1 L_M^-T`` in float64 perturbs it by a few
  ``eps * kappa * |W|``, with ``kappa = sqrt(cond(g_M) cond(h))`` bounding
  what the Cholesky factors and the triangular inverse amplify.  LAPACK's SVD
  is backward stable, so each singular value is within a few
  ``eps * kappa * |W|`` of the exact one (Weyl), and ``|W| = lambda_max``.
  Then ``|lambda^2 - mu| = |lambda - sqrt(mu)| (lambda + sqrt(mu))`` is at
  most ``K eps kappa (1 + lambda_max^2)``.
* tr s.  The engine forms ``P`` as above, ``s`` and ``g`` from it with one
  more rounding each, and ``g^-1`` by a backward-stable inverse, which errs
  by a few ``eps * cond(g) |g^-1|``.  Every one of these errors enters the
  trace ``sum_ij g^-1_ij s_ji`` through a term bounded by
  ``eps cond(g) S_s``, with ``S_s = sum_ij |g^-1_ij| (|g_M| + |d1|^T |h|
  |d1|)_ji``, which bounds ``|g^-1| |s|`` and ``|g^-1| |g|`` alike; the
  error is at most ``K eps cond(g) S_s``.
* |A|^2.  Both sides are float64 sums of products of the same ``a_coord``.
  Such a sum errs by a small multiple of eps times ``S``, the same sum over
  the absolute values of its terms.  The engine's side goes through ``e``,
  which is g-orthonormal to a few ``eps * cond(g)``, so the two sides differ
  by at most ``K eps cond(g) S``.
* |H|.  The same holds for ``|H|^2 = G(H, H)`` with its absolute sum
  ``S_H``; the square root divides a difference of squares by ``|H| + |H'|``,
  so ``||H| - |H'|| <= K eps cond(g) S_H / |H'|``.

On these cases the largest error is 1.3 such units for lambda^2, 2.6 for
|A|^2, 0.7 for |H|, 0.4 for tr s and 2.3 for P, so ``K = 32``
leaves a margin of 12 or more.

The curvature side is checked the same way.  On non-diagonal polynomial
charts (m in {2, 3}, 20 points each) the Christoffel symbols, the curvature
tensor and the Ricci form of :class:`Curvature` are compared against the
textbook formulas evaluated by direct index loops in mpmath at 40 digits,
from the same float64 jets ``(g, dg, d2g)`` and the exact inverse of ``g``.
Each is a sum of products of jet entries and entries of ``g^-1``:

* a float64 sum of products errs by at most a small multiple (terms plus
  factors) of eps times the same sum over absolute values (Higham);
* LAPACK's inverse is backward stable, so each entry of the computed
  ``g^-1`` is within a few ``eps * cond(g) * max|g^-1|`` of the exact one;
  the absolute sums therefore read ``max|g^-1|`` in place of every
  ``|g^kl|``;
* to first order, a factor with relative error ``delta`` moves a sum of
  products by at most ``delta`` times its absolute sum.

Gamma reads ``g^-1`` once, its derivative three times (``d g^-1 = -g^-1 dg
g^-1``), R products of two Gammas and Ric one more ``g^-1``, with at most
``2 + 2 m`` terms per sum, so each entry errs by at most ``K eps cond(g)
S``, with ``S`` the entry's formula over absolute values.  The largest
errors are 0.55 such units for Gamma, 0.15 for R and 0.05 for Ric.

The reaction term of the null-eigenvector probe and the elliptic check,
``-theta(Ric v, w) - theta(Ric w, v) + v . q(c) . w``, is checked on the
quadratic maps above (three draws of ``theta``, ``v``, ``w`` per point, ``c``
in {0.5, 2, 3.7}) against its frame-free formula in mpmath at 40 digits,
from the same float64 columns and the exact inverse of ``g``: every frame
sum ``sum_k X(e_k, ., e_k, .)`` is the trace ``g^ik X_i.k.``.  The engine
forms ``q`` from such traces (``GraphBlock.reaction_traces``) by pairwise
contractions; for m = n = 3 the longest chain, ``H = df g^-1 df^T``
contracted with ``R_N`` and pulled back through ``df``, then read on
``(v, w)``, adds at most ``m^2 + n^2 + 2 n + m^2 + 8 = 41`` terms and factors,
and ``g^-1`` errs by a few ``eps cond(g) |g^-1|``.  So the error is at most
``K eps cond(g) S`` with ``K = 64`` and ``S`` the formula over absolute
values.  The largest error is 0.0050 such units, 7.3e-7 of ``gate_slack``.

The exact curvature ranges of :class:`GraphBlock` (``sec_range_m`` on the
frame ``alpha``, ``sec_range_n`` on the image columns of ``beta``) are
checked on the same quadratic maps against the extreme eigenvalues of the
curvature operator ``R(b_i, b_j, b_k, b_l)`` over the basis pairs, formed by
direct index loops and solved (``mpmath.eigsy``) at 40 digits from the same
float64 ``riem`` and basis.  The engine forms ``U = b_i b_j`` (one rounding)
and ``U^T R U``, two sums of ``d^2`` products each, so every entry of the
operator errs by at most ``(2 d^2 + 1) eps`` times the entry of ``S =
|U|^T |R| |U|`` (Higham); by Weyl's inequality that moves each eigenvalue by
at most ``||S||_F`` times as much, and LAPACK's symmetric eigensolver, which
is backward stable, adds a few ``eps ||S||_F``.  So each end errs by at most
``K eps ||S||_F``, with ``K = 32`` covering ``d = 3``.  The largest error is
0.059 such units, 2.7e-8 of ``gate_slack``.

The second fundamental form on chart slots, ``a_coord``, is checked on the
same quadratic maps and on holo-w2 (20 points each) against its formula in
mpmath at 40 digits: the domain part ``Gamma_M - Gamma_g`` over the target
part ``d2F + Gamma_N(dF, dF) - Gamma_g dF``, every Christoffel symbol from
:func:`exact_curvature` with the exact inverse of its metric, and the
induced jet ``g = g_M + dF^T h dF`` with its chain-rule derivative formed
exactly, all from the same float64 jets.  Each Christoffel of the engine
errs by at most ``K eps cond S`` in its own metric's condition number (see
above); that of ``g`` also carries the rounding of the engine's float64
``g`` and ``dg``, sums of products bounded by the same sums over absolute
values.  The remaining contractions are float64 sums of at most ``n^2 + m +
1`` products, which err by a small multiple of eps times their absolute sum
(Higham).  So each entry errs by at most ``K eps kappa S_A``, with ``kappa``
the largest condition number of ``g_M``, ``h`` and ``g``, and ``S_A`` the
formula over absolute values, each Christoffel replaced by its absolute sum
(:func:`absolute_sums`).  The largest error is 0.0086 such units, on
holo-w2, and 1.1e-6 of ``gate_slack``.

The exact second jets that the identity suite's Laplacians could read
instead of finite differences are checked on the same four quadratic maps
and on holo-w2 (20 points each): the induced metric's ``dg``
(``blk.induced.dg``) and ``d2g`` (``blk.curv_g2.jet.d2g``), the deficit's
``d2s = d2g_M - d2P`` (``d2P`` from :func:`pullback_metric_d2`), and
``d_k d_l ln J = 1/2 [tr(g_M^-1 d2g_M) - tr(g_M^-1 dg_M g_M^-1 dg_M)] - 1/2
[the same on g]``, formed from the engine's jets and inverses.  The oracle
applies the product rule to ``P_ij = dF_ai (h o F)_ab dF_bj`` factor by
factor in mpmath at 40 digits, from the same float64 jets, and inverts
``g_M`` and ``g`` exactly:

* each jet entry is a float64 sum of products of jet entries; for ``n = 3``
  the longest, ``dF^T (d2h(dF, dF)) dF``, has ``n^4`` products of five
  factors and ``2 n^2`` additions on the way, so it errs by at most ``K eps``
  times the same sum over absolute values (Higham), and so does the one
  more addition of ``d2g_M``;
* ``d2 ln J`` reads these jets, whose errors enter its traces once per
  factor, and the computed inverses, each entry within a few ``eps cond
  max|G^-1|`` (backward stability); so it errs by at most ``K eps kappa
  S``, with ``kappa`` the larger condition number of ``g_M`` and ``g`` and
  ``S`` the formula over absolute values, ``max|G^-1|`` in place of every
  entry of ``G^-1``.

The largest errors are 1.9 such units for ``dg``, 1.3 for ``d2g``, 1.3 for
``d2s`` and 0.42 for ``d2 ln J`` (``K = 32``), and a relative error of
1e-13 planted in ``d2P`` reads 13 units.
"""

from itertools import product

import mpmath
import numpy as np
import pytest

from graphgeo.chart_manifold import Curvature
from graphgeo.extrinsic import graph_block
from graphgeo.graph_map import pullback_metric_d2
from graphgeo.identities import point_rows, reaction_term_apply
from graphgeo.scenarios import get
from graphgeo.theorem_gate import sweep_geometry
from test_block_partition import polynomial_chart, quadratic_map

EPS = np.finfo(float).eps
K = 32
K_REACTION = 64
DIGITS = 40


def exact_pullback(d1, h):
    """``d1^T h d1`` in mpmath at the working precision, from the float64
    values as given."""
    d1, h = (mpmath.matrix(a.tolist()) for a in (d1, h))
    return d1.T * h * d1


def generalized_eigenvalues(P, gm):
    """Ascending eigenvalues of (P, gm) in mpmath at the working precision,
    from the float64 ``gm`` as given."""
    inv = mpmath.cholesky(mpmath.matrix(gm.tolist())) ** -1
    whitened = inv * P * inv.T
    return sorted(mpmath.eigsy((whitened + whitened.T) / 2, eigvals_only=True))


def oracle_errors(f, coords):
    """Per column, each row's error against its oracle and its bound."""
    sweep = sweep_geometry(f, coords, seed=0)
    blk = graph_block(f, coords)
    d1, gm, h, ginv, a = blk.d1, blk.gm, blk.gn, blk.ginv, blk.ext.a_coord
    P = blk.pullback[0]
    m, n = gm.shape[-1], h.shape[-1]
    lam = sweep.lambdas

    lam2_err, trace_err = np.zeros(len(coords)), np.zeros(len(coords))
    P_err = np.zeros((len(coords), m, m))
    with mpmath.workdps(DIGITS):
        for r in range(len(coords)):
            exact = exact_pullback(d1[r], h[r])
            mu = generalized_eigenvalues(exact, gm[r])
            lam2_err[r] = max(abs(float(mpmath.mpf(lam[r, i]) ** 2 - mu[i]))
                              for i in range(m))
            trace_err[r] = abs(float(mpmath.mpf(sweep.trace_s[r])
                                     - sum((1 - x) / (1 + x) for x in mu)))
            P_err[r] = [[abs(float(mpmath.mpf(P[r, i, j]) - exact[i, j])) for j in range(m)]
                        for i in range(m)]
    kappa = np.sqrt(np.linalg.cond(gm) * np.linalg.cond(h))
    lam2_bound = K * EPS * kappa * (1.0 + lam[:, -1] ** 2)
    P_abs = np.einsum("bai,bac,bcj->bij", abs(d1), abs(h), abs(d1))

    G = np.zeros((len(coords), m + n, m + n))
    G[:, :m, :m], G[:, m:, m:] = gm, h
    norm_sq = "bik,bjl,bijc,bcd,bkld->b"
    a_norm_sq = np.einsum(norm_sq, ginv, ginv, a, G, a)
    a_abs = np.einsum(norm_sq, *map(np.abs, (ginv, ginv, a, G, a)))
    H, H_abs = np.einsum("bij,bijc->bc", ginv, a), np.einsum("bij,bijc->bc", abs(ginv), abs(a))
    h_norm = np.sqrt(np.einsum("bc,bcd,bd->b", H, G, H))
    h_abs = np.einsum("bc,bcd,bd->b", H_abs, abs(G), H_abs)
    cond_g = np.linalg.cond(gm + P)
    trace_abs = np.einsum("bij,bji->b", abs(ginv), abs(gm) + P_abs)
    return {
        "P": (P_err.ravel(), (K * EPS * P_abs).ravel()),
        "lambda^2": (lam2_err, lam2_bound),
        "trace_s": (trace_err, K * EPS * cond_g * trace_abs),
        "a_norm_sq": (np.abs(sweep.a_norm_sq - a_norm_sq), K * EPS * cond_g * a_abs),
        "h_norm": (np.abs(sweep.h_norm - h_norm), K * EPS * cond_g * h_abs / h_norm),
    }


def oracle_case(m, n):
    """The quadratic map and 20 sample points of case (m, n)."""
    rng = np.random.default_rng(60 + 10 * m + n)
    f = quadratic_map(rng, polynomial_chart(rng, m, 0.05), polynomial_chart(rng, n, 0.05))
    return f, rng.uniform(-0.5, 0.5, size=(20, m))


@pytest.mark.parametrize("m,n", list(product([2, 3], repeat=2)))
def test_frame_side_columns_match_frame_free_oracles(m, n):
    for column, (err, bound) in oracle_errors(*oracle_case(m, n)).items():
        worst = int(np.argmax(err / bound))
        assert err[worst] <= bound[worst], (column, err[worst], bound[worst])


def exact_curvature(g, dg, d2g):
    """Gamma^k_ij, R_ijkl and Ric_jl of one float64 jet (``dg[k, i, j] = d_k
    g_ij``, ``d2g[a, k, i, j] = d_a d_k g_ij``) in mpmath at the working
    precision, index by index, each as a dict keyed by its indices."""
    ax = range(len(g))
    g, dg, d2g = (np.vectorize(mpmath.mpf, otypes=[object])(a) for a in (g, dg, d2g))
    inv = mpmath.matrix(g.tolist()) ** -1
    gi = [[inv[k, l] for l in ax] for k in ax]
    # T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij, dT its partials
    T = {(i, j, l): dg[i, j, l] + dg[j, i, l] - dg[l, i, j] for i, j, l in product(ax, repeat=3)}
    dT = {(a, i, j, l): d2g[a, i, j, l] + d2g[a, j, i, l] - d2g[a, l, i, j]
          for a, i, j, l in product(ax, repeat=4)}
    dgi = {(a, k, l): -sum(gi[k][p] * dg[a, p, q] * gi[q][l] for p in ax for q in ax)
           for a, k, l in product(ax, repeat=3)}
    gam = {(k, i, j): sum(gi[k][l] * T[i, j, l] for l in ax) / 2
           for k, i, j in product(ax, repeat=3)}
    dgam = {(a, k, i, j): sum(dgi[a, k, l] * T[i, j, l] + gi[k][l] * dT[a, i, j, l]
                              for l in ax) / 2
            for a, k, i, j in product(ax, repeat=4)}
    riem = {(i, j, k, l): sum(g[i, p] * (dgam[k, p, l, j] - dgam[l, p, k, j]
                                         + sum(gam[p, k, s] * gam[s, l, j]
                                               - gam[p, l, s] * gam[s, k, j] for s in ax))
                              for p in ax)
            for i, j, k, l in product(ax, repeat=4)}
    ric = {(j, l): sum(gi[i][k] * riem[i, j, k, l] for i in ax for k in ax)
           for j, l in product(ax, repeat=2)}
    return gam, riem, ric


def absolute_sums(g, dg, d2g):
    """The formulas of :func:`exact_curvature` over absolute values, with
    ``max|g^-1|`` in place of every entry of ``g^-1``."""
    gi = np.full_like(g, np.abs(np.linalg.inv(g)).max())
    g, dg, d2g = np.abs(g), np.abs(dg), np.abs(d2g)
    T = dg + np.swapaxes(dg, 0, 1) + np.moveaxis(dg, 0, -1)
    dT = d2g + np.swapaxes(d2g, 1, 2) + np.moveaxis(d2g, 1, -1)
    dgi = np.einsum("kp,apq,ql->akl", gi, dg, gi)
    gam = 0.5 * np.einsum("kl,ijl->kij", gi, T)
    dgam = 0.5 * (np.einsum("akl,ijl->akij", dgi, T) + np.einsum("kl,aijl->akij", gi, dT))
    op = (np.einsum("kplj->pjkl", dgam) + np.einsum("lpkj->pjkl", dgam)
          + np.einsum("pks,slj->pjkl", gam, gam) + np.einsum("pls,skj->pjkl", gam, gam))
    riem = np.einsum("ip,pjkl->ijkl", g, op)
    return gam, riem, np.einsum("ik,ijkl->jl", gi, riem)


@pytest.mark.parametrize("m", [2, 3])
def test_curvature_side_matches_index_loop_oracle(m):
    rng = np.random.default_rng(70 + m)
    jet = polynomial_chart(rng, m, 0.05).jet(rng.uniform(-1.0, 1.0, size=(20, m)))
    curv = Curvature(jet)
    with mpmath.workdps(DIGITS):
        for r in range(20):
            g, dg, d2g = (np.asarray(a[r]) for a in jet)
            scale = K * EPS * np.linalg.cond(g)
            for name, got, exact, total in zip(
                    ("Gamma", "R", "Ric"), (curv.gamma[r], curv.riem[r], curv.ricci[0][r]),
                    exact_curvature(g, dg, d2g), absolute_sums(g, dg, d2g)):
                for idx, value in exact.items():
                    err = abs(float(mpmath.mpf(got[idx]) - value))
                    assert err <= scale * total[idx], (name, r, idx, err, scale * total[idx])


def exact_reaction_term(g, a, gm, gn, d1, riem_m, riem_n, ric, c, theta, v, w):
    """The reaction term at one row in mpmath at the working precision, from
    the float64 columns as given, each frame sum a trace with the exact
    ``g^-1``; ``A`` on chart slots, ``a[i, j]``, splits into its domain and
    target parts, weighed by ``1 - nu`` and ``-(1 + nu)``."""
    m, n = len(g), len(gn)
    mp = np.vectorize(mpmath.mpf, otypes=[object])
    a, gm, gn, d1, riem_m, riem_n, ric, theta, v, w = map(
        mp, (a, gm, gn, d1, riem_m, riem_n, ric, theta, v, w))
    c = mpmath.mpf(c)
    nu = (1 - c) / (1 + c)
    inv = mpmath.matrix(g.tolist()) ** -1
    gi = np.array([[inv[i, k] for k in range(m)] for i in range(m)], dtype=object)
    value = -(ric @ v) @ theta @ w - (ric @ w) @ theta @ v
    a_v, a_w = a.transpose(0, 2, 1) @ v, a.transpose(0, 2, 1) @ w      # A(d_i, v)
    for part, G, weight in ((slice(None, m), gm, 1 - nu), (slice(m, None), gn, -(1 + nu))):
        value -= 2 * weight * sum(gi[i, k] * (a_v[i, part] @ G @ a_w[k, part])
                                  for i in range(m) for k in range(m))
    H, V, W = d1 @ gi @ d1.T, d1 @ v, d1 @ w
    r_n = sum(H[p, q] * riem_n[p, b, q, e] * V[b] * W[e]
              for p, b, q, e in product(range(n), repeat=4))
    r_m = sum(gi[i, k] * riem_m[i, j, k, l] * v[j] * w[l]
              for i, j, k, l in product(range(m), repeat=4))
    return value - 4 / (1 + c) * (r_n - c * r_m)


def reaction_absolute_sum(g, a, gm, gn, d1, riem_m, riem_n, ric, c, theta, v, w):
    """The formula of :func:`exact_reaction_term` over absolute values."""
    m = len(g)
    gi, a, gm, gn, d1, riem_m, riem_n, ric, theta, v, w = map(np.abs, (
        np.linalg.inv(g), a, gm, gn, d1, riem_m, riem_n, ric, theta, v, w))
    nu = abs((1 - c) / (1 + c))
    total = (ric @ v) @ theta @ w + (ric @ w) @ theta @ v
    for part, G in ((slice(None, m), gm), (slice(m, None), gn)):
        total += 2 * (1 + nu) * np.einsum("ik,ijc,cd,kld,j,l->", gi, a[..., part], G,
                                          a[..., part], v, w)
    r_n = np.einsum("pq,pbqe,b,e->", d1 @ gi @ d1.T, riem_n, d1 @ v, d1 @ w)
    return total + 4 / (1 + c) * (r_n + c * np.einsum("ik,ijkl,j,l->", gi, riem_m, v, w))


@pytest.mark.parametrize("m,n", list(product([2, 3], repeat=2)))
def test_reaction_term_matches_frame_free_oracle(m, n):
    f, coords = oracle_case(m, n)
    d = point_rows(f, coords)
    rng = np.random.default_rng(90 + 10 * m + n)
    theta = rng.normal(size=(len(d), 3, m, m))
    theta = theta + np.swapaxes(theta, -1, -2)
    v, w = rng.normal(size=(2, len(d), 3, m))
    with mpmath.workdps(DIGITS):
        for r in range(len(d)):
            c = (0.5, 2.0, 3.7)[r % 3]
            got = reaction_term_apply(d.take([r]), c, theta[r:r + 1], v[r:r + 1], w[r:r + 1])[0]
            cols = (d.g[r], d.a_coord[r], d.gm[r], d.gn[r], d.d1[r], d.riem_m[r], d.riem_n[r],
                    d.ric_g_op[r], c)
            bound = K_REACTION * EPS * np.linalg.cond(d.g[r])
            for t in range(3):
                draw = (theta[r, t], v[r, t], w[r, t])
                err = abs(float(mpmath.mpf(got[t]) - exact_reaction_term(*cols, *draw)))
                assert err <= bound * reaction_absolute_sum(*cols, *draw), (r, t, err)


def exact_range(riem, basis):
    """The least and greatest eigenvalue of ``R(b_i, b_j, b_k, b_l)`` over the
    pairs ``i < j``, ``k < l`` of the columns of ``basis``, in mpmath at the
    working precision by direct index loops, from the float64 values as
    given."""
    d, r = basis.shape
    mp = np.vectorize(mpmath.mpf, otypes=[object])
    R, b = mp(riem), mp(basis)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]

    def form(i, j, k, l):
        return sum(R[p, q, s, t] * b[p, i] * b[q, j] * b[s, k] * b[t, l]
                   for p, q, s, t in product(range(d), repeat=4))

    vals = mpmath.eigsy(mpmath.matrix([[form(*a, *c) for c in pairs] for a in pairs]),
                        eigvals_only=True)
    return min(vals), max(vals)


def range_errors(m, n):
    """Per end of each row's domain and image ranges, its error against
    :func:`exact_range` and its bound."""
    f, coords = oracle_case(m, n)
    blk = graph_block(f, coords)
    errors, bounds = [], []
    with mpmath.workdps(DIGITS):
        for r in range(len(coords)):
            rank = int(blk.frames.rank[r])
            sides = [(blk.sec_range_m[r], blk.riem_m[r], blk.frames.alpha[r])]
            if rank >= 2:
                sides.append((blk.sec_range_n[r], blk.riem_n[r], blk.frames.beta[r][:, -rank:]))
            for got, riem, basis in sides:
                d, k = basis.shape
                i, j = np.triu_indices(k, 1)
                U = np.abs(basis[:, None, i] * basis[None, :, j]).reshape(d * d, -1)
                S = U.T @ np.abs(riem).reshape(d * d, d * d) @ U
                for value, exact in zip(got, exact_range(riem, basis)):
                    errors.append(abs(float(mpmath.mpf(value) - exact)))
                    bounds.append(K * EPS * np.linalg.norm(S))
    return np.array(errors), np.array(bounds)


@pytest.mark.parametrize("m,n", list(product([2, 3], repeat=2)))
def test_curvature_ranges_match_the_operator_oracle(m, n):
    err, bound = range_errors(m, n)
    assert len(err) >= 2 * 20
    worst = int(np.argmax(err / bound))
    assert err[worst] <= bound[worst], (worst, err[worst], bound[worst])


def induced_jet(d1, d2, gm, dgm, h, dh):
    """``g = g_M + dF^T h dF`` and ``dg[k] = d_k g`` by the chain rule, for
    float or mpmath entries alike (over absolute values: the sums that bound
    their rounding)."""
    g = gm + np.einsum("ai,ab,bj->ij", d1, h, d1)
    dg = dgm + (np.einsum("aki,bj,ab->kij", d2, d1, h) + np.einsum("ai,bkj,ab->kij", d1, d2, h)
                + np.einsum("ai,bj,cab,ck->kij", d1, d1, dh, d1))
    return g, dg


def chart_slot_a(gam_m, gam_n, gam_g, d1, d2, sign=-1):
    """``A`` on chart slots, ``a[i, j]``: the domain part ``Gamma_M - Gamma_g``
    over the target part ``d2F + Gamma_N(dF, dF) - Gamma_g dF``; with
    ``sign=1`` on absolute values, the same sums over absolute values."""
    dom = np.einsum("kij->ijk", gam_m) + sign * np.einsum("kij->ijk", gam_g)
    tgt = (np.einsum("aij->ija", d2) + np.einsum("abc,bi,cj->ija", gam_n, d1, d1)
           + sign * np.einsum("kij,ak->ija", gam_g, d1))
    return np.concatenate([dom, tgt], axis=-1)


def exact_christoffel(g, dg):
    """``Gamma[k, i, j]`` of :func:`exact_curvature`, which reads no ``d2g``
    for it."""
    zero = np.zeros((len(g),) * 4)
    gam = exact_curvature(g, dg, zero)[0]
    return np.array(list(gam.values()), dtype=object).reshape(zero.shape[1:])


def a_coord_errors(f, coords):
    """Per entry of each row's ``a_coord``, its error against the chart-slot
    formula in mpmath at 40 digits, and its bound."""
    blk = graph_block(f, coords)
    jets = blk.jets
    mp = np.vectorize(mpmath.mpf, otypes=[object])
    errors, bounds = [], []
    with mpmath.workdps(DIGITS):
        for r in range(len(coords)):
            d1, d2, gm, dgm, h, dh = (np.asarray(a[r]) for a in (
                jets.f.d1, jets.f.d2, jets.gm.g, jets.gm.dg, jets.gn.g, jets.gn.dg))
            g, dg = induced_jet(*map(mp, (d1, d2, gm, dgm, h, dh)))
            exact = chart_slot_a(*(exact_christoffel(*jet) for jet in ((gm, dgm), (h, dh), (g, dg))),
                                 *map(mp, (d1, d2)))
            _, dg_abs = induced_jet(*map(np.abs, (d1, d2, gm, dgm, h, dh)))
            total = chart_slot_a(*(absolute_sums(x, dx, np.zeros((len(x),) * 4))[0]
                                   for x, dx in ((gm, dgm), (h, dh), (blk.g[r], dg_abs))),
                                 abs(d1), abs(d2), sign=1)
            kappa = max(map(np.linalg.cond, (gm, h, blk.g[r])))
            got = blk.ext.a_coord[r]
            for idx in np.ndindex(got.shape):
                errors.append(abs(float(mpmath.mpf(got[idx]) - exact[idx])))
                bounds.append(K * EPS * kappa * total[idx])
    return np.array(errors), np.array(bounds)


def a_coord_case(case):
    """The map and 20 sample points of an ``oracle_case`` pair, or of holo-w2
    over its sample box."""
    if case != "holo-w2":
        return oracle_case(*case)
    sc = get(case)
    rng = np.random.default_rng(95)
    return sc.f, rng.uniform(*sc.sample_box.T, size=(20, 2))


@pytest.mark.parametrize("case", [*product([2, 3], repeat=2), "holo-w2"],
                         ids=lambda case: case if case == "holo-w2" else "%d-%d" % case)
def test_a_coord_matches_the_chart_slot_oracle(case):
    err, bound = a_coord_errors(*a_coord_case(case))
    worst = int(np.argmax(err / bound))
    assert err[worst] <= bound[worst], (worst, err[worst], bound[worst])



def second_jets(d1, d2, d3, h, dh, d2h, gm, dgm, d2gm, sign=-1):
    """``(dg, d2g, d2s)``: the chart derivatives ``dg[k] = d_k g`` and
    ``d2g[l, k] = d_l d_k g`` of the induced metric ``g = g_M + P`` and
    ``d2s = d2g_M - d2P`` of the deficit, ``P_ij = F_ai H_ab F_bj`` with ``F =
    dF`` and ``H = h o F``, by the product rule over its three factors, for
    float or mpmath entries alike; with ``sign=1`` on absolute values, the
    same sums over absolute values."""
    F1, F2 = np.einsum("aki->kai", d2), np.einsum("alki->lkai", d3)
    H1 = np.einsum("cab,ck->kab", dh, d1)
    H2 = np.einsum("dcab,dl,ck->lkab", d2h, d1, d1) + np.einsum("cab,clk->lkab", dh, d2)
    dP = (np.einsum("kai,ab,bj->kij", F1, h, d1) + np.einsum("ai,kab,bj->kij", d1, H1, d1)
          + np.einsum("ai,ab,kbj->kij", d1, h, F1))
    d2P = (np.einsum("lkai,ab,bj->lkij", F2, h, d1) + np.einsum("ai,lkab,bj->lkij", d1, H2, d1)
           + np.einsum("ai,ab,lkbj->lkij", d1, h, F2)
           + np.einsum("lai,kab,bj->lkij", F1, H1, d1) + np.einsum("kai,lab,bj->lkij", F1, H1, d1)
           + np.einsum("lai,ab,kbj->lkij", F1, h, F1) + np.einsum("kai,ab,lbj->lkij", F1, h, F1)
           + np.einsum("ai,lab,kbj->lkij", d1, H1, F1) + np.einsum("ai,kab,lbj->lkij", d1, H1, F1))
    return dgm + dP, d2gm + d2P, d2gm + sign * d2P


def log_det_hessian(inv, dG, d2G, sign=-1):
    """``d_k d_l ln det G = tr(G^-1 d_k d_l G) - tr(G^-1 d_k G G^-1 d_l G)``
    from ``G^-1`` and the jet of ``G``, over leading axes; with ``sign=1`` on
    absolute values, the same sums over absolute values."""
    return (np.einsum("...ij,...klji->...kl", inv, d2G)
            + sign * np.einsum("...ij,...kjp,...pq,...lqi->...kl", inv, dG, inv, dG))


def second_jet_errors(f, coords):
    """Per entry of each row's ``dg``, ``d2g``, ``d2s`` and ``d2 ln J``, its
    error against :func:`second_jets` and :func:`log_det_hessian` in mpmath
    at 40 digits, and its bound."""
    blk = graph_block(f, coords)
    jets = blk.jets
    ln_j = 0.5 * (log_det_hessian(blk.curv_m.ginv, jets.gm.dg, jets.gm.d2g)
                  - log_det_hessian(blk.ginv, blk.induced.dg, blk.curv_g2.jet.d2g))
    engine = {"dg": blk.induced.dg, "d2g": blk.curv_g2.jet.d2g,
              "d2s": jets.gm.d2g - pullback_metric_d2(jets.f, jets.gn), "d2 ln J": ln_j}
    mp = np.vectorize(mpmath.mpf, otypes=[object])
    errors = {name: [] for name in engine}
    with mpmath.workdps(DIGITS):
        for r in range(len(coords)):
            row = [np.asarray(a[r]) for a in (jets.f.d1, jets.f.d2, jets.f.d3, *jets.gn, *jets.gm)]
            gm, g = row[-3], blk.g[r]
            dg, d2g, d2s = second_jets(*map(mp, row))
            inv_m, inv = (np.array((mpmath.matrix(mp(x).tolist()) ** -1).tolist(), dtype=object)
                          for x in (gm, g))
            exact = {"dg": dg, "d2g": d2g, "d2s": d2s,
                     "d2 ln J": (log_det_hessian(inv_m, mp(row[-2]), mp(row[-1]))
                                 - log_det_hessian(inv, dg, d2g)) / 2}
            dg_abs, d2g_abs, d2s_abs = second_jets(*map(np.abs, row), sign=1)
            kappa = max(np.linalg.cond(gm), np.linalg.cond(g))
            inv_abs = [np.full_like(x, np.abs(np.linalg.inv(x)).max()) for x in (gm, g)]
            ln_j_abs = (log_det_hessian(inv_abs[0], abs(row[-2]), abs(row[-1]), sign=1)
                        + log_det_hessian(inv_abs[1], dg_abs, d2g_abs, sign=1)) / 2
            scales = {"dg": dg_abs, "d2g": d2g_abs, "d2s": d2s_abs, "d2 ln J": kappa * ln_j_abs}
            for name, got in engine.items():
                for idx in np.ndindex(got.shape[1:]):
                    err = abs(float(mpmath.mpf(got[r][idx]) - exact[name][idx]))
                    errors[name].append((err, K * EPS * scales[name][idx]))
    return {name: np.array(pairs).T for name, pairs in errors.items()}


@pytest.mark.parametrize("case", [*product([2, 3], repeat=2), "holo-w2"],
                         ids=lambda case: case if case == "holo-w2" else "%d-%d" % case)
def test_second_jets_and_the_log_jacobian_hessian_match_the_product_rule_oracle(case):
    for name, (err, bound) in second_jet_errors(*a_coord_case(case)).items():
        assert len(err) >= 20
        worst = int(np.argmax(err / bound))
        assert err[worst] <= bound[worst], (name, worst, err[worst], bound[worst])
