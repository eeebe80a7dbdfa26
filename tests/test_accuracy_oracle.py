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
"""

from itertools import product

import mpmath
import numpy as np
import pytest

from graphgeo.chart_manifold import Curvature
from graphgeo.extrinsic import graph_block
from graphgeo.theorem_gate import sweep_geometry
from test_block_partition import polynomial_chart, quadratic_map

EPS = np.finfo(float).eps
K = 32
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
