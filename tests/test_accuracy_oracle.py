"""The frame-side sweep columns against oracles that build no frame.

The sweep reads the singular values of df from one SVD of the whitened
differential and contracts the second fundamental form with the adapted
frame ``e``.  On quadratic maps between non-diagonal polynomial charts
(m, n in {2, 3}), 20 points each, three columns are compared:

* ``lambdas**2`` against the generalized eigenvalues mu of (P, g_M), with
  ``P = d1^T h d1`` formed and solved in mpmath at 40 digits from the same
  float64 jets;
* ``a_norm_sq`` and ``h_norm`` against a float64 contraction of ``a_coord``
  (A on chart-basis slots) with the inverse induced metric ``g^-1`` and the
  product metric ``G = g_M (+) h``, which uses no frame.

Each bound is ``K * eps * scale``, with one ``K`` for every column:

* lambda^2.  Forming ``W = L_N^T d1 L_M^-T`` in float64 perturbs it by a few
  ``eps * kappa * |W|``, with ``kappa = sqrt(cond(g_M) cond(h))`` bounding
  what the Cholesky factors and the triangular inverse amplify.  LAPACK's SVD
  is backward stable, so each singular value is within a few
  ``eps * kappa * |W|`` of the exact one (Weyl), and ``|W| = lambda_max``.
  Then ``|lambda^2 - mu| = |lambda - sqrt(mu)| (lambda + sqrt(mu))`` is at
  most ``K eps kappa (1 + lambda_max^2)``.
* |A|^2.  Both sides are float64 sums of products of the same ``a_coord``.
  Such a sum errs by a small multiple of eps times ``S``, the same sum over
  the absolute values of its terms.  The engine's side goes through ``e``,
  which is g-orthonormal to a few ``eps * cond(g)``, so the two sides differ
  by at most ``K eps cond(g) S``.
* |H|.  The same holds for ``|H|^2 = G(H, H)`` with its absolute sum
  ``S_H``; the square root divides a difference of squares by ``|H| + |H'|``,
  so ``||H| - |H'|| <= K eps cond(g) S_H / |H'|``.

On these cases the largest error is 1.3 such units for lambda^2, 2.6 for
|A|^2 and 0.7 for |H|, so ``K = 32`` leaves a margin of 12 or more.
"""

from itertools import product

import mpmath
import numpy as np
import pytest

from graphgeo.extrinsic import graph_block
from graphgeo.theorem_gate import sweep_geometry
from test_block_partition import polynomial_chart, quadratic_map

EPS = np.finfo(float).eps
K = 32
DIGITS = 40


def generalized_eigenvalues(d1, h, gm):
    """Ascending eigenvalues of (d1^T h d1, gm) in mpmath at ``DIGITS`` digits,
    from the float64 values as given."""
    with mpmath.workdps(DIGITS):
        d1, h, gm = (mpmath.matrix(a.tolist()) for a in (d1, h, gm))
        inv = mpmath.cholesky(gm) ** -1
        whitened = inv * (d1.T * h * d1) * inv.T
        vals = mpmath.eigsy((whitened + whitened.T) / 2, eigvals_only=True)
        return sorted(vals)


def oracle_errors(f, coords):
    """Per column, each row's error against its oracle and its bound."""
    sweep = sweep_geometry(f, coords, seed=0)
    blk = graph_block(f, coords)
    d1, gm, h, ginv, a = blk.d1, blk.gm, blk.gn, blk.ginv, blk.ext.a_coord
    m, n = gm.shape[-1], h.shape[-1]
    lam = sweep.lambdas

    with mpmath.workdps(DIGITS):
        lam2_err = np.array([
            max(abs(float(mpmath.mpf(lam[r, i]) ** 2 - mu))
                for i, mu in enumerate(generalized_eigenvalues(d1[r], h[r], gm[r])))
            for r in range(len(coords))])
    kappa = np.sqrt(np.linalg.cond(gm) * np.linalg.cond(h))
    lam2_bound = K * EPS * kappa * (1.0 + lam[:, -1] ** 2)

    G = np.zeros((len(coords), m + n, m + n))
    G[:, :m, :m], G[:, m:, m:] = gm, h
    norm_sq = "bik,bjl,bijc,bcd,bkld->b"
    a_norm_sq = np.einsum(norm_sq, ginv, ginv, a, G, a)
    a_abs = np.einsum(norm_sq, *map(np.abs, (ginv, ginv, a, G, a)))
    H, H_abs = np.einsum("bij,bijc->bc", ginv, a), np.einsum("bij,bijc->bc", abs(ginv), abs(a))
    h_norm = np.sqrt(np.einsum("bc,bcd,bd->b", H, G, H))
    h_abs = np.einsum("bc,bcd,bd->b", H_abs, abs(G), H_abs)
    cond_g = np.linalg.cond(gm + blk.pullback[0])
    return {
        "lambda^2": (lam2_err, lam2_bound),
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
