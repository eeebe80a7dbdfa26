import numpy as np
import pytest

from graphgeo.chart_manifold import (
    ChartPoint,
    MetricJet,
    christoffel_from_jet,
    riemann_from_jet,
    sphere_chart,
    sym_eigen,
)
from graphgeo.product_space import (
    ProductPoint,
    ProductSpace,
    SplitVector,
    block_diag,
    product_metric,
)

M_FACTOR, N_FACTOR = sphere_chart(2, 1.0), sphere_chart(2, 2.0)


@pytest.fixture
def s2xs2():
    """The factor metric jets at a point ``(x, y)`` of S2(1) x S2(2)."""
    def at(x, y):
        return (M_FACTOR.metric_jet(np.asarray(x, float)),
                N_FACTOR.metric_jet(np.asarray(y, float)))
    return at


def product_jet(jm, jn):
    """Metric jet of the product chart (x, y): g_M depends on x only, g_N on y."""
    m, n = jm.g.shape[0], jn.g.shape[0]
    dg = np.zeros((m + n,) * 3)
    d2g = np.zeros((m + n,) * 4)
    dg[:m, :m, :m] = jm.dg
    dg[m:, m:, m:] = jn.dg
    d2g[:m, :m, :m, :m] = jm.d2g
    d2g[m:, m:, m:, m:] = jn.d2g
    return MetricJet(block_diag(jm.g, jn.g), dg, d2g)


def riemann(jm, jn, *us):
    """The product curvature ``R(u1, u2, u3, u4)`` on split vectors."""
    R = riemann_from_jet(product_jet(jm, jn))
    return float(np.einsum("ijkl,i,j,k,l->", R,
                           *[np.concatenate([u.m_part, u.n_part]) for u in us]))


def split(rng, m, n):
    return SplitVector(rng.normal(size=m), rng.normal(size=n))


def test_metric_block_orthogonality(s2xs2):
    jm, jn = s2xs2([0.3, -0.2], [0.1, 0.5])
    u = SplitVector([1.0, 2.0], [0.0, 0.0])
    v = SplitVector([0.0, 0.0], [3.0, -1.0])
    assert product_metric(jm.g, jn.g, u, v) == 0.0


def test_metric_unit_domain_vector(s2xs2):
    jm, jn = s2xs2([0.0, 0.0], [0.0, 0.0])
    u = SplitVector([1.0 / np.sqrt(jm.g[0, 0]), 0.0], [0.0, 0.0])
    assert abs(product_metric(jm.g, jn.g, u, u) - 1.0) < 1e-14


def test_metric_is_block_sum(s2xs2):
    rng = np.random.default_rng(0)
    jm, jn = s2xs2([0.4, 0.1], [-0.3, 0.2])
    for _ in range(20):
        u, v = split(rng, 2, 2), split(rng, 2, 2)
        expected = u.m_part @ jm.g @ v.m_part + u.n_part @ jn.g @ v.n_part
        assert abs(product_metric(jm.g, jn.g, u, v) - expected) < 1e-13
        # the same value from the block-diagonal product matrix
        w = np.concatenate([v.m_part, v.n_part])
        assert abs(np.concatenate([u.m_part, u.n_part])
                   @ block_diag(jm.g, jn.g) @ w - expected) < 1e-13


def test_split_form_signs(s2xs2):
    jm, jn = s2xs2([0.0, 0.0], [0.0, 0.0])
    um = SplitVector([1.0 / np.sqrt(jm.g[0, 0]), 0.0], [0.0, 0.0])
    un = SplitVector([0.0, 0.0], [1.0 / np.sqrt(jn.g[0, 0]), 0.0])
    assert abs(product_metric(jm.g, -jn.g, um, um) - 1.0) < 1e-14
    assert abs(product_metric(jm.g, -jn.g, un, un) + 1.0) < 1e-14
    diag = SplitVector(um.m_part, un.n_part)
    assert abs(product_metric(jm.g, -jn.g, diag, diag)) < 1e-14


def test_split_form_signature(s2xs2):
    # eigenvalues of the split form relative to the product metric are
    # exactly m copies of +1 and n copies of -1
    space = ProductSpace(M_FACTOR, N_FACTOR)
    q = ProductPoint(ChartPoint([0.7, -0.4]), ChartPoint([0.2, 0.9]))
    vals, _ = sym_eigen(space.s_matrix(q), space.metric_matrix(q))
    assert np.abs(np.sort(vals) - np.array([-1.0, -1.0, 1.0, 1.0])).max() < 1e-10


def test_product_christoffel_mixed_components_vanish(s2xs2):
    jm, jn = s2xs2([0.5, 0.1], [-0.2, 0.3])
    gamma = christoffel_from_jet(product_jet(jm, jn))
    m = 2
    mixed = gamma.copy()
    mixed[:m, :m, :m] = 0.0
    mixed[m:, m:, m:] = 0.0
    assert np.abs(mixed).max() == 0.0
    # and the pure blocks are the factors' own Christoffels
    assert np.abs(gamma[:m, :m, :m] - christoffel_from_jet(jm)).max() < 1e-15
    assert np.abs(gamma[m:, m:, m:] - christoffel_from_jet(jn)).max() < 1e-15


def test_product_riemann_pure_domain_arguments(s2xs2):
    rng = np.random.default_rng(1)
    jm, jn = s2xs2([0.3, 0.3], [0.1, -0.1])
    rm = riemann_from_jet(jm)
    for _ in range(10):
        us = [SplitVector(rng.normal(size=2), np.zeros(2)) for _ in range(4)]
        expected = np.einsum("ijkl,i,j,k,l->", rm, *[u.m_part for u in us])
        assert abs(riemann(jm, jn, *us) - expected) < 1e-12


def test_product_riemann_mixed_arguments_vanish(s2xs2):
    jm, jn = s2xs2([0.3, 0.3], [0.1, -0.1])
    um = SplitVector([1.0, 0.5], [0.0, 0.0])
    un = SplitVector([0.0, 0.0], [0.3, 1.0])
    assert riemann(jm, jn, um, un, um, un) == 0.0


def test_product_riemann_block_sum_oracle(s2xs2):
    rng = np.random.default_rng(2)
    jm, jn = s2xs2([0.2, -0.6], [0.4, 0.1])
    rm = riemann_from_jet(jm)
    rn = riemann_from_jet(jn)
    for _ in range(20):
        us = [split(rng, 2, 2) for _ in range(4)]
        expected = (np.einsum("ijkl,i,j,k,l->", rm, *[u.m_part for u in us])
                    + np.einsum("ijkl,i,j,k,l->", rn, *[u.n_part for u in us]))
        assert abs(riemann(jm, jn, *us) - expected) < 1e-12


def test_product_riemann_symmetries(s2xs2):
    rng = np.random.default_rng(3)
    jm, jn = s2xs2([0.1, 0.8], [-0.5, 0.2])
    for _ in range(50):
        u1, u2, u3, u4 = (split(rng, 2, 2) for _ in range(4))
        v = riemann(jm, jn, u1, u2, u3, u4)
        assert abs(v + riemann(jm, jn, u2, u1, u3, u4)) < 1e-8
        assert abs(v + riemann(jm, jn, u1, u2, u4, u3)) < 1e-8
        assert abs(v - riemann(jm, jn, u3, u4, u1, u2)) < 1e-8
