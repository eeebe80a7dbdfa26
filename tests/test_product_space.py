import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgeo.chart_manifold import (
    ChartPoint,
    MetricJet,
    christoffel_from_jet,
    constant_metric_chart,
    riemann_from_jet,
    sphere_chart,
    sym_eigen,
)
from graphgeo.product_space import (
    ProductPoint,
    ProductSpace,
    block_diag,
    product_form,
)

M_FACTOR, N_FACTOR = sphere_chart(2, 1.0), sphere_chart(2, 2.0)


@pytest.fixture
def s2xs2():
    """The factor metric jets at a point ``(x, y)`` of S2(1) x S2(2)."""
    def at(x, y):
        return (point_jet(M_FACTOR.metric_jet(np.asarray(x, float)[None])),
                point_jet(N_FACTOR.metric_jet(np.asarray(y, float)[None])))
    return at


def point_jet(jet):
    """The one point of a block-of-one metric jet."""
    return MetricJet(jet.g[0], jet.dg[0], jet.d2g[0])


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
    """The product curvature ``R(u1, u2, u3, u4)`` on stacked vectors."""
    R = riemann_from_jet(product_jet(jm, jn))
    return float(np.einsum("ijkl,i,j,k,l->", R, *us))


def stacked(rng, m, n):
    return rng.normal(size=m + n)


def test_metric_block_orthogonality(s2xs2):
    jm, jn = s2xs2([0.3, -0.2], [0.1, 0.5])
    u = np.array([1.0, 2.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 3.0, -1.0])
    assert product_form(jm.g, jn.g, u, v) == 0.0


def test_metric_unit_domain_vector(s2xs2):
    jm, jn = s2xs2([0.0, 0.0], [0.0, 0.0])
    u = np.array([1.0 / np.sqrt(jm.g[0, 0]), 0.0, 0.0, 0.0])
    assert abs(product_form(jm.g, jn.g, u, u) - 1.0) < 1e-14


def test_metric_is_block_sum(s2xs2):
    rng = np.random.default_rng(0)
    jm, jn = s2xs2([0.4, 0.1], [-0.3, 0.2])
    for _ in range(20):
        u, v = stacked(rng, 2, 2), stacked(rng, 2, 2)
        expected = u[:2] @ jm.g @ v[:2] + u[2:] @ jn.g @ v[2:]
        assert abs(product_form(jm.g, jn.g, u, v) - expected) < 1e-13
        # the same value from the block-diagonal product matrix
        assert abs(u @ block_diag(jm.g, jn.g) @ v - expected) < 1e-13


def test_split_form_signs(s2xs2):
    jm, jn = s2xs2([0.0, 0.0], [0.0, 0.0])
    um = np.array([1.0 / np.sqrt(jm.g[0, 0]), 0.0, 0.0, 0.0])
    un = np.array([0.0, 0.0, 1.0 / np.sqrt(jn.g[0, 0]), 0.0])
    assert abs(product_form(jm.g, -jn.g, um, um) - 1.0) < 1e-14
    assert abs(product_form(jm.g, -jn.g, un, un) + 1.0) < 1e-14
    diag = um + un
    assert abs(product_form(jm.g, -jn.g, diag, diag)) < 1e-14


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(1, 4),
       lead=st.lists(st.integers(1, 4), max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_product_form_properties(m, n, lead, seed):
    rng = np.random.default_rng(seed)

    def spd(k):
        a = rng.normal(size=(k, k))
        return a @ a.T + k * np.eye(k)

    gm, gn = spd(m), spd(n)
    u, v, w = (rng.normal(size=(*lead, m + n)) for _ in range(3))
    a, b = rng.normal(size=2)
    abs_g = block_diag(np.abs(gm), np.abs(gn))

    def close(x, y, *pairs):
        # relative to the size of the terms summed in the form
        scale = sum(np.einsum("...i,ij,...j->...", np.abs(p), abs_g, np.abs(q))
                    for p, q in pairs)
        return np.all(np.abs(x - y) <= 1e-12 * scale)

    uv = product_form(gm, gn, u, v)
    assert uv.shape == tuple(lead)
    assert close(uv, product_form(gm, gn, v, u), (u, v))
    mix = a * u + b * w
    assert close(product_form(gm, gn, mix, v), a * uv + b * product_form(gm, gn, w, v),
                 (mix, v), (a * u, v), (b * w, v))

    space = ProductSpace(constant_metric_chart(m, gm), constant_metric_chart(n, gn))
    q = ProductPoint(ChartPoint(np.zeros(m)), ChartPoint(np.zeros(n)))
    for form, matrix in ((uv, space.metric_matrix(q)),
                         (product_form(gm, -gn, u, v), space.s_matrix(q))):
        assert close(form, np.einsum("...i,ij,...j->...", u, matrix, v), (u, v))

    # a pure-M vector and a pure-N vector are orthogonal, exactly
    pure_m, pure_n = u.copy(), v.copy()
    pure_m[..., m:] = 0.0
    pure_n[..., :m] = 0.0
    assert np.all(product_form(gm, gn, pure_m, pure_n) == 0.0)
    assert np.all(product_form(gm, -gn, pure_m, pure_n) == 0.0)

    # a batch gives, bit for bit, its rows evaluated one at a time
    rows = [product_form(gm, gn, x, y)
            for x, y in zip(u.reshape(-1, m + n), v.reshape(-1, m + n))]
    assert np.array_equal(uv.reshape(-1), rows)


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
        us = [np.concatenate([rng.normal(size=2), np.zeros(2)]) for _ in range(4)]
        expected = np.einsum("ijkl,i,j,k,l->", rm, *[u[:2] for u in us])
        assert abs(riemann(jm, jn, *us) - expected) < 1e-12


def test_product_riemann_mixed_arguments_vanish(s2xs2):
    jm, jn = s2xs2([0.3, 0.3], [0.1, -0.1])
    um = np.array([1.0, 0.5, 0.0, 0.0])
    un = np.array([0.0, 0.0, 0.3, 1.0])
    assert riemann(jm, jn, um, un, um, un) == 0.0


def test_product_riemann_block_sum_oracle(s2xs2):
    rng = np.random.default_rng(2)
    jm, jn = s2xs2([0.2, -0.6], [0.4, 0.1])
    rm = riemann_from_jet(jm)
    rn = riemann_from_jet(jn)
    for _ in range(20):
        us = [stacked(rng, 2, 2) for _ in range(4)]
        expected = (np.einsum("ijkl,i,j,k,l->", rm, *[u[:2] for u in us])
                    + np.einsum("ijkl,i,j,k,l->", rn, *[u[2:] for u in us]))
        assert abs(riemann(jm, jn, *us) - expected) < 1e-12


def test_product_riemann_symmetries(s2xs2):
    rng = np.random.default_rng(3)
    jm, jn = s2xs2([0.1, 0.8], [-0.5, 0.2])
    for _ in range(50):
        u1, u2, u3, u4 = (stacked(rng, 2, 2) for _ in range(4))
        v = riemann(jm, jn, u1, u2, u3, u4)
        assert abs(v + riemann(jm, jn, u2, u1, u3, u4)) < 1e-8
        assert abs(v + riemann(jm, jn, u1, u2, u4, u3)) < 1e-8
        assert abs(v - riemann(jm, jn, u3, u4, u1, u2)) < 1e-8
