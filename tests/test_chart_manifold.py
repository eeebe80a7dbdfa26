import numpy as np
import pytest
import scipy.linalg

from graphgeo.chart_manifold import (
    MetricJet,
    christoffel_at,
    christoffel_from_jet,
    constant_metric_chart,
    ricci_at,
    riemann_at,
    riemann_from_jet,
    sectional_curvature,
    sphere_chart,
    sym_eigen,
)
from graphgeo.errors import (
    DegenerateMetricError,
    DegeneratePlaneError,
    OutOfChartError,
)


def random_point(man, rng, halfwidth=2.0):
    return man.point(rng.uniform(-halfwidth, halfwidth, man.dim))


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def test_christoffel_flat_chart_vanishes():
    flat = constant_metric_chart(3)
    p = flat.point([0.3, -1.0, 2.0])
    assert np.abs(christoffel_at(flat, p)).max() == 0.0


def test_christoffel_stereographic_origin_vanishes():
    # the conformal factor is critical at the chart origin
    s2 = sphere_chart(2, 1.0)
    gamma = christoffel_at(s2, s2.point([0.0, 0.0]))
    assert np.abs(gamma).max() < 1e-15


def test_christoffel_circle_chart_vanishes():
    circle = constant_metric_chart(1, [[4.0]])
    assert np.abs(christoffel_at(circle, circle.point([0.7]))).max() == 0.0


def test_christoffel_symmetric_in_lower_indices():
    s3 = sphere_chart(3, 2.0)
    gamma = christoffel_at(s3, s3.point([0.4, -0.2, 1.1]))
    assert np.abs(gamma - np.swapaxes(gamma, 1, 2)).max() < 1e-14


def test_degenerate_metric_raises():
    bad = constant_metric_chart(2, [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateMetricError):
        christoffel_at(bad, bad.point([0.0, 0.0]))


def test_out_of_chart_raises():
    s2 = sphere_chart(2, 1.0, box_halfwidth=5.0)
    with pytest.raises(OutOfChartError):
        s2.jet(np.array([[10.0, 0.0]]))


# ---------------------------------------------------------------------------
# Riemann tensor
# ---------------------------------------------------------------------------

def test_riemann_flat_torus_zero():
    torus = constant_metric_chart(2)
    R = riemann_at(torus, torus.point([1.0, -2.0]))
    assert np.abs(R).max() == 0.0


def test_riemann_unit_sphere_matches_constant_curvature_form():
    s2 = sphere_chart(2, 1.0)
    for coords in ([0.0, 0.0], [0.3, -0.7], [1.5, 0.2]):
        p = s2.point(coords)
        g = s2.jet(p.coords[None]).g[0]
        R = riemann_at(s2, p)
        expected = np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)
        assert np.abs(R - expected).max() < 1e-12


@pytest.mark.parametrize("man_fn", [
    lambda: sphere_chart(2, 1.0),
    lambda: sphere_chart(2, 2.0),
    lambda: sphere_chart(3, 1.0),
    lambda: constant_metric_chart(2),
])
def test_riemann_symmetries_and_bianchi(man_fn):
    man = man_fn()
    rng = np.random.default_rng(1)
    for _ in range(100):
        R = riemann_at(man, random_point(man, rng))
        assert np.abs(R + np.transpose(R, (1, 0, 2, 3))).max() < 1e-8
        assert np.abs(R + np.transpose(R, (0, 1, 3, 2))).max() < 1e-8
        assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-8
        bianchi = (R + np.transpose(R, (0, 2, 3, 1))
                   + np.transpose(R, (0, 3, 1, 2)))
        assert np.abs(bianchi).max() < 1e-8


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,radius", [(2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)])
def test_sphere_sectional_curvature(dim, radius):
    man = sphere_chart(dim, radius)
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = random_point(man, rng)
        u, v = rng.normal(size=dim), rng.normal(size=dim)
        sec = sectional_curvature(man, p, u, v)
        assert abs(sec - 1.0 / radius ** 2) < 1e-8


def test_flat_sectional_curvature():
    torus = constant_metric_chart(2)
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = random_point(torus, rng, 3.0)
        u, v = rng.normal(size=2), rng.normal(size=2)
        assert abs(sectional_curvature(torus, p, u, v)) < 1e-10


def test_degenerate_plane_raises():
    s2 = sphere_chart(2, 1.0)
    p = s2.point([0.1, 0.1])
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(s2, p, [1.0, 2.0], [2.0, 4.0])


# ---------------------------------------------------------------------------
# Ricci
# ---------------------------------------------------------------------------

def test_ricci_unit_s3_is_twice_metric():
    s3 = sphere_chart(3, 1.0)
    p = s3.point([0.2, 0.1, -0.4])
    ric, ric_op = ricci_at(s3, p)
    g = s3.jet(p.coords[None]).g[0]
    assert np.abs(ric - 2.0 * g).max() < 1e-10
    assert np.abs(ric_op - 2.0 * np.eye(3)).max() < 1e-10


def test_ricci_unit_s2_equals_metric():
    s2 = sphere_chart(2, 1.0)
    p = s2.point([0.5, 0.5])
    ric, _ = ricci_at(s2, p)
    assert np.abs(ric - s2.jet(p.coords[None]).g[0]).max() < 1e-10


def test_ricci_flat_zero():
    torus = constant_metric_chart(2)
    ric, ric_op = ricci_at(torus, torus.point([0.0, 0.0]))
    assert np.abs(ric).max() == 0.0
    assert np.abs(ric_op).max() == 0.0


def test_ricci_trace_is_scalar_curvature():
    # orthonormal-frame trace of Ricci = m(m-1)/r^2 on the sphere
    s3 = sphere_chart(3, 2.0)
    p = s3.point([0.3, -0.8, 0.5])
    ric, ric_op = ricci_at(s3, p)
    assert abs(np.trace(ric_op) - 3 * 2 / 4.0) < 1e-10


# ---------------------------------------------------------------------------
# Generalized symmetric eigensolver
# ---------------------------------------------------------------------------

def test_sym_eigen_zero_tensor():
    g = np.diag([1.0, 2.0, 3.0])
    vals, vecs = sym_eigen(np.zeros((3, 3)), g)
    assert np.abs(vals).max() == 0.0
    assert np.abs(vecs.T @ g @ vecs - np.eye(3)).max() < 1e-12


def test_sym_eigen_metric_itself():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(4, 4))
    g = W @ W.T + 4.0 * np.eye(4)
    vals, _ = sym_eigen(g, g)
    assert np.abs(vals - 1.0).max() < 1e-12


def test_sym_eigen_matches_dense_oracle():
    # oracle: LAPACK generalized solver, fully independent of the Jacobi path
    rng = np.random.default_rng(5)
    for _ in range(25):
        A = rng.normal(size=(4, 4))
        A = A + A.T
        W = rng.normal(size=(4, 4))
        g = W @ W.T + 4.0 * np.eye(4)
        vals, vecs = sym_eigen(A, g)
        oracle = scipy.linalg.eigh(A, g, eigvals_only=True)
        assert np.abs(vals - oracle).max() < 1e-10
        assert np.abs(vecs.T @ g @ vecs - np.eye(4)).max() < 1e-10


def test_sym_eigen_reconstruction():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 5))
    A = A + A.T
    W = rng.normal(size=(5, 5))
    g = W @ W.T + 5.0 * np.eye(5)
    vals, vecs = sym_eigen(A, g)
    recon = sum(vals[i] * np.outer(g @ vecs[:, i], g @ vecs[:, i])
                for i in range(5))
    assert np.abs(recon - A).max() < 1e-9


def test_sym_eigen_congruence_invariance():
    # eigenvalues are invariant under a change of chart basis applied
    # congruently to both the tensor and the metric
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        A = A + A.T
        W = rng.normal(size=(4, 4))
        g = W @ W.T + 4.0 * np.eye(4)
        T = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
        vals, _ = sym_eigen(A, g)
        vals_t, _ = sym_eigen(T.T @ A @ T, T.T @ g @ T)
        assert np.abs(vals - vals_t).max() < 1e-10


def test_sym_eigen_rejects_indefinite_metric():
    with pytest.raises(DegenerateMetricError):
        sym_eigen(np.eye(2), np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# Exact jets versus finite differences
# ---------------------------------------------------------------------------

def _fd_jet(man, coords, h):
    """MetricJet (a block of one) with dg, d2g recomputed by central
    differences of g, dg."""
    dim = man.dim
    g = man.metric_jet(coords[None]).g
    dg = np.zeros((1, dim, dim, dim))
    d2g = np.zeros((1, dim, dim, dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        plus, minus = man.metric_jet((coords + e)[None]), man.metric_jet((coords - e)[None])
        dg[:, k] = (plus.g - minus.g) / (2 * h)
        d2g[:, k] = (plus.dg - minus.dg) / (2 * h)
    return MetricJet(g, dg, d2g)


@pytest.mark.parametrize("quantity", [christoffel_from_jet, riemann_from_jet])
def test_fd_cross_check_converges_at_second_order(quantity):
    man = sphere_chart(2, 1.0)
    coords = np.array([0.4, -0.6])
    exact = quantity(man.metric_jet(coords[None]))

    def disc(h):
        return np.abs(quantity(_fd_jet(man, coords, h)) - exact).max()

    d1, d2 = disc(1e-3), disc(5e-4)
    assert d1 > 1e-12
    assert 3.5 <= d1 / d2 <= 4.5
