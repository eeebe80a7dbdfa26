import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgeo.chart_manifold import (
    MetricJet,
    christoffel_at,
    christoffel_from_jet,
    constant_metric_chart,
    curvature_form,
    quadratic_form,
    ricci_at,
    riemann_at,
    riemann_from_jet,
    sectional_curvature,
    sectional_from_data,
    sectional_range,
    sphere_chart,
    sym_eigen,
)
from graphgeo.errors import (
    DegenerateMetricError,
    DegeneratePlaneError,
    OutOfChartError,
)
from test_block_partition import polynomial_chart


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
    s2 = sphere_chart(2, 1.0)._replace(chart_box=[[-5.0, 5.0]] * 2)
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


def range_case(seed: int, m: int, rows: int = 4):
    """Curvature tensors, metrics and a g-orthonormal basis (the eigenbasis of
    a random symmetric form) at ``rows`` points of a non-diagonal polynomial
    chart of dimension ``m``."""
    rng = np.random.default_rng(seed)
    jet = polynomial_chart(rng, m, 0.05).jet(rng.uniform(-1.0, 1.0, size=(rows, m)))
    phi = rng.normal(size=(rows, m, m))
    basis = sym_eigen(phi + np.swapaxes(phi, -1, -2), jet.g)[1]
    return rng, riemann_from_jet(jet), jet.g, basis


def random_plane_curvatures(rng, riem, g, planes: int = 200):
    """The sectional curvatures of ``planes`` random planes per row, each
    spanned by a g-orthonormal pair, so that no area cancels."""
    g = g[:, None]
    u, v = rng.normal(size=(2, len(riem), planes, g.shape[-1]))
    u = u / np.sqrt(quadratic_form(u, g, u))[..., None]
    v = v - quadratic_form(u, g, v)[..., None] * u
    v = v / np.sqrt(quadratic_form(v, g, v))[..., None]
    sec, spans = sectional_from_data(riem[:, None], g, u, v)
    assert spans.all()
    return sec


def operator_on_pairs(riem: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``R(b_i, b_j, b_k, b_l)`` over the pairs ``i < j`` (rows) and ``k < l``
    (columns) of the basis columns, one curvature form per entry."""
    r = basis.shape[-1]
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    b = np.swapaxes(basis, -1, -2)
    return np.stack([np.stack([curvature_form(riem, b[..., i, :], b[..., j, :], b[..., k, :],
                                              b[..., l, :]) for k, l in pairs], axis=-1)
                     for i, j in pairs], axis=-2)


def plane_of(omega: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors spanning the plane of the decomposable 2-vector ``omega``
    (coefficients over the pairs ``i < j`` of the basis columns): the
    leading singular vectors of its antisymmetric matrix."""
    r = basis.shape[-1]
    i, j = np.triu_indices(r, 1)
    w = np.zeros((r, r))
    w[i, j], w[j, i] = omega, -omega
    u = np.linalg.svd(w)[0]
    return basis @ u[:, 0], basis @ u[:, 1]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([2, 3]))
def test_sectional_range_holds_every_plane_and_attains_its_ends(seed, m):
    # in dimensions 2 and 3 every 2-vector is a plane: the range contains
    # every random plane's curvature, and the planes of the extreme
    # eigenvectors reach its ends
    rng, riem, g, basis = range_case(seed, m)
    low, high = sectional_range(riem, basis).T
    vals, vecs = np.linalg.eigh(operator_on_pairs(riem, basis))
    scale = np.maximum(np.abs(vals).max(axis=-1), 1e-300)
    sec = random_plane_curvatures(rng, riem, g)
    assert np.all(sec >= (low - 1e-12 * scale)[:, None])
    assert np.all(sec <= (high + 1e-12 * scale)[:, None])
    for r in range(len(g)):
        for end, k in ((low[r], 0), (high[r], -1)):
            u, v = plane_of(vecs[r, :, k], basis[r])
            attained, spans = sectional_from_data(riem[r], g[r], u, v)
            assert spans and abs(attained - end) <= 1e-12 * scale[r], (r, k, attained, end)


def test_sectional_range_encloses_the_planes_of_a_4d_chart():
    # six 2-vectors, not all of them planes: the ends enclose the range
    rng, riem, g, basis = range_case(44, 4, rows=6)
    low, high = sectional_range(riem, basis).T
    sec = random_plane_curvatures(rng, riem, g, planes=2000)
    scale = np.maximum(np.abs(low), np.abs(high))
    assert np.all(sec >= (low - 1e-12 * scale)[:, None])
    assert np.all(sec <= (high + 1e-12 * scale)[:, None])


def test_sectional_range_of_round_and_flat_metrics():
    # a sphere of radius 2 has every curvature 1/4; a flat chart 0.0, never
    # -0.0; one vector spans no plane, and a NaN tensor gives NaN ends
    for dim in (2, 3):
        sphere = sphere_chart(dim, 2.0)
        jet = sphere.jet(np.array([[0.3, -0.2, 0.1][:dim]]))
        basis = sym_eigen(np.zeros_like(jet.g), jet.g)[1]
        ends = sectional_range(riemann_from_jet(jet), basis)
        assert ends.shape == (1, 2) and np.all(np.abs(ends - 0.25) < 1e-14)
        flat = np.zeros((1, dim, dim, dim, dim))
        assert sectional_range(-flat, basis).tobytes() == bytes(16)
        assert np.isnan(sectional_range(flat, basis[..., :1])).all()
        assert np.isnan(sectional_range(np.full_like(flat, np.nan), basis)).all()


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
    # oracle: LAPACK's generalized solver, not the whitened eigh of sym_eigen
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
