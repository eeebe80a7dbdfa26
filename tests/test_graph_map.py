import numpy as np
import pytest

from graphgeo.chart_manifold import (
    ChartPoint,
    MetricJet,
    matvec,
    ricci_from_jet,
    sphere_chart,
    sym_eigen,
)
from graphgeo.errors import CapabilityError, InvalidParameterError
from graphgeo.extrinsic import graph_block, trace_s_at
from graphgeo.graph_map import (
    FRAME_VERIFY_TOL,
    MapJet,
    SmoothMap,
    adapted_frames_at,
    frame_block,
    frame_formula_residual,
    frame_residual_block,
    induced_metric_jet,
    pullback_metric_at,
    shift_deficit,
    singular_values_at,
)
from graphgeo.identities import elliptic_equation_residual, point_rows
from graphgeo.product_space import product_form
from graphgeo.scenarios import (
    complex_power_map,
    constant_map,
    get,
    linear_map,
    registry,
    rotation_matrix_2d,
)
from test_block_partition import polynomial_chart, quadratic_map


def precompose_linear(f: SmoothMap, matrix, name: str | None = None) -> SmoothMap:
    """The composition ``x -> f(Q x)`` with exact chain-rule jets."""
    Q = np.asarray(matrix, dtype=float)

    def jet(x: np.ndarray) -> MapJet:
        inner = f.jet_fn(matvec(Q, x))
        d1 = np.einsum("...ab,bi->...ai", inner.d1, Q)
        d2 = np.einsum("...abc,bi,cj->...aij", inner.d2, Q, Q)
        d3 = None
        if inner.d3 is not None:
            d3 = np.einsum("...abcd,bi,cj,dk->...aijk", inner.d3, Q, Q, Q)
        return MapJet(inner.value, d1, d2, d3)

    return SmoothMap(f.domain, f.target, jet, name or f"{f.name}∘linear")


def conformal_lambda(k, w_abs):
    """Stretch factor of w -> w^k between unit spheres in stereographic charts."""
    return k * w_abs ** (k - 1) * (1 + w_abs ** 2) / (1 + w_abs ** (2 * k))


# ---------------------------------------------------------------------------
# Pullback metric
# ---------------------------------------------------------------------------

def test_pullback_constant_map_vanishes():
    sc = get("constant-s2")
    p = sc.domain.point([0.3, 0.7])
    assert np.abs(pullback_metric_at(sc.f, p)).max() == 0.0


def test_pullback_identity_equals_domain_metric():
    sc = get("identity-s2")
    p = sc.domain.point([0.5, -0.4])
    gm = sc.domain.metric_jet(p.coords[None]).g[0]
    assert np.abs(pullback_metric_at(sc.f, p) - gm).max() < 1e-15


def test_pullback_w2_at_one():
    sc = get("holo-w2")
    p = sc.domain.point([1.0, 0.0])
    P = pullback_metric_at(sc.f, p)
    gm = sc.domain.metric_jet(p.coords[None]).g[0]
    vals, _ = sym_eigen(P, gm)
    assert np.abs(vals - 4.0).max() < 1e-12
    assert np.abs(P - 4.0 * np.eye(2)).max() < 1e-12


# ---------------------------------------------------------------------------
# Singular values
# ---------------------------------------------------------------------------

def test_identity_singular_values():
    sc = get("identity-s2")
    svd = singular_values_at(sc.f, sc.domain.point([0.2, 0.9]))
    assert np.abs(svd.lambdas - 1.0).max() < 1e-12
    assert svd.rank == 2


def test_constant_singular_values():
    sc = get("constant-s3")
    svd = singular_values_at(sc.f, sc.domain.point([0.2, -0.9, 0.4]))
    assert np.abs(svd.lambdas).max() == 0.0
    assert svd.rank == 0


@pytest.mark.parametrize("name,k", [("holo-w2", 2), ("holo-w3", 3)])
def test_holomorphic_singular_values_match_conformal_formula(name, k):
    sc = get(name)
    rng = np.random.default_rng(8)
    for p in sc.random_points(20, rng):
        svd = singular_values_at(sc.f, p)
        lam = conformal_lambda(k, float(np.hypot(*p.coords)))
        assert np.abs(svd.lambdas - lam).max() < 1e-10


def test_w2_singular_value_two_at_one():
    sc = get("holo-w2")
    svd = singular_values_at(sc.f, sc.domain.point([1.0, 0.0]))
    assert np.abs(svd.lambdas - 2.0).max() < 1e-12
    assert svd.rank == 2


def test_rank_one_map_into_surface_frames():
    # exercises the mixed beta construction: one vector pinned by the
    # differential, one completed to a target-orthonormal basis
    s2 = sphere_chart(2, 1.0)
    f = linear_map(s2, s2, [[0.3, 0.0], [0.0, 0.0]], name="rank1")
    rng = np.random.default_rng(14)
    for _ in range(10):
        p = s2.point(rng.uniform(-1.0, 1.0, 2))
        fr = adapted_frames_at(f, p)
        assert fr.rank == 1
        assert fr.lambdas[0] == 0.0
        assert fr.lambdas[1] > 0.1
        assert frame_formula_residual(f, p, fr) < 1e-10
        # kernel direction maps to zero; stretched direction to the pinned
        # target vector scaled by the singular value
        d1 = f.jet(p.coords[None]).d1[0]
        assert np.abs(d1 @ fr.alpha[:, 0]).max() < 1e-12
        image = d1 @ fr.alpha[:, 1]
        assert np.abs(image - fr.lambdas[1] * fr.beta[:, 1]).max() < 1e-10


def test_rank_deficient_frames_read_zero_singular_values_at_roundoff():
    # rank-1 differentials d1 = a b^T from a 2-d domain into a 3-d target,
    # under non-diagonal metrics: each row's zero singular value must sit at
    # the roundoff of the differential, far below the rank floor, and the
    # frames must pass their self-check
    rng = np.random.default_rng(1)
    count, m, n = 20_000, 2, 3
    d1 = rng.normal(size=(count, n, 1)) @ rng.normal(size=(count, 1, m))
    gm, h = (w @ np.swapaxes(w, -1, -2) + 0.5 * np.eye(len(w[0]))
             for w in (rng.normal(size=(count, m, m)), rng.normal(size=(count, n, n))))
    frames = frame_block(d1, gm, h)
    lam = frames.lambdas
    assert np.all(frames.rank == 1)
    assert np.all(lam[:, 0] <= 1e-12 * (1.0 + lam[:, -1]))
    P = np.swapaxes(d1, -1, -2) @ h @ d1
    assert np.max(frame_residual_block(frames, gm, h, gm + P)) <= FRAME_VERIFY_TOL


def test_image_outside_target_chart_raises():
    from graphgeo.errors import OutOfChartError
    s2_small = sphere_chart(2, 1.0)._replace(chart_box=[[-2.0, 2.0]] * 2)
    f = linear_map(sphere_chart(2, 1.0), s2_small, 5.0 * np.eye(2), name="5x")
    with pytest.raises(OutOfChartError):
        f.jet(np.array([[1.0, 1.0]]))


def test_singular_values_invariant_under_isometric_precomposition():
    sc = get("holo-w2")
    Q = rotation_matrix_2d(0.83)
    g = precompose_linear(sc.f, Q)
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.uniform(-0.8, 0.8, 2)
        lam_f = singular_values_at(sc.f, sc.domain.point(Q @ x)).lambdas
        lam_g = singular_values_at(g, sc.domain.point(x)).lambdas
        assert np.abs(lam_f - lam_g).max() < 1e-8


# ---------------------------------------------------------------------------
# Adapted frames
# ---------------------------------------------------------------------------

def test_identity_mixed_frame_value():
    # the paired tangent-normal value at stretch one is exactly -1
    sc = get("identity-s2")
    p = sc.domain.point([0.4, 0.1])
    fr = adapted_frames_at(sc.f, p)
    d = point_rows(sc.f, [p])
    val = product_form(d.gm[0], -d.gn[0], fr.tangent[:, 1], fr.normal[:, 1])
    assert abs(val + 1.0) < 1e-12


def test_constant_map_normal_frame_values():
    sc = get("constant-s2")
    p = sc.domain.point([-0.3, 0.6])
    fr = adapted_frames_at(sc.f, p)
    d = point_rows(sc.f, [p])
    for xi in fr.normal.T:
        assert abs(product_form(d.gm[0], -d.gn[0], xi, xi) + 1.0) < 1e-12
        assert np.abs(xi[:2]).max() == 0.0


def test_w2_tangent_frame_value_at_one():
    sc = get("holo-w2")
    p = sc.domain.point([1.0, 0.0])
    fr = adapted_frames_at(sc.f, p)
    s = point_rows(sc.f, [p]).s[0]
    for i in range(2):
        val = float(fr.e[:, i] @ s @ fr.e[:, i])
        assert abs(val + 3.0 / 5.0) < 1e-12


def test_frame_orthonormality_all_scenarios():
    rng = np.random.default_rng(10)
    for sc in registry().values():
        for p in sc.random_points(20, rng):
            fr = adapted_frames_at(sc.f, p)
            assert frame_formula_residual(sc.f, p, fr) < 1e-8


def test_graph_differential_maps_frame_to_tangent_frame():
    rng = np.random.default_rng(11)
    for name in ("holo-w2", "proj-s3-s1", "conformal-shrink"):
        sc = get(name)
        for p in sc.random_points(10, rng):
            fr = adapted_frames_at(sc.f, p)
            d1 = sc.f.jet(p.coords[None]).d1[0]
            m = sc.domain.dim
            for i, et in enumerate(fr.tangent.T):
                e_i = fr.e[:, i]
                assert np.abs(e_i - et[:m]).max() < 1e-8
                assert np.abs(d1 @ e_i - et[m:]).max() < 1e-8


# ---------------------------------------------------------------------------
# Deficit tensor and its trace
# ---------------------------------------------------------------------------

def test_trace_constant_map_is_dimension():
    sc = get("constant-s3")
    assert abs(trace_s_at(sc.f, sc.domain.point([0.1, 0.2, 0.3])) - 3.0) < 1e-12


def test_trace_identity_vanishes():
    sc = get("identity-s2")
    assert abs(trace_s_at(sc.f, sc.domain.point([0.8, -0.1]))) < 1e-12


def test_trace_w2_at_one():
    sc = get("holo-w2")
    assert abs(trace_s_at(sc.f, sc.domain.point([1.0, 0.0])) + 6.0 / 5.0) < 1e-12


def test_s_eigenvalues_match_singular_value_formula():
    rng = np.random.default_rng(12)
    for sc in registry().values():
        for p in sc.random_points(10, rng):
            fr = adapted_frames_at(sc.f, p)
            d = point_rows(sc.f, [p])
            vals, _ = sym_eigen(d.s[0], d.g[0])
            # ascending s-eigenvalues pair with descending singular values
            pred = (1.0 - fr.lambdas[::-1] ** 2) / (1.0 + fr.lambdas[::-1] ** 2)
            assert np.abs(vals - pred).max() < 1e-10


def test_trace_via_frames_equals_trace_via_eigenvalues():
    rng = np.random.default_rng(13)
    for name in ("holo-w3", "proj-s3-s1", "scaled-sphere-2.0"):
        sc = get(name)
        for p in sc.random_points(10, rng):
            fr = adapted_frames_at(sc.f, p)
            s = point_rows(sc.f, [p]).s[0]
            frame_sum = sum(float(fr.e[:, i] @ s @ fr.e[:, i])
                            for i in range(sc.domain.dim))
            assert abs(frame_sum - trace_s_at(sc.f, p)) < 1e-10


# ---------------------------------------------------------------------------
# Shifted tensor
# ---------------------------------------------------------------------------

def test_shifted_tensor_identity_at_unit_shift_vanishes():
    sc = get("identity-s2")
    phi = point_rows(sc.f, [sc.domain.point([0.3, 0.3])]).shifted_jet(1.0)[0]
    assert np.abs(phi).max() < 1e-14


def test_shifted_tensor_constant_map_is_metric_multiple():
    sc = get("constant-s2")
    p = sc.domain.point([0.4, -0.6])
    d = point_rows(sc.f, [p])
    for c in (0.5, 2.0, 7.0):
        phi = d.shifted_jet(c)[0]
        g = d.g
        assert np.abs(phi - (2.0 * c / (1.0 + c)) * g).max() < 1e-12


def test_shifted_tensor_nonnegative_at_global_shift():
    sc = get("holo-w2")
    pts = [sc.domain.point(x) for x in sc.grid_points((12, 12))]
    lam0_sq = max(singular_values_at(sc.f, p).lambdas[-1] ** 2 for p in pts)
    d = point_rows(sc.f, pts)
    vals, _ = sym_eigen(d.shifted_jet(float(lam0_sq))[0], d.g)
    assert np.all(vals[:, 0] >= -1e-10)


def test_shifted_tensor_eigenvalue_formula():
    sc = get("holo-w3")
    p = sc.domain.point([0.6, -0.2])
    fr = adapted_frames_at(sc.f, p)
    c = 3.0
    d = point_rows(sc.f, [p])
    vals, _ = sym_eigen(d.shifted_jet(c)[0][0], d.g[0])
    pred = ((1.0 - fr.lambdas[::-1] ** 2) / (1.0 + fr.lambdas[::-1] ** 2)
            - (1.0 - c) / (1.0 + c))
    assert np.abs(vals - pred).max() < 1e-10


def test_shifted_tensor_rejects_nonpositive_shift():
    sc = get("identity-s2")
    with pytest.raises(InvalidParameterError):
        point_rows(sc.f, [sc.domain.point([0.0, 0.0])]).shifted_jet(-0.5)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_shifted_jet_value_is_the_shift_deficit_bit_for_bit(m, n):
    # the shifted tensor has one value formula, on general (non-diagonal)
    # metrics too, where the value of g_M and P combined as (1-nu) g_M -
    # (1+nu) P rounds differently on about half of the elements
    rng = np.random.default_rng(10 * m + n)
    f = quadratic_map(rng, polynomial_chart(rng, m, 0.05), polynomial_chart(rng, n, 0.05))
    blk = graph_block(f, rng.uniform(-0.5, 0.5, size=(50, m)))
    for c in (0.5, 2.0, 3.7):
        value = blk.shifted_jet(c)[0]
        assert value.tobytes() == shift_deficit(blk.s, blk.g, c).tobytes()


@pytest.mark.parametrize("c", [-1.0, -0.5, 0.0, float("nan")])
def test_shifted_jet_rejects_nonpositive_shift_before_dividing(c):
    sc = get("holo-w2")
    d = point_rows(sc.f, [sc.domain.point([0.3, -0.2])])
    with pytest.raises(InvalidParameterError, match="must be positive"):
        d.blk.shifted_jet(c)
    with pytest.raises(InvalidParameterError, match="must be positive"):
        elliptic_equation_residual(d, c)


# ---------------------------------------------------------------------------
# Induced metric jet
# ---------------------------------------------------------------------------

def test_induced_metric_constant_map_is_domain_metric():
    sc = get("constant-s2")
    p = sc.domain.point([0.7, 0.2])
    jet = induced_metric_jet(sc.f, p)
    gm = sc.domain.metric_jet(p.coords[None])
    assert np.abs(jet.g - gm.g[0]).max() == 0.0
    assert np.abs(jet.dg - gm.dg[0]).max() == 0.0
    assert np.abs(jet.d2g - gm.d2g[0]).max() == 0.0


def test_induced_metric_identity_doubles_domain_metric():
    sc = get("identity-s3")
    p = sc.domain.point([0.1, -0.5, 0.3])
    jet = induced_metric_jet(sc.f, p)
    gm = sc.domain.metric_jet(p.coords[None])
    assert np.abs(jet.g - 2.0 * gm.g[0]).max() < 1e-14
    assert np.abs(jet.dg - 2.0 * gm.dg[0]).max() < 1e-14
    assert np.abs(jet.d2g - 2.0 * gm.d2g[0]).max() < 1e-14


def test_induced_jet_satisfies_symmetries():
    sc = get("holo-w3")
    jet = induced_metric_jet(sc.f, ChartPoint([0.5, 0.8]))
    tol = 1e-12
    assert np.allclose(jet.g, jet.g.T, atol=tol)
    assert np.allclose(jet.dg, np.swapaxes(jet.dg, 1, 2), atol=tol)
    assert np.allclose(jet.d2g, np.swapaxes(jet.d2g, 2, 3), atol=tol)
    assert np.allclose(jet.d2g, np.swapaxes(jet.d2g, 0, 1), atol=tol)


def test_induced_metric_jet_fd_cross_check():
    # first and second derivatives of the induced metric against central
    # differences of the assembled field, with second-order convergence
    sc = get("holo-w2")
    x = np.array([0.4, -0.3])
    exact = induced_metric_jet(sc.f, ChartPoint(x))

    def fd_disc(h):
        dim = 2
        dg = np.zeros((dim, dim, dim))
        d2g = np.zeros((dim, dim, dim, dim))
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            dg[k] = (induced_metric_jet(sc.f, ChartPoint(x + e)).g
                     - induced_metric_jet(sc.f, ChartPoint(x - e)).g) / (2 * h)
            d2g[k] = (induced_metric_jet(sc.f, ChartPoint(x + e)).dg
                      - induced_metric_jet(sc.f, ChartPoint(x - e)).dg) / (2 * h)
        return max(np.abs(dg - exact.dg).max(), np.abs(d2g - exact.d2g).max())

    d1, d2 = fd_disc(1e-4), fd_disc(5e-5)
    assert d1 > 1e-12
    assert 3.5 <= d1 / d2 <= 4.5


def test_induced_ricci_fd_cross_check():
    sc = get("holo-w2")
    x = np.array([0.6, 0.1])
    ric_exact, _ = ricci_from_jet(induced_metric_jet(sc.f, ChartPoint(x)))

    def ric_fd(h):
        # rebuild the Ricci tensor from a jet whose derivatives are FD
        dim = 2
        g = induced_metric_jet(sc.f, ChartPoint(x)).g
        dg = np.zeros((dim, dim, dim))
        d2g = np.zeros((dim, dim, dim, dim))
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            dg[k] = (induced_metric_jet(sc.f, ChartPoint(x + e)).g
                     - induced_metric_jet(sc.f, ChartPoint(x - e)).g) / (2 * h)
            d2g[k] = (induced_metric_jet(sc.f, ChartPoint(x + e)).dg
                      - induced_metric_jet(sc.f, ChartPoint(x - e)).dg) / (2 * h)
        ric, _ = ricci_from_jet(MetricJet(g, dg, d2g))
        return np.abs(ric - ric_exact).max()

    d1, d2 = ric_fd(1e-4), ric_fd(5e-5)
    assert d1 > 1e-12
    assert 3.5 <= d1 / d2 <= 4.5


def test_induced_manifold_needs_third_order_jets():
    s2 = sphere_chart(2, 1.0)

    def jet_no_d3(x):
        b = len(x)
        return MapJet(x.copy(), np.repeat(np.eye(2)[None], b, axis=0),
                      np.zeros((b, 2, 2, 2)), None)

    f = SmoothMap(s2, s2, jet_no_d3, "id-no-d3")
    with pytest.raises(CapabilityError):
        induced_metric_jet(f, ChartPoint([0.1, 0.2]))
