import dataclasses

import numpy as np
import pytest

from graphgeo.chart_manifold import ricci_from_jet
from graphgeo.errors import PreconditionError
from graphgeo.graph_map import MapJet, SmoothMap
from graphgeo.identities import (
    decomposition_sides,
    elliptic_equation_residual,
    extremum_derivative_probe,
    jacobian_consistency_2d,
    log_jacobian_residual_2d,
    max_point_term_values,
    minimality_relations_residual_2d,
    normal_estimate_check,
    null_eigenvector_probe,
    point_rows,
    reaction_term_apply,
    run_identity_suite,
)
from graphgeo.scenarios import get, registry


def row(f, p):
    """The identity checks' view of one point: a block of one."""
    return point_rows(f, [p])[0]


# ---------------------------------------------------------------------------
# Curvature-sum decompositions
# ---------------------------------------------------------------------------

def test_constant_map_closed_form_anchor():
    # both decomposition forms evaluate to -2 c (m - 1) for a constant map
    # on the unit sphere, independent of the pinching level
    sc = get("constant-s2")
    d = row(sc.f, sc.domain.point([0.4, -0.1]))
    for sigma in (1.0, 0.3, -1.5):
        lhs, rhs_a, rhs_b = decomposition_sides(d, 2.0, sigma, 0)
        assert abs(lhs + 4.0) < 1e-8
        assert abs(rhs_a + 4.0) < 1e-8
        assert abs(rhs_b + 4.0) < 1e-8


def test_identity_map_decomposition_vanishes():
    sc = get("identity-s2")
    d = row(sc.f, sc.domain.point([0.2, 0.5]))
    for l in range(2):
        lhs, rhs_a, rhs_b = decomposition_sides(d, 1.0, 1.0, l)
        assert abs(lhs) < 1e-12
        assert abs(rhs_a) < 1e-12
        assert abs(rhs_b) < 1e-12


def test_decomposition_residuals_random_sweep():
    # the identities are algebraic in (c, sigma); negative sigma included
    rng = np.random.default_rng(30)
    names = sorted(registry())
    worst_a = worst_b = worst_gap = 0.0
    for _ in range(100):
        sc = get(names[int(rng.integers(0, len(names)))])
        d = row(sc.f, sc.random_points(1, rng)[0])
        c = float(rng.uniform(0.05, 10.0))
        sigma = float(rng.uniform(-2.0, 2.0))
        l = int(rng.integers(0, sc.domain.dim))
        lhs, rhs_a, rhs_b = decomposition_sides(d, c, sigma, l)
        worst_a = max(worst_a, abs(lhs - rhs_a))
        worst_b = max(worst_b, abs(lhs - rhs_b))
        worst_gap = max(worst_gap, abs(rhs_a - rhs_b))
    assert worst_a < 1e-6
    assert worst_b < 1e-6
    assert worst_gap < 1e-8


# ---------------------------------------------------------------------------
# Normal estimate
# ---------------------------------------------------------------------------

def test_normal_estimate_identity_is_equality():
    # stretch one, shift one: both sides vanish on every normal direction
    sc = get("identity-s2")
    p = sc.domain.point([0.7, 0.0])
    slack = normal_estimate_check(row(sc.f, p), 1.0, rng=np.random.default_rng(0))
    assert abs(slack) < 1e-12


def test_normal_estimate_constant_map_at_zero_shift():
    sc = get("constant-s2")
    p = sc.domain.point([0.1, 0.9])
    slack = normal_estimate_check(row(sc.f, p), 0.0, rng=np.random.default_rng(0))
    assert abs(slack) < 1e-12


def test_normal_estimate_sweep_w2():
    sc = get("holo-w2")
    rng = np.random.default_rng(31)
    for d in point_rows(sc.f, sc.random_points(50, rng)):
        lam2 = float(d.frames.lambdas[-1] ** 2)
        slack = normal_estimate_check(d, lam2, rng=rng)
        assert slack > -1e-10


def test_normal_estimate_precondition():
    sc = get("holo-w2")
    p = sc.domain.point([1.0, 0.0])   # stretch 2 here
    with pytest.raises(PreconditionError):
        normal_estimate_check(row(sc.f, p), 1.0)


# ---------------------------------------------------------------------------
# Reaction term
# ---------------------------------------------------------------------------

def test_reaction_term_zero_tensor():
    sc = get("torus-linear")
    p = sc.domain.point([0.5, -0.5])
    val = reaction_term_apply(row(sc.f, p), 2.0, np.zeros((2, 2)),
                              np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert abs(val) < 1e-14


def test_reaction_term_constant_map_oracle():
    # independent oracle from the definition: for a constant map, the
    # second-fundamental-form sum drops and the pullback curvature vanishes,
    # leaving -2 theta(Ric v, v) + (4c/(1+c)) Ric_M(v, v) for theta = g
    sc = get("constant-s2")
    p = sc.domain.point([0.3, 0.2])
    d = row(sc.f, p)
    ric_m = ricci_from_jet(sc.domain.metric_jet(p.coords[None]))[0][0]
    e1 = d.frames.e[:, 0]
    theta = d.g.copy()
    for c in (0.0, 1.0, 2.0, 5.0):
        oracle = (-2.0 * float(e1 @ ric_m @ e1)
                  + 4.0 * c / (1.0 + c) * float(e1 @ ric_m @ e1))
        val = reaction_term_apply(d, c, theta, e1, e1)
        assert abs(val - oracle) < 1e-12


# ---------------------------------------------------------------------------
# Elliptic equation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,c", [
    ("identity-s2", 2.0), ("identity-s3", 0.7), ("constant-s2", 3.0),
    ("constant-s3", 1.0), ("rotation-s2", 1.5), ("torus-linear", 2.0),
    ("scaled-sphere-0.5", 2.0), ("scaled-sphere-2.0", 0.5),
])
def test_elliptic_equation_parallel_scenarios(name, c):
    sc = get(name)
    p = sc.domain.point(np.array([0.3, -0.2, 0.1][: sc.domain.dim]))
    assert elliptic_equation_residual(row(sc.f, p), c) < 1e-8


@pytest.mark.parametrize("name", ["holo-w2", "holo-w3", "conformal-shrink"])
def test_elliptic_equation_fd_path(name):
    sc = get(name)
    for coords in ([0.6, 0.3], [-0.4, 0.8]):
        d = row(sc.f, sc.domain.point(coords))
        r_h = elliptic_equation_residual(d, 2.0, h=1e-3)
        r_half = elliptic_equation_residual(d, 2.0, h=5e-4)
        assert r_h < 1e-4
        assert 3.5 <= r_h / r_half <= 4.5


def test_elliptic_equation_rejects_nonminimal():
    sc = get("proj-s3-s1")
    with pytest.raises(PreconditionError):
        elliptic_equation_residual(row(sc.f, sc.domain.point([0.3, 0.2, -0.6])), 2.0)


# ---------------------------------------------------------------------------
# Two-dimensional logarithmic Jacobian identity
# ---------------------------------------------------------------------------

def test_log_jacobian_identity_scenario_exact():
    # the Jacobian field is the constant 1/2: both sides vanish
    sc = get("identity-s2")
    for coords in ([0.25, -0.45], [0.0, 0.6]):
        assert log_jacobian_residual_2d(row(sc.f, sc.domain.point(coords))) < 1e-10


def test_log_jacobian_constant_map_trivial():
    sc = get("constant-s2")
    assert log_jacobian_residual_2d(row(sc.f, sc.domain.point([0.5, 0.1]))) < 1e-10


def test_log_jacobian_w2_sweep():
    sc = get("holo-w2")
    rng = np.random.default_rng(32)
    for d in point_rows(sc.f, sc.random_points(50, rng)):
        assert log_jacobian_residual_2d(d, h=1e-3) < 1e-4
        assert minimality_relations_residual_2d(d) < 1e-6
        assert jacobian_consistency_2d(d) < 1e-12


def test_log_jacobian_w2_convergence():
    sc = get("holo-w2")
    d = row(sc.f, sc.domain.point([0.7, -0.2]))
    r_h = log_jacobian_residual_2d(d, h=1e-3)
    r_half = log_jacobian_residual_2d(d, h=5e-4)
    assert 3.5 <= r_h / r_half <= 4.5


def test_log_jacobian_rejects_wrong_dimensions():
    sc = get("proj-s3-s1")
    with pytest.raises(PreconditionError):
        log_jacobian_residual_2d(row(sc.f, sc.domain.point([0.1, 0.1, 0.1])))


# ---------------------------------------------------------------------------
# Null-eigenvector probe
# ---------------------------------------------------------------------------

def test_null_probe_identity_branch_at_least_one():
    sc = get("identity-s2")
    rng = np.random.default_rng(33)
    for d in point_rows(sc.f, sc.random_points(5, rng)):
        res = null_eigenvector_probe(d, sigma=1.0, lambda0_sq=1.0,
                                     kappa_sq=1.01, rng=rng)
        assert res.status == "pass"
        assert res.min_value > -1e-10
        assert res.max_ric_term < 1e-12


def test_null_probe_constant_branch_below_one():
    sc = get("constant-s3")
    rng = np.random.default_rng(34)
    for d in point_rows(sc.f, sc.random_points(5, rng)):
        res = null_eigenvector_probe(d, sigma=1.0, lambda0_sq=0.0, rng=rng)
        assert res.status == "pass"
        assert res.min_value > -1e-10


def test_null_probe_strictly_length_decreasing_branch():
    # the shrinking holomorphic map restricted to a sub-box where every
    # stretch factor stays below one
    sc = get("conformal-shrink")
    box = np.array([[-0.6, 0.6], [-0.6, 0.6]])
    rng = np.random.default_rng(35)
    rows = point_rows(sc.f, sc.random_points(8, rng, box=box))
    lam0_sq = max(float(d.frames.lambdas[-1] ** 2) for d in rows)
    assert lam0_sq < 1.0
    for d in rows:
        res = null_eigenvector_probe(d, sigma=1.0, lambda0_sq=lam0_sq, rng=rng)
        assert res.status == "pass"
        assert res.min_value > -1e-10


def test_null_probe_skips_on_violated_hypotheses():
    rng = np.random.default_rng(36)
    sc = get("holo-w2")
    res = null_eigenvector_probe(row(sc.f, sc.domain.point([1.0, 0.2])),
                                 sigma=1.0, lambda0_sq=4.7, kappa_sq=5.0, rng=rng)
    assert res.status == "skipped"
    assert "trace" in res.reason

    sc = get("torus-linear")
    res = null_eigenvector_probe(row(sc.f, sc.domain.point([0.3, 0.3])),
                                 sigma=1.0, lambda0_sq=6.9, kappa_sq=7.5, rng=rng)
    assert res.status == "skipped"
    assert "curvature" in res.reason


# ---------------------------------------------------------------------------
# Extremum probe
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["identity-s2", "constant-s2", "torus-linear",
                                  "holo-w2", "holo-w3"])
def test_extremum_probe_passes_on_minimal_scenarios(name):
    sc = get(name)
    shape = (9, 9) if sc.domain.dim == 2 else (5, 5, 5)
    res = extremum_derivative_probe(sc.f, sc.grid_points(shape), sc.sample_box)
    assert res.status == "pass"
    assert res.grad_norm < res.grad_tol
    assert res.lap_value < res.lap_tol


def test_extremum_probe_boundary_is_inconclusive():
    # on a box away from the branch point the top eigenvalue is monotone,
    # so its maximum sits on the sampling boundary
    sc = get("conformal-shrink")
    box = np.array([[0.3, 1.0], [0.3, 1.0]])
    grid = sc.grid_points((6, 6), box)
    res = extremum_derivative_probe(sc.f, grid, box)
    assert res.status == "inconclusive"
    assert "boundary" in res.reason


def test_extremum_probe_fails_on_nan_mean_curvature():
    # a NaN |H| is not "non-minimal": the probe fails instead of refusing
    sc = get("holo-w2")

    def jet(x):
        j = sc.f.jet_fn(x)
        return MapJet(j.value, j.d1, np.full_like(j.d2, np.nan), j.d3)

    f = SmoothMap(sc.domain, sc.target, jet, "nan-d2")
    res = extremum_derivative_probe(f, sc.grid_points((3, 3)), sc.sample_box)
    assert res.status == "fail"
    assert np.isnan(res.grad_norm) and np.isnan(res.lap_value)


def test_extremum_probe_rejects_nonminimal():
    sc = get("proj-s3-s1")
    with pytest.raises(PreconditionError):
        extremum_derivative_probe(sc.f, sc.grid_points((3, 3, 3)), sc.sample_box)


# ---------------------------------------------------------------------------
# Final-chain sign structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["constant-s2", "constant-s3", "identity-s2",
                                  "identity-s3", "rotation-s2"])
def test_term_signs_at_probed_maximum(name):
    # on scenarios meeting the full gate, each grouped term is non-positive
    # at the point where the top singular value attains its grid maximum
    sc = get(name)
    pts = [sc.domain.point(x) for x in sc.grid_points((5,) * sc.domain.dim)]
    datas = point_rows(sc.f, pts)
    lam0_sq = max(float(d.frames.lambdas[-1] ** 2) for d in datas)
    best = max(range(len(pts)),
               key=lambda i: float(datas[i].frames.lambdas[-1]))
    terms = max_point_term_values(datas[best], sigma=sc.sigma, lambda0_sq=lam0_sq)
    assert terms.max() <= 1e-8


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def test_nan_hessian_fails_the_normal_estimate():
    # the normal estimate runs over A(e_i, e_j), built from the map Hessian:
    # a NaN there must reach the residual, not vanish in a min/max
    sc = get("holo-w2")

    def jet(x):
        j = sc.f.jet_fn(x)
        return MapJet(j.value, j.d1, np.full_like(j.d2, np.nan), j.d3)

    broken = dataclasses.replace(sc, f=SmoothMap(sc.domain, sc.target, jet, "nan-d2"))
    reports = {r.name: r for r in run_identity_suite(broken, seed=0)}
    normal = reports["normal-estimate"]
    assert np.isnan(normal.max_residual)
    assert not normal.passed
    assert normal.line().startswith("[FAIL] normal-estimate")
    # |H| is NaN too, so minimality is undecided: the checks that need a
    # minimal map fail with a NaN residual instead of being skipped
    for name in ("elliptic-equation", "log-jacobian-2d", "minimality-relations-2d",
                 "jacobian-consistency-2d", "extremum-probe"):
        assert not reports[name].skipped, name
        assert np.isnan(reports[name].max_residual), name
        assert not reports[name].passed, name
