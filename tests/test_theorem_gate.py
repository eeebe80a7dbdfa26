import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgeo.scenarios import get, linear_map, registry
from graphgeo.chart_manifold import MetricJet, sphere_chart
from graphgeo.theorem_gate import (
    _plane_range,
    classify,
    curvature_pinching_check,
    evaluate_hypotheses,
    second_fundamental_bound_check,
    spawned_normals,
    sweep_geometry,
    trace_rank_chain_check,
)


def trace_condition_check(sweep):
    """Worst value of the trace condition, as the gate reports it."""
    return evaluate_hypotheses(sweep, 1.0).margins["trace"]


def kappa_estimate(sweep, margin):
    """The gate's strict bound ``kappa^2`` for the pullback metric."""
    hyp = evaluate_hypotheses(sweep, 1.0, kappa_margin=margin)
    assert hyp.kappa_ok      # strictly above every pullback value
    return hyp.kappa_sq


def sweep_of(name, shape=None, seed=0):
    sc = get(name)
    shape = shape or ((8, 8) if sc.domain.dim == 2 else (4, 4, 4))
    return sc, sweep_geometry(sc.f, sc.grid_points(shape), seed=seed)


# ---------------------------------------------------------------------------
# Pinching
# ---------------------------------------------------------------------------

def test_pinching_matched_unit_spheres():
    sc, sweep = sweep_of("identity-s2")
    pinch = curvature_pinching_check(sweep, 1.0)
    assert pinch.ok
    assert abs(pinch.domain_margin) < 1e-9
    assert abs(pinch.target_margin) < 1e-9


def test_pinching_larger_target_sphere_has_slack():
    # target of radius 2 has curvature 1/4, three quarters below the level
    sc = get("scaled-sphere-2.0")
    sweep = sweep_geometry(sc.f, sc.grid_points((8, 8)), seed=0)
    pinch = curvature_pinching_check(sweep, 1.0)
    assert abs(pinch.target_margin - 0.75) < 1e-8


def test_pinching_fails_for_flat_domain():
    sc, sweep = sweep_of("torus-linear")
    pinch = curvature_pinching_check(sweep, 1.0)
    assert not pinch.ok
    assert pinch.domain_margin < -0.9


def test_pinching_fails_for_low_curvature_domain():
    s2_big = sphere_chart(2, 2.0)
    f = linear_map(s2_big, s2_big, np.eye(2), name="id")
    pts = np.array([[0.1, 0.1], [0.5, -0.3], [-0.7, 0.2]])
    sweep = sweep_geometry(f, pts, seed=1)
    pinch = curvature_pinching_check(sweep, 1.0)
    assert not pinch.ok
    assert abs(pinch.domain_margin + 0.75) < 1e-8


def test_pinching_vacuous_for_circle_target():
    sc, sweep = sweep_of("proj-s3-s1")
    pinch = curvature_pinching_check(sweep, 1.0)
    assert pinch.target_margin is None
    assert pinch.ok


def test_pinching_domain_margin_monotone_in_sigma():
    # lowering the level can only widen the domain-side margin
    sc, sweep = sweep_of("identity-s2")
    margins = [curvature_pinching_check(sweep, s).domain_margin
               for s in (1.0, 0.75, 0.5, 0.25, 0.05)]
    assert all(b >= a - 1e-15 for a, b in zip(margins, margins[1:]))


# ---------------------------------------------------------------------------
# Trace, kappa, and the second-fundamental-form bound
# ---------------------------------------------------------------------------

def test_trace_margins():
    _, sweep = sweep_of("constant-s2")
    assert abs(trace_condition_check(sweep) - 2.0) < 1e-12
    _, sweep = sweep_of("identity-s2")
    assert abs(trace_condition_check(sweep)) < 1e-12
    sc = get("holo-w2")
    sweep = sweep_geometry(sc.f, sc.grid_points((21, 21)), seed=0)
    margin = trace_condition_check(sweep)
    assert margin < -1.0
    assert margin > -1.2 - 1e-9   # the minimum of the trace field is -6/5


def test_kappa_estimate_values():
    _, sweep = sweep_of("constant-s2")
    assert abs(kappa_estimate(sweep, 0.01) - 1.01) < 1e-12
    _, sweep = sweep_of("identity-s2")
    assert abs(kappa_estimate(sweep, 0.01) - 1.01) < 1e-12
    sc = get("holo-w2")
    sweep = sweep_geometry(sc.f, sc.grid_points((21, 21)), seed=0)
    kappa_sq = kappa_estimate(sweep, 0.01)
    assert kappa_sq >= 4.0    # the stretch field reaches 2 near |w| = 1


def test_condition4_margins():
    _, sweep = sweep_of("identity-s2")
    assert abs(second_fundamental_bound_check(sweep, 1.0, 1.01)) < 1e-10
    _, sweep = sweep_of("constant-s2")
    margin = second_fundamental_bound_check(sweep, 1.0, 1.01)
    assert margin > 0.0
    sc = get("holo-w2")
    sweep = sweep_geometry(sc.f, sc.grid_points((15, 15)), seed=0)
    kappa_sq = kappa_estimate(sweep, 0.01)
    assert second_fundamental_bound_check(sweep, 1.0, kappa_sq) < 0.0


# ---------------------------------------------------------------------------
# Trace chain
# ---------------------------------------------------------------------------

def test_trace_chain_projection_scenario():
    sc, sweep = sweep_of("proj-s3-s1")
    chain = trace_rank_chain_check(sc.f, sweep)
    assert chain.ok
    assert chain.dims_margin == 1           # m - 2n = 3 - 2
    assert chain.min_trace_margin > 0.0     # tr(s) > m - n - r everywhere
    assert chain.strict_positive
    # the chain bounds the trace below by m - 2n = 1 at every point
    assert np.all(sweep.trace_s > 1.0)


def test_trace_chain_constant_map():
    sc, sweep = sweep_of("constant-s2")
    chain = trace_rank_chain_check(sc.f, sweep)
    assert chain.ok
    assert abs(chain.min_trace_margin - 2.0) < 1e-12


def test_trace_chain_identity_map():
    sc, sweep = sweep_of("identity-s2")
    chain = trace_rank_chain_check(sc.f, sweep)
    # 0 > 2 - 2 - 2 = -2
    assert chain.ok
    assert abs(chain.min_trace_margin - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

EXPECTED_VERDICTS = {
    "constant-s2": "constant",
    "constant-s3": "constant",
    "identity-s2": "totally-geodesic-isometric-immersion",
    "identity-s3": "totally-geodesic-isometric-immersion",
    "rotation-s2": "totally-geodesic-isometric-immersion",
    "holo-w2": "hypothesis-violated",
    "holo-w3": "hypothesis-violated",
    "conformal-shrink": "hypothesis-violated",
    "torus-linear": "hypothesis-violated",
    "proj-s3-s1": "hypothesis-violated",
    "scaled-sphere-0.5": "hypothesis-violated",
    "scaled-sphere-2.0": "hypothesis-violated",
}


def test_classification_across_registry():
    for name, sc in registry().items():
        shape = (8, 8) if sc.domain.dim == 2 else (4, 4, 4)
        grid = sc.grid_points(shape)
        cls = classify(sc.f, grid, sc.sigma, seed=3)
        assert cls.verdict == EXPECTED_VERDICTS[name], (name, cls)
        assert cls.scope == "box-local"


def test_identity_verdict_carries_sec_witnesses():
    sc = get("identity-s2")
    cls = classify(sc.f, sc.grid_points((8, 8)), 1.0, seed=4)
    assert cls.verdict == "totally-geodesic-isometric-immersion"
    assert cls.evidence["sec_m_witness_deviation"] < 1e-6
    assert cls.evidence["sec_n_witness_deviation"] < 1e-6
    assert cls.evidence["induced_metric_factor_residual"] < 1e-8


def test_hypothesis_report_failures_named():
    sc = get("proj-s3-s1")
    sweep = sweep_geometry(sc.f, sc.grid_points((4, 4, 4)), seed=5)
    hyp = evaluate_hypotheses(sweep, sc.sigma)
    assert hyp.failing() == ["minimal"]
    assert hyp.margins["max_h_norm"] > 1e-3

    sc = get("torus-linear")
    sweep = sweep_geometry(sc.f, sc.grid_points((6, 6)), seed=5)
    hyp = evaluate_hypotheses(sweep, sc.sigma)
    assert "pinching" in hyp.failing()


@pytest.mark.parametrize("name", ["constant-s2", "identity-s2"])
def test_classification_stable_under_grid_refinement(name):
    sc = get(name)
    v10 = classify(sc.f, sc.grid_points((10, 10)), sc.sigma, seed=6).verdict
    v40 = classify(sc.f, sc.grid_points((40, 40)), sc.sigma, seed=6).verdict
    assert v10 == v40 == EXPECTED_VERDICTS[name]


def test_conformal_shrink_gate_passes_on_shrinking_subbox():
    # restricted to a strictly length-decreasing sub-box the local gate
    # holds, and the verdict is honestly indeterminate (neither branch of
    # the dichotomy matches the local data)
    sc = get("conformal-shrink")
    box = np.array([[-0.6, 0.6], [-0.6, 0.6]])
    grid = sc.grid_points((8, 8), box)
    cls = classify(sc.f, grid, sc.sigma, seed=7)
    assert cls.verdict == "indeterminate"


# ---------------------------------------------------------------------------
# Sectional columns: unspanned planes are skipped, NaN is not
# ---------------------------------------------------------------------------

def test_plane_range_skips_unspanned_planes_and_keeps_nan():
    sec = np.array([[1.0, np.nan, 3.0], [np.nan, 2.0, 5.0], [4.0, 4.0, 4.0]])
    spans = np.array([[True, False, True], [True, True, False], [False] * 3])
    lo, hi, has = _plane_range(sec, spans)
    assert np.array_equal(lo, [1.0, np.nan, np.nan], equal_nan=True)
    assert np.array_equal(hi, [3.0, np.nan, np.nan], equal_nan=True)
    assert has.tolist() == [True, True, False]


def test_nan_curvature_reaches_the_sectional_columns():
    s2 = sphere_chart(2, 1.0)

    def jet(x):
        j = s2.metric_jet(x)
        nan_rows = (x[:, 0] > 0.0)[:, None, None, None, None]
        return MetricJet(j.g, j.dg, np.where(nan_rows, np.nan, j.d2g))

    chart = dataclasses.replace(s2, metric_jet=jet)
    f = linear_map(chart, chart, np.eye(2), name="id")
    sweep = sweep_geometry(f, np.array([[-0.5, 0.1], [0.5, 0.1]]), seed=0)
    assert sweep.has_sec_n.all()
    for column in (sweep.sec_m_min, sweep.sec_m_max, sweep.sec_n_min, sweep.sec_n_max):
        assert np.isfinite(column[0]) and np.isnan(column[1])
    pinch = curvature_pinching_check(sweep, 1.0)
    assert np.isnan(pinch.domain_margin) and not pinch.ok


# ---------------------------------------------------------------------------
# Plane sample streams
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 200),
       count=st.sampled_from([0, 1, 127, 128, 129]),
       planes=st.sampled_from([1, 4]), m=st.sampled_from([2, 3]))
@example(seed=0, count=129, planes=4, m=2)
@example(seed=2 ** 32 - 1, count=128, planes=4, m=3)    # one entropy word
@example(seed=2 ** 32, count=127, planes=4, m=2)        # two words
@example(seed=2 ** 128, count=129, planes=1, m=3)       # five words: past the pool
@example(seed=2 ** 200, count=129, planes=4, m=3)       # seven words
def test_spawned_normals_equal_seed_sequence_children(seed, count, planes, m):
    children = np.random.SeedSequence(seed).spawn(count)
    want = np.array([np.random.default_rng(child).normal(size=(planes, 2, m))
                     for child in children]).reshape(count, planes, 2, m)
    got = spawned_normals(seed, count, (planes, 2, m))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_spawned_normals_reject_a_negative_seed():
    with pytest.raises(ValueError):
        spawned_normals(-1, 3, (4, 2, 2))
