import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgeo import draws
from graphgeo.scenarios import get, linear_map, registry
from graphgeo.chart_manifold import MetricJet, sphere_chart
from graphgeo.draws import spawned_normals
from graphgeo.extrinsic import graph_block
from graphgeo.theorem_gate import (
    _plane_range,
    classify,
    evaluate_hypotheses,
    row_margins,
    sweep_geometry,
    trace_rank_chain_check,
)


def classify_at(sc, grid, sigma, seed):
    """The verdict on ``grid``: its sweep at ``seed``, then the hypotheses at
    ``sigma``."""
    sweep = sweep_geometry(sc.f, grid, seed=seed)
    return classify(sweep, evaluate_hypotheses(sweep, sigma))


def trace_condition_check(sweep):
    """Worst value of the trace condition, as the gate reports it."""
    return evaluate_hypotheses(sweep, 1.0).margins["trace"]


def kappa_estimate(sweep, margin):
    """The gate's strict bound ``kappa^2`` for the pullback metric."""
    hyp = evaluate_hypotheses(sweep, 1.0, kappa_margin=margin)
    assert hyp.kappa_ok      # strictly above every pullback value
    return hyp.kappa_sq


def pinching(sweep, sigma):
    """The gate's pinching verdict and its domain and target margins."""
    hyp = evaluate_hypotheses(sweep, sigma)
    return (hyp.pinching_ok, hyp.margins["pinching_domain"],
            hyp.margins["pinching_target"])


def condition4_margin(sweep, sigma, kappa_sq):
    """Worst margin of the second-fundamental-form bound over the sweep."""
    return float(np.min(row_margins(sweep, sigma, kappa_sq, sweep.sec_m_min,
                                    sweep.sec_n_max)["condition4"]))


def sweep_of(name, shape=None, seed=0):
    sc = get(name)
    shape = shape or ((8, 8) if sc.domain.dim == 2 else (4, 4, 4))
    return sc, sweep_geometry(sc.f, sc.grid_points(shape), seed=seed)


# ---------------------------------------------------------------------------
# Pinching
# ---------------------------------------------------------------------------

def test_pinching_matched_unit_spheres():
    sc, sweep = sweep_of("identity-s2")
    ok, domain, target = pinching(sweep, 1.0)
    assert ok
    assert abs(domain) < 1e-9
    assert abs(target) < 1e-9


def test_pinching_larger_target_sphere_has_slack():
    # target of radius 2 has curvature 1/4, three quarters below the level
    sc = get("scaled-sphere-2.0")
    sweep = sweep_geometry(sc.f, sc.grid_points((8, 8)), seed=0)
    _, _, target = pinching(sweep, 1.0)
    assert abs(target - 0.75) < 1e-8


def test_pinching_fails_for_flat_domain():
    sc, sweep = sweep_of("torus-linear")
    ok, domain, _ = pinching(sweep, 1.0)
    assert not ok
    assert domain < -0.9


def test_pinching_fails_for_low_curvature_domain():
    s2_big = sphere_chart(2, 2.0)
    f = linear_map(s2_big, s2_big, np.eye(2), name="id")
    pts = np.array([[0.1, 0.1], [0.5, -0.3], [-0.7, 0.2]])
    sweep = sweep_geometry(f, pts, seed=1)
    ok, domain, _ = pinching(sweep, 1.0)
    assert not ok
    assert abs(domain + 0.75) < 1e-8


def test_pinching_vacuous_for_circle_target():
    sc, sweep = sweep_of("proj-s3-s1")
    ok, _, target = pinching(sweep, 1.0)
    assert target is None
    assert ok


def test_pinching_domain_margin_monotone_in_sigma():
    # lowering the level can only widen the domain-side margin
    sc, sweep = sweep_of("identity-s2")
    margins = [pinching(sweep, s)[1] for s in (1.0, 0.75, 0.5, 0.25, 0.05)]
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
    assert abs(condition4_margin(sweep, 1.0, 1.01)) < 1e-10
    _, sweep = sweep_of("constant-s2")
    margin = condition4_margin(sweep, 1.0, 1.01)
    assert margin > 0.0
    sc = get("holo-w2")
    sweep = sweep_geometry(sc.f, sc.grid_points((15, 15)), seed=0)
    kappa_sq = kappa_estimate(sweep, 0.01)
    assert condition4_margin(sweep, 1.0, kappa_sq) < 0.0


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
        cls = classify_at(sc, grid, sc.sigma, seed=3)
        assert cls.verdict == EXPECTED_VERDICTS[name], (name, cls)
        assert cls.scope == "box-local"


def test_identity_verdict_carries_sec_witnesses():
    sc = get("identity-s2")
    cls = classify_at(sc, sc.grid_points((8, 8)), 1.0, seed=4)
    assert cls.verdict == "totally-geodesic-isometric-immersion"
    assert cls.evidence["sec_m_witness_deviation"] < 1e-6
    assert cls.evidence["sec_n_witness_deviation"] < 1e-6
    assert cls.evidence["induced_metric_factor_residual"] < 1e-8


def test_induced_metric_recheck_reads_every_sweep_row():
    # the re-check once evaluated only every tenth grid row (grid[::10] here);
    # a residual on any other row must fail the geodesic conclusion
    sc = get("identity-s2")
    sweep = sweep_geometry(sc.f, sc.grid_points((10, 10)), seed=0)
    hyp = evaluate_hypotheses(sweep, sc.sigma)
    assert classify(sweep, hyp).verdict == "totally-geodesic-isometric-immersion"
    residual = np.zeros(len(sweep))
    residual[57] = 1e-6
    cls = classify(sweep._replace(metric_factor_res=residual), hyp)
    assert cls.verdict == "indeterminate"
    assert cls.evidence["induced_metric_factor_residual"] == 1e-6
    assert cls.evidence["conclusion_check_failed"]


def test_metric_factor_column_is_each_rows_induced_metric_residual():
    sc = get("holo-w2")
    grid = sc.grid_points((7, 5))
    blk = graph_block(sc.f, grid)
    want = np.max(np.abs(blk.g - 2.0 * blk.gm), axis=(1, 2))
    got = sweep_geometry(sc.f, grid, seed=0).metric_factor_res
    assert np.array_equal(got, want)
    assert got.max() > 0.1


def test_conclusion_witnesses_sit_at_the_hypotheses_sigma():
    # the identity of a sphere of radius 2 pinches at sigma = 1/4 only; the
    # curvature witnesses are measured against the level the hypotheses hold
    s2_big = sphere_chart(2, 2.0)
    f = linear_map(s2_big, s2_big, np.eye(2), name="id")
    axis = np.linspace(-1.5, 1.5, 6)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    sweep = sweep_geometry(f, grid, seed=2)
    cls = classify(sweep, evaluate_hypotheses(sweep, 0.25))
    assert cls.verdict == "totally-geodesic-isometric-immersion"
    assert cls.evidence["sec_m_witness_deviation"] < 1e-10
    assert cls.evidence["sec_n_witness_deviation"] < 1e-10
    assert classify(sweep, evaluate_hypotheses(sweep, 1.0)).verdict == \
        "hypothesis-violated"


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
    v10 = classify_at(sc, sc.grid_points((10, 10)), sc.sigma, seed=6).verdict
    v40 = classify_at(sc, sc.grid_points((40, 40)), sc.sigma, seed=6).verdict
    assert v10 == v40 == EXPECTED_VERDICTS[name]


def test_conformal_shrink_gate_passes_on_shrinking_subbox():
    # restricted to a strictly length-decreasing sub-box the local gate
    # holds, and the verdict is honestly indeterminate (neither branch of
    # the dichotomy matches the local data)
    sc = get("conformal-shrink")
    box = np.array([[-0.6, 0.6], [-0.6, 0.6]])
    grid = sc._replace(sample_box=box).grid_points((8, 8))
    cls = classify_at(sc, grid, sc.sigma, seed=7)
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

    chart = s2._replace(metric_jet=jet)
    f = linear_map(chart, chart, np.eye(2), name="id")
    sweep = sweep_geometry(f, np.array([[-0.5, 0.1], [0.5, 0.1]]), seed=0)
    assert sweep.has_sec_n.all()
    for column in (sweep.sec_m_min, sweep.sec_m_max, sweep.sec_n_min, sweep.sec_n_max):
        assert np.isfinite(column[0]) and np.isnan(column[1])
    ok, domain, _ = pinching(sweep, 1.0)
    assert np.isnan(domain) and not ok


# ---------------------------------------------------------------------------
# Plane sample streams
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 200),
       start=st.sampled_from([0, 1, 255]),
       count=st.sampled_from([0, 1, 127, 128, 129]),
       planes=st.sampled_from([1, 4]), m=st.sampled_from([2, 3]))
@example(seed=0, start=0, count=129, planes=4, m=2)
@example(seed=2 ** 32 - 1, start=0, count=128, planes=4, m=3)    # one entropy word
@example(seed=2 ** 32, start=0, count=127, planes=4, m=2)        # two words
@example(seed=2 ** 128, start=0, count=129, planes=1, m=3)       # five words: past the pool
@example(seed=2 ** 200, start=0, count=129, planes=4, m=3)       # seven words
# keys past 2**16 (a spawn of that many children takes ~0.6 s)
@example(seed=5, start=2 ** 16 + 3, count=129, planes=4, m=2)
@example(seed=2 ** 200, start=2 ** 16 + 3, count=2, planes=4, m=3)
def test_spawned_normals_equal_seed_sequence_children(seed, start, count, planes, m):
    # rows start..start+count are those children of a spawn of start + count
    children = np.random.SeedSequence(seed).spawn(start + count)[start:]
    want = np.array([np.random.default_rng(child).normal(size=(planes, 2, m))
                     for child in children]).reshape(count, planes, 2, m)
    got = spawned_normals(seed, start + count, (planes, 2, m))(slice(start, start + count))
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # drawn in place as the children's standard normals, byte for byte
    standard = np.array([np.random.default_rng(child).standard_normal(size=(planes, 2, m))
                         for child in children]).reshape(count, planes, 2, m)
    assert got.tobytes() == standard.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spawned_normals_equal_seed_sequence_children_past_the_ziggurat_edges(seed, monkeypatch):
    # 2**15 rows of 24 draws: numpy's ziggurat meets its layer-0 tail 207,
    # 204 and 223 times at seeds 0, 1 and 2 (10, 19 and 9 tail retries) and
    # tests 11 558, 11 699 and 11 676 wedges, of which 5 343, 5 302 and
    # 5 424 are rejected
    count, shape = 2 ** 15, (4, 2, 3)
    log1p_calls = []
    log1p = math.log1p
    monkeypatch.setattr(math, "log1p", lambda v: log1p_calls.append(v) or log1p(v))
    got = spawned_normals(seed, count, shape)(slice(0, count))
    monkeypatch.undo()
    want = np.array([np.random.default_rng(child).standard_normal(size=shape)
                     for child in np.random.SeedSequence(seed).spawn(count)])
    assert got.tobytes() == want.tobytes()
    assert len(log1p_calls) >= 2 * 200     # two per tail attempt


def test_spawned_normals_draw_again_the_rows_that_run_out_of_raws(monkeypatch):
    # without spare raws every row that rejects a candidate runs out; it
    # continues with its next raws, so no row's raws are computed twice
    pcg_raws, calls = draws._pcg_raws, []

    def recording(limbs, start, work):
        calls.append((start, limbs.shape[1], len(work[0])))
        return pcg_raws(limbs, start, work)

    monkeypatch.setattr(draws, "SPARE", 0)
    monkeypatch.setattr(draws, "_pcg_raws", recording)
    count, shape = 2 ** 12, (4, 2, 3)
    got = spawned_normals(4, count, shape)(slice(0, count))
    monkeypatch.undo()
    size = math.prod(shape)
    assert sum(rows for start, rows, _ in calls if start == 0) == count
    more = [(start, rows, cols) for start, rows, cols in calls if start]
    assert more and min(start for start, _, _ in more) == size
    assert all(start % size == 0 and cols == size and 0 < rows < draws.PIECE_ROWS
               for start, rows, cols in more)
    want = np.array([np.random.default_rng(child).standard_normal(size=shape)
                     for child in np.random.SeedSequence(4).spawn(count)])
    assert got.tobytes() == want.tobytes()


def test_spawned_normals_decide_every_wedge_by_libm_alike(monkeypatch):
    # with the re-check window widened to every wedge, libm's exp decides
    # each one, as in numpy's C code; the bytes stay those of numpy
    exp, calls = math.exp, []
    monkeypatch.setattr(draws, "EXP_RECHECK", np.inf)
    monkeypatch.setattr(math, "exp", lambda v: calls.append(v) or exp(v))
    count, shape = 2 ** 12, (4, 2, 3)
    got = spawned_normals(5, count, shape)(slice(0, count))
    monkeypatch.undo()
    assert len(calls) >= 1000      # about one draw in 70 tests a wedge
    want = np.array([np.random.default_rng(child).standard_normal(size=shape)
                     for child in np.random.SeedSequence(5).spawn(count)])
    assert got.tobytes() == want.tobytes()


def test_spawned_normals_reject_a_negative_seed():
    with pytest.raises(ValueError):
        spawned_normals(-1, 3, (4, 2, 2))
