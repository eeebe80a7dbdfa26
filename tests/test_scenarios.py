import numpy as np
import pytest

from graphgeo.errors import UnknownScenarioError
from graphgeo.extrinsic import graph_block
from graphgeo.graph_map import SmoothMap
from graphgeo.scenarios import get, jets_selftest, registry
from graphgeo.theorem_gate import DEFAULT_TOLERANCES


def test_registry_has_required_entries():
    reg = registry()
    assert len(reg) >= 8
    for name in ("constant-s2", "constant-s3", "identity-s2", "identity-s3",
                 "rotation-s2", "holo-w2", "holo-w3", "torus-linear",
                 "proj-s3-s1", "scaled-sphere-0.5"):
        assert name in reg


def test_lookup():
    sc = get("identity-s2")
    assert sc.expected.totally_geodesic is True
    sc = get("holo-w2")
    assert sc.expected.minimal is True
    assert sc.expected.totally_geodesic is False
    sc = get("scaled-sphere-0.5")
    assert sc.expected.minimal is None   # measured, not asserted


def test_registry_is_built_once_and_returned_as_a_new_dict():
    reg = registry()
    assert registry() is not reg and registry() == reg
    holo = get("holo-w2")
    assert get("holo-w2") is holo and reg["holo-w2"] is holo
    # changing the returned dict changes neither get nor the next registry()
    reg["holo-w2"] = get("identity-s2")
    del reg["identity-s3"]
    reg.clear()
    assert get("holo-w2") is holo and get("identity-s3").name == "identity-s3"
    assert len(registry()) == 12
    # the arrays every use of a scenario shares are read-only
    for sc in registry().values():
        for box in (sc.sample_box, sc.domain.chart_box, sc.target.chart_box):
            with pytest.raises(ValueError):
                box[0, 0] = 0.0


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenarioError):
        get("no-such-scenario")


def test_scenario_boxes_inside_chart_margins():
    for sc in registry().values():
        margin_box = sc.domain.sample_box()
        assert np.all(sc.sample_box[:, 0] >= margin_box[:, 0])
        assert np.all(sc.sample_box[:, 1] <= margin_box[:, 1])


def test_jets_selftest_all_scenarios():
    for name, sc in registry().items():
        checks = jets_selftest(sc, h=1e-4)
        bad = [c for c in checks if not c.ok]
        assert not bad, (name, [(c.label, c.disc_h, c.ratio) for c in bad])


def test_jets_selftest_constant_map_exact():
    checks = jets_selftest(get("constant-s2"), h=1e-4)
    for c in checks:
        if c.label.startswith("f:"):
            assert c.exact


def test_jets_selftest_torus_linear_higher_jets_exact():
    checks = jets_selftest(get("torus-linear"), h=1e-4)
    for c in checks:
        if c.label.startswith(("f:d2", "f:d3", "gM", "gN")):
            assert c.exact


def test_jets_selftest_differences_each_step_in_one_block():
    # the central differences of one step are one evaluator call on the
    # 2 dim points x +- h e_k of every point; exact jets are one block of
    # the points themselves
    sc = get("proj-s3-s1")
    blocks = {"map": [], "domain": [], "target": []}

    def recording(fn, key):
        def wrapped(x):
            blocks[key].append(len(x))
            return fn(x)
        return wrapped

    domain = sc.domain._replace(metric_jet=recording(sc.domain.metric_jet, "domain"))
    target = sc.target._replace(metric_jet=recording(sc.target.metric_jet, "target"))
    f = SmoothMap(domain, target, recording(sc.f.jet_fn, "map"), sc.f.name)
    points = [sc.domain.point([0.2, -0.1, 0.3]), sc.domain.point([-0.4, 0.5, 0.1])]
    checks = jets_selftest(sc._replace(f=f), h=1e-4, points=points)
    assert checks == jets_selftest(sc, h=1e-4, points=points)
    assert len(checks) == 14 and all(c.ok for c in checks)
    for key, dim in [("map", 3), ("domain", 3), ("target", 1)]:
        assert set(blocks[key]) == {2, 2 * 2 * dim}, key
        assert blocks[key].count(2 * 2 * dim) == 2, key


def test_expected_properties_reproduced():
    # every declared expectation is re-verified; measured-only entries are
    # exercised but not asserted
    rng = np.random.default_rng(40)
    for name, sc in registry().items():
        pts = sc.random_points(20, rng)
        ext = graph_block(sc.f, np.array([p.coords for p in pts])).ext
        totally_geodesic = (np.sqrt(np.max(ext.a_norm_sq))
                            < DEFAULT_TOLERANCES["classify_isometric"])
        # total geodesy implies minimality regardless of the measured H
        minimal = np.max(ext.h_norm) < DEFAULT_TOLERANCES["minimality"] or totally_geodesic
        exp = sc.expected
        if exp.minimal is not None:
            assert minimal == exp.minimal, name
        if exp.totally_geodesic is not None:
            assert totally_geodesic == exp.totally_geodesic, name


def test_holomorphic_mean_curvature_sweep():
    rng = np.random.default_rng(41)
    for name in ("holo-w2", "holo-w3", "conformal-shrink"):
        sc = get(name)
        pts = sc.random_points(100, rng)
        ext = graph_block(sc.f, np.array([p.coords for p in pts])).ext
        assert np.max(ext.h_norm) < 1e-6
