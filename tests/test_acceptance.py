"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) and asserts at
the stated tolerance.  Seeds are fixed; the full module is sized to run in
well under a minute at the default grids.
"""

import json

import numpy as np

from graphgeo.chart_manifold import (
    ChartPoint,
    constant_metric_chart,
    powers,
    sectional_curvature,
    sphere_chart,
    sym_eigen,
)
from graphgeo.cli import main as cli_main
from graphgeo.graph_map import frame_formula_residual
from graphgeo.identities import (
    decomposition_sides,
    elliptic_equation_residual,
    log_jacobian_residual_2d,
    minimality_relations_residual_2d,
    normal_estimate_check,
    null_eigenvector_probe,
    point_rows,
)
from graphgeo.scenarios import get, registry
from graphgeo.theorem_gate import (
    DEFAULT_TOLERANCES,
    classify,
    evaluate_hypotheses,
    sweep_geometry,
    trace_rank_chain_check,
)

SEED = 20260810


def announce(capsys, number, passed, detail):
    with capsys.disabled():
        flag = "PASS" if passed else "FAIL"
        print(f"[ACCEPTANCE {number:02d}] {flag}  {detail}")
    assert passed, detail


def test_criterion_01_curvature_ground_truth(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for dim in (2, 3):
        for radius in (1.0, 2.0):
            man = sphere_chart(dim, radius)
            for _ in range(100):
                p = man.point(rng.uniform(-2.0, 2.0, dim))
                u, v = rng.normal(size=dim), rng.normal(size=dim)
                sec = sectional_curvature(man, p, u, v)
                worst = max(worst, abs(sec - 1.0 / radius ** 2))
    torus = constant_metric_chart(2)
    worst_flat = 0.0
    for _ in range(100):
        p = torus.point(rng.uniform(-3.0, 3.0, 2))
        u, v = rng.normal(size=2), rng.normal(size=2)
        worst_flat = max(worst_flat, abs(sectional_curvature(torus, p, u, v)))
    ok = worst < 1e-8 and worst_flat < 1e-10
    announce(capsys, 1, ok,
             f"sphere curvature error {worst:.2e} (tol 1e-08), "
             f"flat residual {worst_flat:.2e} (tol 1e-10)")


def test_criterion_02_frame_formulas(capsys):
    rng = np.random.default_rng(SEED + 1)
    worst_frame = worst_eig = 0.0
    for sc in registry().values():
        d = point_rows(sc.f, sc.random_points(100, rng))
        for i, x in enumerate(d.coords):
            worst_frame = max(worst_frame, frame_formula_residual(
                sc.f, ChartPoint(x), d.blk.frames.point(i)))
        vals, _ = sym_eigen(d.s, d.g)
        pred = np.sort((1.0 - d.lambdas ** 2) / (1.0 + d.lambdas ** 2), axis=-1)
        worst_eig = max(worst_eig, float(np.abs(vals - pred).max()))
    ok = worst_frame < 1e-8 and worst_eig < 1e-8
    announce(capsys, 2, ok,
             f"frame evaluation residual {worst_frame:.2e}, eigenvalue "
             f"formula residual {worst_eig:.2e} (tol 1e-08, 100 pts/scenario)")


def test_criterion_03_holomorphic_minimality(capsys):
    rng = np.random.default_rng(SEED + 2)
    worst_h = 0.0
    best_a = 0.0
    for name in ("holo-w2", "holo-w3"):
        sc = get(name)
        d = point_rows(sc.f, sc.random_points(100, rng))
        worst_h = max(worst_h, float(np.max(d.h_norm)))
        best_a = max(best_a, float(np.max(d.a_norm_sq)))
    ok = worst_h < 1e-6 and best_a > 1e-4
    announce(capsys, 3, ok,
             f"max |H| {worst_h:.2e} (tol 1e-06), max |A|^2 {best_a:.2e} "
             "(> 1e-04 required: minimal but not totally geodesic)")


def test_criterion_04_normal_estimate(capsys):
    rng = np.random.default_rng(SEED + 3)
    worst = np.inf
    for sc in registry().values():
        d = point_rows(sc.f, sc.random_points(20, rng))
        lam2 = powers(d.lambdas[:, -1], 2)
        # both shift levels at every point
        worst = min(worst, float(np.min(normal_estimate_check(
            d, np.stack([lam2, lam2 + 1.0], axis=-1)))))
    ok = worst >= -1e-10
    announce(capsys, 4, ok,
             f"worst normal-estimate slack {worst:.2e} (>= -1e-10; least over "
             "every unit normal, both shift levels, all scenarios)")


def test_criterion_05_curvature_decompositions(capsys):
    rng = np.random.default_rng(SEED + 4)
    names = sorted(registry())
    worst_res = worst_gap = 0.0
    for _ in range(100):
        sc = get(names[int(rng.integers(0, len(names)))])
        d = point_rows(sc.f, sc.random_points(1, rng))
        c = float(rng.uniform(0.05, 10.0))
        sigma = float(rng.uniform(-2.0, 2.0))
        l = int(rng.integers(0, sc.domain.dim))
        (lhs,), (rhs_a,), (rhs_b,) = decomposition_sides(d, c, sigma, l)
        worst_res = max(worst_res, abs(lhs - rhs_a), abs(lhs - rhs_b))
        worst_gap = max(worst_gap, abs(rhs_a - rhs_b))

    sc = get("constant-s2")
    d = point_rows(sc.f, [sc.domain.point([0.4, -0.1])])
    (lhs,), (rhs_a,), (rhs_b,) = decomposition_sides(d, 2.0, 1.0, 0)
    anchor = max(abs(lhs + 4.0), abs(rhs_a + 4.0), abs(rhs_b + 4.0))

    ok = worst_res < 1e-6 and worst_gap < 1e-8 and anchor < 1e-8
    announce(capsys, 5, ok,
             f"decomposition residual {worst_res:.2e} (tol 1e-06) over 100 "
             f"tuples, forms gap {worst_gap:.2e} (tol 1e-08), anchor error "
             f"{anchor:.2e} (constant map, shift 2 -> -4)")


def test_criterion_06_elliptic_equation(capsys):
    rng = np.random.default_rng(SEED + 5)
    minimal = ["constant-s2", "constant-s3", "identity-s2", "identity-s3",
               "rotation-s2", "torus-linear", "scaled-sphere-0.5",
               "scaled-sphere-2.0", "holo-w2", "holo-w3", "conformal-shrink"]
    worst = 0.0
    for name in minimal:
        sc = get(name)
        d = point_rows(sc.f, sc.random_points(3, rng))
        worst = max(worst, float(np.max(elliptic_equation_residual(d, 2.0, h=1e-3))))

    ratios = []
    for name in ("holo-w2", "holo-w3", "conformal-shrink"):
        d = point_rows(get(name).f, [[0.6, 0.3], [-0.4, 0.8]])
        r_h = elliptic_equation_residual(d, 2.0, h=1e-3)
        r_half = elliptic_equation_residual(d, 2.0, h=5e-4)
        ratios += (r_h / r_half).tolist()
    ok = worst < 1e-4 and all(3.5 <= r <= 4.5 for r in ratios)
    announce(capsys, 6, ok,
             f"elliptic residual {worst:.2e} (tol 1e-04 at h=1e-03) on all "
             f"minimal scenarios; halving factors "
             f"{min(ratios):.2f}..{max(ratios):.2f} (need [3.5, 4.5])")


def test_criterion_07_log_jacobian_identity(capsys):
    rng = np.random.default_rng(SEED + 6)
    sc = get("holo-w2")
    worst = worst_rel = 0.0
    d = point_rows(sc.f, sc.random_points(50, rng))
    worst = max(worst, float(np.max(log_jacobian_residual_2d(d, h=1e-3))))
    worst_rel = max(worst_rel, float(np.max(minimality_relations_residual_2d(d))))
    sc_id = get("identity-s2")
    worst_id = float(np.max(log_jacobian_residual_2d(
        point_rows(sc_id.f, sc_id.random_points(5, rng)))))
    ok = worst < 1e-4 and worst_rel < 1e-6 and worst_id < 1e-10
    announce(capsys, 7, ok,
             f"2d jacobian residual {worst:.2e} (tol 1e-04), trace relations "
             f"{worst_rel:.2e} (tol 1e-06), identity scenario {worst_id:.2e} "
             "(tol 1e-10)")


def test_criterion_08_theorem_gate_dichotomy(capsys):
    expected = {
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
    verdicts = {}
    witness_dev = 0.0
    indeterminate = 0
    for name, sc in registry().items():
        grid = sc.grid_points()
        sweep = sweep_geometry(sc.f, grid, seed=SEED)
        cls = classify(sweep, evaluate_hypotheses(sweep, sc.sigma))
        verdicts[name] = cls.verdict
        if cls.verdict == "indeterminate":
            indeterminate += 1
        if cls.verdict == "totally-geodesic-isometric-immersion":
            witness_dev = max(witness_dev,
                              cls.evidence["sec_m_witness_deviation"],
                              cls.evidence["sec_n_witness_deviation"])
    mismatches = {n: v for n, v in verdicts.items() if v != expected[n]}
    ok = not mismatches and indeterminate == 0 and witness_dev < 1e-6
    announce(capsys, 8, ok,
             f"verdicts as required, {indeterminate} indeterminate, curvature "
             f"witnesses within {witness_dev:.2e} of the pinching level "
             f"(tol 1e-06){'; mismatches: ' + str(mismatches) if mismatches else ''}")


def test_criterion_09_trace_chain(capsys):
    sc = get("proj-s3-s1")
    sweep = sweep_geometry(sc.f, sc.grid_points(), seed=SEED)
    chain = trace_rank_chain_check(sc.f, sweep)
    m, n = 3, 1
    floor_margin = float(np.min(sweep.trace_s - (m - 2 * n)))
    ok = chain.ok and floor_margin > 0.0 and chain.dims_margin == m - 2 * n
    announce(capsys, 9, ok,
             f"trace chain holds at all {len(sweep)} grid points; "
             f"margin over m-2n=1: {floor_margin:.3f}; margin over m-n-r: "
             f"{chain.min_trace_margin:.3f}")


def test_criterion_10_null_eigenvector_probes(capsys):
    # each probed point checks every direction by its least eigenvalue
    rng = np.random.default_rng(SEED + 7)
    failures = 0
    points = 0
    worst = np.inf

    # branch with top stretch at least one: isometry scenarios, full gate
    for name, n_pts in (("identity-s2", 200), ("identity-s3", 100),
                        ("rotation-s2", 200)):
        sc = get(name)
        for res in null_eigenvector_probe(point_rows(sc.f, sc.random_points(n_pts, rng)),
                                          sigma=1.0, lambda0_sq=1.0, kappa_sq=1.01,
                                          tol=DEFAULT_TOLERANCES):
            assert res.status != "skipped", res.reason
            points += 1
            worst = min(worst, res.min_value)
            failures += res.status == "fail"

    # strictly length-decreasing branch: constants and the shrinking map
    for name, box, n_pts in (("constant-s2", None, 200),
                             ("constant-s3", None, 100),
                             ("conformal-shrink",
                              np.array([[-0.6, 0.6], [-0.6, 0.6]]), 200)):
        sc = get(name) if box is None else get(name)._replace(sample_box=box)
        rows = point_rows(sc.f, sc.random_points(n_pts, rng))
        lam0_sq = float(powers(rows.lambdas[:, -1], 2).max())
        assert lam0_sq < 1.0
        for res in null_eigenvector_probe(rows, sigma=1.0, lambda0_sq=lam0_sq,
                                          kappa_sq=1.01, tol=DEFAULT_TOLERANCES):
            assert res.status != "skipped", res.reason
            points += 1
            worst = min(worst, res.min_value)
            failures += res.status == "fail"

    ok = points >= 1000 and failures == 0
    announce(capsys, 10, ok,
             f"{failures} failures over {points} seeded points, each exact in every "
             f"direction (need 0 over >= 1000; both branches); worst probe value {worst:.2e}")


def test_criterion_11_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["report", "--scenario", "holo-w2", "--grid", "6x6",
            "--seed", "123"]
    cli_main(argv + ["--output", str(a)])
    cli_main(argv + ["--output", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    ok = identical and parsed["config"]["seed"] == 123
    announce(capsys, 11, ok,
             f"two runs with identical config and seed are byte-identical: "
             f"{identical} ({len(a.read_bytes())} bytes)")
