"""The block-batched grid engine against point-by-point evaluation.

The oracle below is the per-point sweep the block engine replaced: each
grid point's frames, second fundamental form and trace evaluated on their
own, one sectional curvature per sampled plane.
Every column of the block sweep must equal it bit for bit: sectional samples
on near-degenerate planes and finite-difference stencils magnify a change in
the last bit far beyond any tolerance.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from graphgeo import extrinsic
from graphgeo.chart_manifold import (
    PLANE_TOL,
    ChartManifold,
    constant_metric_chart,
    riemann_from_jet,
    sym_eigen,
)
from graphgeo.errors import (
    DegenerateMetricError,
    DegeneratePlaneError,
    FrameConstructionError,
    InvalidParameterError,
)
from graphgeo.extrinsic import block_bounds, graph_block, second_fundamental_at, trace_s_at
from graphgeo.graph_map import MapJet, SmoothMap, adapted_frames_at, frame_formula_residual
from graphgeo.identities import run_identity_suite
from graphgeo.scenarios import get, linear_map
from graphgeo.theorem_gate import GridSweep, evaluate_hypotheses, sweep_geometry


# ---------------------------------------------------------------------------
# Oracles: the point-by-point formulas
# ---------------------------------------------------------------------------

def scalar_sectional(riem, g, u, v):
    uu = float(u @ g @ u)
    vv = float(v @ g @ v)
    uv = float(u @ g @ v)
    area2 = uu * vv - uv * uv
    if area2 < PLANE_TOL * uu * vv or area2 <= 0.0:
        raise DegeneratePlaneError("vectors span no plane")
    num = float(np.einsum("ijkl,i,j,k,l->", riem, u, v, u, v))
    return num / area2


def point_geometry(f, p, seed_seq, planes):
    rng = np.random.default_rng(seed_seq)
    fjet = f.jet_fn(p.coords[None])
    gm_jet = f.domain.metric_jet(p.coords[None])
    gn_jet = f.target.metric_jet(np.asarray(fjet.value, dtype=float))
    riem_m, riem_n = riemann_from_jet(gm_jet)[0], riemann_from_jet(gn_jet)[0]
    d1, g_m, g_n = fjet.d1[0], gm_jet.g[0], gn_jet.g[0]
    frames, ext = adapted_frames_at(f, p), second_fundamental_at(f, p)
    m, n = f.domain.dim, f.target.dim
    sec_m_vals, sec_n_vals = [], []
    for _ in range(planes):
        u, v = rng.normal(size=m), rng.normal(size=m)
        try:
            sec_m_vals.append(scalar_sectional(riem_m, g_m, u, v))
        except DegeneratePlaneError:
            continue
        if n >= 2 and frames.rank >= 2:
            du, dv = d1 @ u, d1 @ v
            try:
                sec_n_vals.append(scalar_sectional(riem_n, g_n, du, dv))
            except DegeneratePlaneError:
                pass
    return {
        "coords": p.coords, "lambdas": frames.lambdas, "rank": frames.rank,
        "trace_s": trace_s_at(f, p), "a_norm_sq": ext.a_norm_sq,
        "h_norm": ext.h_norm,
        "sec_m_min": min(sec_m_vals), "sec_m_max": max(sec_m_vals),
        "sec_n_min": min(sec_n_vals) if sec_n_vals else np.nan,
        "sec_n_max": max(sec_n_vals) if sec_n_vals else np.nan,
        "has_sec_n": bool(sec_n_vals),
    }


def point_sweep(f, grid, seed=0, planes=4):
    seqs = np.random.SeedSequence(seed).spawn(len(grid))
    rows = [point_geometry(f, f.domain.point(x), s, planes) for x, s in zip(grid, seqs)]
    return {name: np.array([r[name] for r in rows]) for name in rows[0]}


def scalar_sym_eigen(phi, g, tol=1e-12, max_sweeps=100):
    L = np.linalg.cholesky(g)
    B = np.linalg.solve(L, np.linalg.solve(L, phi.T).T)
    B = 0.5 * (B + B.T)
    k = B.shape[0]
    V = np.eye(k)
    tol_eff = tol * max(1.0, float(np.linalg.norm(B)))
    for _ in range(max_sweeps):
        off = float(np.max(np.abs(B - np.diag(np.diag(B))))) if k > 1 else 0.0
        if off <= tol_eff:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = B[p, q]
                if abs(apq) <= tol_eff:
                    continue
                tau = (B[q, q] - B[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                bp, bq = B[:, p].copy(), B[:, q].copy()
                B[:, p] = c * bp - s * bq
                B[:, q] = s * bp + c * bq
                bp, bq = B[p, :].copy(), B[q, :].copy()
                B[p, :] = c * bp - s * bq
                B[q, :] = s * bp + c * bq
                B[p, q] = B[q, p] = 0.0
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    vals = np.diag(B).copy()
    vecs = np.linalg.solve(L.T, V)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


# ---------------------------------------------------------------------------
# Bit parity of the sweep columns
# ---------------------------------------------------------------------------

def spans_blocks_with_partial_tail(f, grid):
    """Whether the engine's partition of ``grid`` has two or more blocks and
    a last block of another size than the first."""
    bounds = block_bounds(len(grid), f.domain.dim, f.target.dim)
    return len(bounds) > 2 and bounds[-1] - bounds[-2] != bounds[1]


PARITY_CASES = [
    ("constant-s2", (13, 11), 0),     # rank 0: frame completion only
    ("proj-s3-s1", (6, 5, 5), 1),     # rank 1, n = 1: no target sample
    ("identity-s3", (8, 6, 5), 2),
    ("holo-w2", (35, 31), 3),         # passes the origin, where rank is 0
    ("torus-linear", (13, 11), 4),
]

#: element budgets that split the smaller grids into several blocks; the
#: holo-w2 and identity-s3 grids span two blocks at the engine's own budget
PARITY_BUDGETS = {"constant-s2": 2 ** 10, "proj-s3-s1": 2 ** 12, "torus-linear": 2 ** 10}


@pytest.mark.parametrize("name,shape,seed", PARITY_CASES)
def test_sweep_columns_match_point_oracle(name, shape, seed, monkeypatch):
    if name in PARITY_BUDGETS:
        monkeypatch.setattr(extrinsic, "BLOCK_BUDGET", PARITY_BUDGETS[name])
    sc = get(name)
    grid = sc.grid_points(shape)
    assert spans_blocks_with_partial_tail(sc.f, grid)
    sweep = sweep_geometry(sc.f, grid, seed=seed)
    oracle = point_sweep(sc.f, grid, seed=seed)
    for column in GridSweep.__dataclass_fields__:
        got, want = getattr(sweep, column), oracle[column]
        assert np.array_equal(got, want, equal_nan=True), column


@pytest.mark.parametrize("name", ["holo-w2", "identity-s3"])
def test_single_point_sweep_matches_point_oracle(name):
    sc = get(name)
    grid = np.array([p.coords for p in sc.random_points(1, np.random.default_rng(5))])
    sweep = sweep_geometry(sc.f, grid, seed=8)
    oracle = point_sweep(sc.f, grid, seed=8)
    for column in GridSweep.__dataclass_fields__:
        assert np.array_equal(getattr(sweep, column), oracle[column],
                              equal_nan=True), column


# ---------------------------------------------------------------------------
# Bit parity of the broadcasting eigensolver
# ---------------------------------------------------------------------------

def random_pairs(rng, count, k):
    A = rng.normal(size=(count, k, k))
    A = A + np.swapaxes(A, -1, -2)
    W = rng.normal(size=(count, k, k))
    g = W @ np.swapaxes(W, -1, -2) + k * np.eye(k)
    return A, g


@pytest.mark.parametrize("k", [2, 3])
def test_sym_eigen_batched_matches_scalar_loop(k):
    rng = np.random.default_rng(30 + k)
    A, g = random_pairs(rng, 400, k)
    vals, vecs = sym_eigen(A, g)
    assert vals.shape == (400, k) and vecs.shape == (400, k, k)
    for i in range(len(A)):
        want_vals, want_vecs = scalar_sym_eigen(A[i], g[i])
        assert np.array_equal(vals[i], want_vals)
        assert np.array_equal(vecs[i], want_vecs)
        one_vals, one_vecs = sym_eigen(A[i], g[i])
        assert np.array_equal(one_vals, want_vals)
        assert np.array_equal(one_vecs, want_vecs)


def test_sym_eigen_broadcasts_over_several_axes():
    rng = np.random.default_rng(40)
    A, g = random_pairs(rng, 12, 3)
    vals, vecs = sym_eigen(A.reshape(3, 4, 3, 3), g.reshape(3, 4, 3, 3))
    flat_vals, flat_vecs = sym_eigen(A, g)
    assert np.array_equal(vals.reshape(12, 3), flat_vals)
    assert np.array_equal(vecs.reshape(12, 3, 3), flat_vecs)


def test_sym_eigen_diagonal_and_scalar_inputs():
    vals, vecs = sym_eigen(np.diag([3.0, 1.0, 2.0]), np.eye(3))
    assert np.array_equal(vals, [1.0, 2.0, 3.0])
    vals, vecs = sym_eigen(np.array([[2.0]]), np.array([[4.0]]))
    assert np.array_equal(vals, [0.5])
    assert np.array_equal(vecs, [[0.5]])


def test_sym_eigen_block_rejects_one_indefinite_metric():
    g = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(DegenerateMetricError):
        sym_eigen(np.stack([np.eye(2)] * 2), g)


# ---------------------------------------------------------------------------
# Work count: one map jet and two metric jets per grid point
# ---------------------------------------------------------------------------

def counting(fn, rows, calls, key, seen=None):
    """``fn`` counting its calls and the coordinate rows it evaluates."""
    def wrapped(x):
        rows[key] += len(x)
        calls[key] += 1
        if seen is not None:
            seen.update(map(tuple, x))
        return fn(x)
    return wrapped


@pytest.mark.parametrize("name,shape", [("holo-w2", (13, 11)), ("proj-s3-s1", (5, 4, 3)),
                                        ("holo-w2", (35, 31)), ("proj-s3-s1", (9, 9, 5))])
def test_sweep_evaluates_each_jet_once_per_point(name, shape):
    sc = get(name)
    rows, calls = Counter(), Counter()
    domain = dataclasses.replace(
        sc.domain, metric_jet=counting(sc.domain.metric_jet, rows, calls, "domain"))
    target = dataclasses.replace(
        sc.target, metric_jet=counting(sc.target.metric_jet, rows, calls, "target"))
    f = SmoothMap(domain, target, counting(sc.f.jet_fn, rows, calls, "map"), sc.f.name)
    grid = sc.grid_points(shape)
    sweep_geometry(f, grid, seed=0)
    assert rows == {"map": len(grid), "domain": len(grid), "target": len(grid)}
    # one evaluator call per block of the sweep
    blocks = len(block_bounds(len(grid), sc.domain.dim, sc.target.dim)) - 1
    assert calls == {"map": blocks, "domain": blocks, "target": blocks}


class BlockCountingMap(SmoothMap):
    """Records the size of every block the map jets are evaluated on."""

    def jet(self, coords):
        self.blocks.append(len(coords))
        return super().jet(coords)


@pytest.mark.parametrize("name,stencils", [
    # 3 elliptic and 3 log-Jacobian points, plus the extremum probe's
    ("holo-w2", 7),
    ("proj-s3-s1", 0),      # not minimal: no finite differences
])
def test_identity_suite_evaluates_each_sample_jet_once(name, stencils):
    sc = get(name)
    rows, calls, seen = Counter(), Counter(), Counter()
    f = BlockCountingMap(sc.domain, sc.target,
                         counting(sc.f.jet_fn, rows, calls, "map", seen), sc.f.name)
    object.__setattr__(f, "blocks", [])
    seed = 4
    run_identity_suite(dataclasses.replace(sc, f=f), seed=seed)

    samples = sc.random_points(12, np.random.default_rng(seed))
    assert [seen[tuple(p.coords)] for p in samples] == [1] * 12
    # every map jet went through a block call: the samples as one block,
    # then one block per check for all its points' finite-difference
    # stencils (2 m^2 points around a sample) and one for their
    # parallel-field probes (2 m axis neighbours)
    m = sc.domain.dim
    assert f.blocks[0] == 12
    assert rows["map"] == sum(f.blocks)
    assert calls["map"] == len(f.blocks)
    stencil = 2 * m * m
    assert sum(b // stencil for b in f.blocks[1:] if b % stencil == 0) == stencils
    if stencils:
        # elliptic probes and stencils, log-Jacobian stencils, then the
        # extremum probe's grid, its maximum's two-row block, probes, stencil
        assert f.blocks[1:] == [3 * 2 * m, 3 * stencil, 3 * stencil,
                                7 ** m, 2, 2 * m, stencil]
    else:
        assert f.blocks == [12]


# ---------------------------------------------------------------------------
# Fail-loud behaviour
# ---------------------------------------------------------------------------

def nan_differential_map():
    s2 = get("identity-s2").domain

    def jet(x):
        b = len(x)
        return MapJet(x.copy(), np.full((b, 2, 2), np.nan), np.zeros((b, 2, 2, 2)),
                      np.zeros((b, 2, 2, 2, 2)))

    return SmoothMap(s2, s2, jet, "nan-differential")


def test_nan_differential_raises_in_frames():
    f = nan_differential_map()
    with pytest.raises(FrameConstructionError):
        adapted_frames_at(f, f.domain.point([0.2, 0.1]))


def test_frame_residual_propagates_nan():
    sc = get("holo-w2")
    p = sc.domain.point([0.3, 0.2])
    frames = adapted_frames_at(sc.f, p)
    assert frame_formula_residual(sc.f, p, frames) < 1e-12
    broken = dataclasses.replace(frames, e=np.full_like(frames.e, np.nan))
    assert np.isnan(frame_formula_residual(sc.f, p, broken))


def test_nan_differential_raises_in_sweep():
    f = nan_differential_map()
    grid = np.array([[x, 0.1] for x in np.linspace(-0.5, 0.5, 5)])
    with pytest.raises(FrameConstructionError):
        sweep_geometry(f, grid)


def test_nan_trace_never_passes_the_gate():
    sc = get("constant-s2")
    sweep = sweep_geometry(sc.f, sc.grid_points((6, 6)), seed=0)
    assert evaluate_hypotheses(sweep, sc.sigma).trace_ok
    trace = sweep.trace_s.copy()
    trace[7] = np.nan
    hyp = evaluate_hypotheses(dataclasses.replace(sweep, trace_s=trace),
                              sc.sigma)
    assert not hyp.trace_ok
    assert not hyp.all_ok
    assert np.isnan(hyp.margins["trace"])


def test_one_dimensional_domain_is_rejected():
    circle = constant_metric_chart(1, name="S1")
    f = linear_map(circle, get("identity-s2").domain, [[0.3], [0.1]], name="arc")
    grid = [circle.point([x]) for x in (-0.5, 0.0, 0.5)]
    with pytest.raises(InvalidParameterError, match="dim M"):
        sweep_geometry(f, grid)


# ---------------------------------------------------------------------------
# Array-aware chart checks
# ---------------------------------------------------------------------------

def test_contains_accepts_points_and_blocks():
    man: ChartManifold = get("identity-s2").domain
    coords = np.array([[0.0, 0.0], [25.0, 0.0], [1.0, -1.0]])
    assert man.contains(coords[0]).tolist() is True
    assert man.contains(coords).tolist() == [True, False, True]
    assert man.contains(coords, with_margin=True).tolist() == [True, False, True]


def test_block_names_first_point_outside_the_domain():
    from graphgeo.errors import OutOfChartError
    sc = get("identity-s2")
    grid = np.array([[0.0, 0.0], [25.0, 0.0], [30.0, 0.0]])
    with pytest.raises(OutOfChartError, match=r"point \[25\.  0\.\]"):
        sweep_geometry(sc.f, grid)


def test_block_jets_raise_for_the_first_offending_point_in_order():
    from graphgeo.chart_manifold import sphere_chart
    from graphgeo.errors import OutOfChartError
    small = sphere_chart(2, 1.0, box_halfwidth=2.0)
    f = linear_map(sphere_chart(2, 1.0), small, 5.0 * np.eye(2), name="5x")
    # the image of the first point leaves the target before the second
    # point leaves the domain
    coords = np.array([[0.1, 0.0], [1.0, 1.0], [30.0, 0.0]])
    with pytest.raises(OutOfChartError, match="image"):
        f.jet(coords)
    # no jet is evaluated at or past the first point outside the domain
    rows, calls = Counter(), Counter()
    f = SmoothMap(f.domain, f.target, counting(f.jet_fn, rows, calls, "map"), f.name)
    with pytest.raises(OutOfChartError, match="domain"):
        f.jet(coords[[0, 2, 1]])
    assert rows == {"map": 1} and calls == {"map": 1}
    with pytest.raises(OutOfChartError, match=r"point \[30\.  0\.\] outside domain"):
        f.jet(coords[[2, 0]])
    assert rows == {"map": 1}


def test_block_jets_stack_point_jets():
    sc = get("holo-w3")
    coords = sc.grid_points((3, 4))
    fjet, gm = sc.f.jet(coords), sc.domain.jet(coords)
    for i, x in enumerate(coords):
        assert np.array_equal(fjet.d2[i], sc.f.jet_fn(x[None]).d2[0])
        assert np.array_equal(gm.d2g[i], sc.domain.metric_jet(x[None]).d2g[0])
