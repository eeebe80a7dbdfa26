import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from graphgeo.extrinsic import graph_block, second_fundamental_at
from graphgeo.identities import point_rows
from graphgeo.product_space import product_form
from graphgeo.scenarios import get, registry
from graphgeo.theorem_gate import DEFAULT_TOLERANCES

#: the gate's bound on |A| for the totally-geodesic verdict
TOTALLY_GEODESIC_TOL = DEFAULT_TOLERANCES["classify_isometric"]
#: the gate's bound on |H| for a minimal map
MINIMAL_TOL = DEFAULT_TOLERANCES["minimality"]


# ---------------------------------------------------------------------------
# Embedding jet x -> (x, f(x)): identity block over the map jet
# ---------------------------------------------------------------------------

def embedding_jet(f, p):
    """Differential and Hessian of the graph embedding in product-chart slots."""
    jet = f.jet_fn(p.coords[None])
    m = f.domain.dim
    return (np.vstack([np.eye(m), jet.d1[0]]),
            np.concatenate([np.zeros((m, m, m)), jet.d2[0]], axis=0))


def test_embedding_jet_constant_map():
    sc = get("constant-s2")
    p = sc.domain.point([0.4, -0.2])
    d1, d2 = embedding_jet(sc.f, p)
    assert np.abs(d1[:2] - np.eye(2)).max() == 0.0
    assert np.abs(d1[2:]).max() == 0.0
    assert np.abs(d2).max() == 0.0


def test_embedding_jet_identity_map():
    sc = get("identity-s2")
    d1, _ = embedding_jet(sc.f, sc.domain.point([0.1, 0.1]))
    assert np.abs(d1 - np.vstack([np.eye(2), np.eye(2)])).max() == 0.0


def test_embedding_jet_fd_cross_check():
    sc = get("holo-w2")
    x = np.array([0.5, -0.3])

    def d1_at(y):
        return embedding_jet(sc.f, sc.domain.point(y))[0]

    exact = embedding_jet(sc.f, sc.domain.point(x))[1]

    def disc(h):
        fd = np.zeros_like(exact)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd[:, :, k] = (d1_at(x + e) - d1_at(x - e)) / (2 * h)
        # exact layout: d2[C, i, j]; fd built as d_j of d1[C, i]
        return np.abs(fd - exact).max()

    d1, d2 = disc(1e-4), disc(5e-5)
    assert d1 < 1e-10 or 3.5 <= d1 / d2 <= 4.5


# ---------------------------------------------------------------------------
# Second fundamental form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["constant-s2", "constant-s3", "identity-s2",
                                  "identity-s3", "rotation-s2", "torus-linear"])
def test_totally_geodesic_scenarios_have_vanishing_a(name):
    sc = get(name)
    rng = np.random.default_rng(20)
    for p in sc.random_points(10, rng):
        ext = second_fundamental_at(sc.f, p)
        assert ext.a_norm_sq < 1e-10
        assert ext.h_norm < 1e-10


@pytest.mark.parametrize("name", ["holo-w2", "holo-w3"])
def test_holomorphic_graphs_are_minimal_but_curved(name):
    sc = get(name)
    rng = np.random.default_rng(21)
    max_a = 0.0
    for p in sc.random_points(100, rng):
        ext = second_fundamental_at(sc.f, p)
        assert ext.h_norm < 1e-6
        max_a = max(max_a, ext.a_norm_sq)
    assert max_a > 1e-4


def test_normality_of_a_on_all_scenarios():
    # Gauss formula: A(e_i, e_j) is orthogonal to the graph tangent space
    rng = np.random.default_rng(22)
    for sc in registry().values():
        blk = graph_block(sc.f, np.array([p.coords for p in sc.random_points(10, rng)]))
        # axes (row, i, j, tangent vector k): G(A(e_i, e_j), t_k)
        tang = product_form(blk.gm[:, None, None, None], blk.gn[:, None, None, None],
                            blk.ext.a_frame[..., None, :],
                            np.swapaxes(blk.frames.tangent, -1, -2)[:, None, None])
        assert np.abs(tang).max() < 1e-6, sc.name


def _random_orthonormal_frame(g, rng):
    m = g.shape[0]
    basis = []
    while len(basis) < m:
        v = rng.normal(size=m)
        for b in basis:
            v = v - float(b @ g @ v) * b
        norm = np.sqrt(float(v @ g @ v))
        if norm > 1e-6:
            basis.append(v / norm)
    return np.array(basis).T


def test_scalar_invariants_are_frame_independent():
    rng = np.random.default_rng(23)
    for name in ("holo-w2", "proj-s3-s1", "conformal-shrink"):
        sc = get(name)
        for p in sc.random_points(5, rng):
            ext = second_fundamental_at(sc.f, p)
            d = point_rows(sc.f, [p])
            gm, gn = d.gm[0], d.gn[0]
            E = _random_orthonormal_frame(d.g[0], rng)
            a_sq = 0.0
            h = np.zeros(sc.domain.dim + sc.target.dim)
            for i in range(sc.domain.dim):
                for j in range(sc.domain.dim):
                    a = np.einsum("ijc,i,j->c", ext.a_coord, E[:, i], E[:, j])
                    a_sq += product_form(gm, gn, a, a)
                    if i == j:
                        h += a
            h_norm = np.sqrt(product_form(gm, gn, h, h))
            assert abs(a_sq - ext.a_norm_sq) < 1e-8
            assert abs(h_norm - ext.h_norm) < 1e-8


def test_normal_estimate_on_frame_normals():
    # the split form on any normal direction is bounded by the shifted level
    rng = np.random.default_rng(24)
    for sc in registry().values():
        d = point_rows(sc.f, sc.random_points(5, rng))
        xi = np.swapaxes(d.normal, -1, -2)          # (point, normal vector, components)
        gm, gn = d.gm[:, None], d.gn[:, None]
        lam_max_sq = d.lambdas[:, -1, None] ** 2
        for c in (lam_max_sq, lam_max_sq + 1.0):
            bound = (c - 1.0) / (1.0 + c)
            lhs = product_form(gm, -gn, xi, xi)
            rhs = bound * product_form(gm, gn, xi, xi)
            assert np.all(lhs <= rhs + 1e-10)


# ---------------------------------------------------------------------------
# Minimality and total geodesy over a grid
# ---------------------------------------------------------------------------

def grid_norms(f, grid):
    """Largest ``|H|`` and ``|A|`` over the grid rows, from one graph block."""
    ext = graph_block(f, grid).ext
    return float(np.max(ext.h_norm)), float(np.sqrt(np.max(ext.a_norm_sq)))


def test_minimality_report_identity():
    sc = get("identity-s2")
    max_h, max_a = grid_norms(sc.f, sc.grid_points((6, 6)))
    assert max_a < TOTALLY_GEODESIC_TOL
    # total geodesy implies minimality whatever the measured |H|
    assert max_h < MINIMAL_TOL or max_a < TOTALLY_GEODESIC_TOL


def test_minimality_report_w2():
    sc = get("holo-w2")
    max_h, max_a = grid_norms(sc.f, sc.grid_points((8, 8)))
    assert max_h < MINIMAL_TOL
    assert not max_a < TOTALLY_GEODESIC_TOL
    # genuinely curved: certified well above the decision threshold
    assert max_a > 10 * TOTALLY_GEODESIC_TOL


def test_minimality_report_projection_not_minimal():
    sc = get("proj-s3-s1")
    max_h, max_a = grid_norms(sc.f, sc.grid_points((4, 4, 4)))
    assert not (max_h < MINIMAL_TOL or max_a < TOTALLY_GEODESIC_TOL)
    assert max_h > 10 * MINIMAL_TOL


def test_minimality_report_torus_linear():
    sc = get("torus-linear")
    _, max_a = grid_norms(sc.f, sc.grid_points((5, 5)))
    assert max_a < TOTALLY_GEODESIC_TOL


# ---------------------------------------------------------------------------
# README library example
# ---------------------------------------------------------------------------

def test_readme_library_example_prints_documented_values():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lambdas, trace_s, h_norm, a_norm_sq, a_norm_sq_half = out.getvalue().splitlines()
    assert [float(x) for x in lambdas.strip("[]").split()] == [2.0, 2.0]
    assert abs(float(trace_s) + 1.2) < 1e-12
    assert float(h_norm) < 1e-12
    assert abs(float(a_norm_sq)) < 1e-12
    assert float(a_norm_sq_half) > 0.0


def test_readme_user_evaluator_example_runs_on_blocks():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Your own charts and maps", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out, scope = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), scope)
    assert out.getvalue().split() == ["[[1.", "2.]", "[0.", "1.]]"]
    # the example's map runs through the block engine like a built-in one
    f = scope["f"]
    coords = np.array([[0.5, 1.0], [-0.3, 0.2], [0.0, 0.0]])
    blk = graph_block(f, coords)
    assert np.isfinite(blk.ext.h_norm).all()
    assert np.array_equal(f.jet(coords).d1[1], [[1.0, 0.4], [0.0, 1.0]])
