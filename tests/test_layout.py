"""The block-innermost memory layout of the engine's block arrays.

Block arrays are stored with the block axis innermost, so that each einsum's
inner loop runs over a block's rows.  The sources of block arrays must
produce that layout (a silent fallback to C order would only show as a slower
benchmark otherwise), and no formula may give different bits for C-ordered
and block-innermost inputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgeo.chart_manifold import (
    PLANE_TOL,
    ChartManifold,
    MetricJet,
    block_innermost,
    christoffel_derivative_from_jet,
    christoffel_from_jet,
    curvature_form,
    matvec,
    metric_inverse,
    quadratic_form,
    ricci_from_jet,
    riemann_from_jet,
    sectional_from_data,
)
from graphgeo.draws import spawned_normals
from graphgeo.extrinsic import GraphBlock, graph_block, second_fundamental_block
from graphgeo.graph_map import (GraphJets, MapJet, SmoothMap, pullback_metric_d2,
                                pullback_metric_jet)
from graphgeo.scenarios import get
from graphgeo.theorem_gate import GridSweep, sweep_geometry

#: around a power of two, and the single point
BLOCK_ROWS = [1, 2, 127, 128, 129]


def layouts(*arrays):
    """The arrays in C order, and the same arrays block-innermost."""
    return [np.ascontiguousarray(a) for a in arrays], [block_innermost(a) for a in arrays]


def assert_same_bits(got, want):
    """Equal arrays, or equal tuples of arrays."""
    got, want = (x if isinstance(x, tuple) else (x,) for x in (got, want))
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


def assert_block_innermost(a):
    """The block axis has the smallest stride of the axes longer than one."""
    others = [s for s, size in zip(a.strides[1:], a.shape[1:]) if size > 1]
    assert a.strides[0] == a.itemsize and all(s > a.itemsize for s in others), a.strides


# ---------------------------------------------------------------------------
# Random jets
# ---------------------------------------------------------------------------

def random_metric_jet(rng, rows, dim):
    """Positive definite metrics with derivatives symmetric in ``(i, j)`` and
    in the two derivative slots; no other structure, so that no summand of
    a contraction vanishes."""
    a = rng.normal(size=(rows, dim, dim))
    g = a @ np.swapaxes(a, -1, -2) + dim * np.eye(dim)
    dg = rng.normal(size=(rows, dim, dim, dim))
    dg = dg + np.swapaxes(dg, -1, -2)
    d2g = rng.normal(size=(rows, dim, dim, dim, dim))
    d2g = d2g + np.swapaxes(d2g, -1, -2)
    return MetricJet(g, dg, d2g + np.swapaxes(d2g, 1, 2))


def random_map_jet(rng, rows, m, n):
    return MapJet(rng.normal(size=(rows, n)), rng.normal(size=(rows, n, m)),
                  rng.normal(size=(rows, n, m, m)), rng.normal(size=(rows, n, m, m, m)))


def jet_layouts(jet):
    c, b = layouts(*(getattr(jet, k) for k in jet._fields))
    return type(jet)(*c), type(jet)(*b)


@st.composite
def blocks(draw):
    rows = draw(st.sampled_from(BLOCK_ROWS))
    m, n = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), rows, m, n


# ---------------------------------------------------------------------------
# No result depends on the layout of its inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("formula", [christoffel_from_jet,
                                     christoffel_derivative_from_jet,
                                     riemann_from_jet, ricci_from_jet])
@settings(max_examples=20, deadline=None)
@given(block=blocks())
def test_curvature_formulas_ignore_the_layout(formula, block):
    rng, rows, m, _ = block
    c_jet, b_jet = jet_layouts(random_metric_jet(rng, rows, m))
    assert_same_bits(formula(c_jet), formula(b_jet))


@settings(max_examples=20, deadline=None)
@given(block=blocks())
def test_curvature_and_sectional_forms_ignore_the_layout(block):
    rng, rows, m, _ = block
    riem, g = rng.normal(size=(rows, m, m, m, m)), random_metric_jet(rng, rows, m).g
    u, v = rng.normal(size=(2, rows, 4, m))      # four planes per row
    (riem_c, g_c, u_c, v_c), (riem_b, g_b, u_b, v_b) = layouts(riem, g, u, v)
    assert np.array_equal(curvature_form(riem_c[:, None], u_c, v_c, u_c, v_c),
                          curvature_form(riem_b[:, None], u_b, v_b, u_b, v_b))
    assert_same_bits(sectional_from_data(riem_c[:, None], g_c[:, None], u_c, v_c),
                     sectional_from_data(riem_b[:, None], g_b[:, None], u_b, v_b))
    assert np.array_equal(quadratic_form(u_c, g_c[:, None], v_c),
                          quadratic_form(u_b, g_b[:, None], v_b))
    assert np.array_equal(matvec(g_c[:, None], u_c), matvec(g_b[:, None], u_b))


def three_form_sectional(riem, g, u, v):
    """:func:`sectional_from_data` with each of ``uu``, ``vv`` and ``uv`` its
    own :func:`quadratic_form`, as it was before ``u . g`` was shared."""
    uu, vv, uv = quadratic_form(u, g, u), quadratic_form(v, g, v), quadratic_form(u, g, v)
    area2 = uu * vv - uv * uv
    spans = ~((area2 < PLANE_TOL * uu * vv) | (area2 <= 0.0))
    return curvature_form(riem, u, v, u, v) / np.where(spans, area2, 1.0), spans


@settings(max_examples=30, deadline=None)
@given(block=blocks())
@example(block=(np.random.default_rng(2), 202, 3, 3))
def test_shared_plane_products_give_the_three_form_bits(block):
    # block-innermost, non-diagonal metrics, and planes laid out as the
    # sweep hands them over: views of one block-innermost (rows, 4, 2, m)
    rng, rows, m, n = block
    riem = block_innermost(rng.normal(size=(rows, m, m, m, m)))
    g = block_innermost(random_metric_jet(rng, rows, m).g)
    planes = block_innermost(rng.normal(size=(rows, 4, 2, m)))
    u, v = planes[:, :, 0], planes[:, :, 1]
    assert np.count_nonzero(g[:, 0, 1]) == rows
    assert_same_bits(sectional_from_data(riem[:, None], g[:, None], u, v),
                     three_form_sectional(riem[:, None], g[:, None], u, v))
    # and on the pushed-forward target planes
    d1 = block_innermost(rng.normal(size=(rows, n, m)))
    du, dv = matvec(d1[:, None], u), matvec(d1[:, None], v)
    riem_n = block_innermost(rng.normal(size=(rows, n, n, n, n)))
    g_n = block_innermost(random_metric_jet(rng, rows, n).g)
    assert_same_bits(sectional_from_data(riem_n[:, None], g_n[:, None], du, dv),
                     three_form_sectional(riem_n[:, None], g_n[:, None], du, dv))


@settings(max_examples=20, deadline=None)
@given(block=blocks())
def test_pullback_jet_ignores_the_layout(block):
    rng, rows, m, n = block
    f_c, f_b = jet_layouts(random_map_jet(rng, rows, m, n))
    h_c, h_b = jet_layouts(random_metric_jet(rng, rows, n))
    assert_same_bits((*pullback_metric_jet(f_c, h_c), pullback_metric_d2(f_c, h_c)),
                     (*pullback_metric_jet(f_b, h_b), pullback_metric_d2(f_b, h_b)))


@settings(max_examples=20, deadline=None)
@given(block=blocks())
# a rank-2 map from a 3-d domain: one zero singular value per row
@example(block=(np.random.default_rng(1), 127, 3, 2))
def test_second_fundamental_form_ignores_the_layout(block):
    rng, rows, m, n = block
    coords = rng.normal(size=(rows, m))
    fjet, gm, gn = (random_map_jet(rng, rows, m, n), random_metric_jet(rng, rows, m),
                    random_metric_jet(rng, rows, n))
    (f_c, f_b), (gm_c, gm_b), (gn_c, gn_b) = map(jet_layouts, (fjet, gm, gn))
    # the formulas read the jets only, never the map
    ext_c = second_fundamental_block(GraphBlock(None, GraphJets(coords, f_c, gm_c, gn_c)))
    ext_b = second_fundamental_block(GraphBlock(None, GraphJets(coords, f_b, gm_b, gn_b)))
    for name in ("a_coord", "a_frame", "mean_curvature", "a_norm_sq", "h_norm"):
        assert np.array_equal(getattr(ext_c, name), getattr(ext_b, name)), name


def test_evaluator_layout_changes_no_sweep_column():
    sc = get("holo-w2")

    def fortran(evaluate):
        def jet(x):
            out = evaluate(x)
            return type(out)(*(np.asfortranarray(getattr(out, k))
                               for k in out._fields))
        return jet

    def chart(man):
        return ChartManifold(man.dim, fortran(man.metric_jet), man.chart_box, man.name)

    f = SmoothMap(chart(sc.domain), chart(sc.target), fortran(sc.f.jet_fn), sc.f.name)
    grid = sc.grid_points((17, 11))
    want, got = sweep_geometry(sc.f, grid, seed=4), sweep_geometry(f, grid, seed=4)
    for column in GridSweep._fields:
        assert np.array_equal(getattr(got, column), getattr(want, column),
                              equal_nan=True), column


# ---------------------------------------------------------------------------
# The sources produce the layout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["holo-w2", "proj-s3-s1", "identity-s3"])
def test_sources_lay_out_the_block_axis_innermost(name):
    sc = get(name)
    x = sc.grid_points((5,) * sc.domain.dim)[:37]
    fjet = sc.f.jet(x)
    for jet in (fjet, sc.domain.jet(x), sc.target.jet(fjet.value)):
        for field in jet._fields:
            if field != "value":
                assert_block_innermost(getattr(jet, field))
    assert_block_innermost(metric_inverse(sc.domain.metric_jet(x).g))
    assert_block_innermost(spawned_normals(3, len(x), (4, 2, sc.domain.dim))(slice(0, len(x))))
    assert_block_innermost(graph_block(sc.f, x).frames.e)


def test_block_innermost_keeps_shape_values_and_a_laid_out_array():
    a = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
    b = block_innermost(a)
    assert b.shape == a.shape and np.array_equal(a, b)
    assert b.strides == (8, 4 * 2 * 8, 2 * 8)
    assert np.shares_memory(block_innermost(b), b)
