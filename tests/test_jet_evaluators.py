"""The block-native jet evaluators against their per-point formulas.

The oracles below are the per-point evaluators the block evaluators
replaced.  Every jet array of a block must equal the stacked per-point jets
bit for bit, in the same C layout: the sweep's sectional samples and the
finite-difference stencils magnify a change in the last bit, and numpy's
vectorized ``**`` rounds differently from the scalar ``pow`` the per-point
formulas use on about 5% of elements.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgeo.chart_manifold import MetricJet
from graphgeo.graph_map import MapJet
from graphgeo.scenarios import registry, rotation_matrix_2d
from test_graph_map import precompose_linear

# ---------------------------------------------------------------------------
# Oracles: one point at a time
# ---------------------------------------------------------------------------


def point_sphere(dim, radius):
    r2 = float(radius) ** 2
    eye = np.eye(dim)

    def jet(x):
        q = r2 + float(x @ x)
        u = 4.0 * r2 * r2 / (q * q)
        du = -16.0 * r2 * r2 * x / q ** 3
        d2u = (-16.0 * r2 * r2 / q ** 3) * eye \
            + (96.0 * r2 * r2 / q ** 4) * np.outer(x, x)
        return MetricJet(u * eye, du[:, None, None] * eye[None, :, :],
                         d2u[:, :, None, None] * eye[None, None, :, :])
    return jet


def point_flat(dim):
    def jet(x):
        return MetricJet(np.eye(dim), np.zeros((dim,) * 3), np.zeros((dim,) * 4))
    return jet


def point_constant_map(value, m):
    value = np.asarray(value, dtype=float)
    n = len(value)

    def jet(x):
        return MapJet(value.copy(), np.zeros((n, m)), np.zeros((n, m, m)),
                      np.zeros((n, m, m, m)))
    return jet


def point_linear(matrix):
    Q = np.asarray(matrix, dtype=float)
    n, m = Q.shape

    def jet(x):
        return MapJet(Q @ x + np.zeros(n), Q.copy(), np.zeros((n, m, m)),
                      np.zeros((n, m, m, m)))
    return jet


def point_complex_power(k, t=1.0):
    def jet(xy):
        x, y = xy
        d3 = np.zeros((2, 2, 2, 2))
        if k == 1:
            val = np.array([x, y])
            d1 = np.array([[1.0, 0.0], [0.0, 1.0]])
            d2 = np.zeros((2, 2, 2))
        elif k == 2:
            val = np.array([x * x - y * y, 2.0 * x * y])
            d1 = np.array([[2 * x, -2 * y], [2 * y, 2 * x]])
            d2 = np.array([[[2.0, 0.0], [0.0, -2.0]],
                           [[0.0, 2.0], [2.0, 0.0]]])
        else:
            val = np.array([x ** 3 - 3 * x * y * y, 3 * x * x * y - y ** 3])
            d1 = np.array([[3 * x * x - 3 * y * y, -6 * x * y],
                           [6 * x * y, 3 * x * x - 3 * y * y]])
            d2 = np.array([[[6 * x, -6 * y], [-6 * y, -6 * x]],
                           [[6 * y, 6 * x], [6 * x, -6 * y]]])
            d3[0, 0, 0, 0] = 6.0
            d3[0, 0, 1, 1] = d3[0, 1, 0, 1] = d3[0, 1, 1, 0] = -6.0
            d3[1, 0, 0, 1] = d3[1, 0, 1, 0] = d3[1, 1, 0, 0] = 6.0
            d3[1, 1, 1, 1] = -6.0
        return MapJet(t * val, t * d1, t * d2, t * d3)
    return jet


def point_precompose(inner_jet, matrix):
    Q = np.asarray(matrix, dtype=float)

    def jet(x):
        inner = inner_jet(Q @ x)
        return MapJet(inner.value, np.einsum("ab,bi->ai", inner.d1, Q),
                      np.einsum("abc,bi,cj->aij", inner.d2, Q, Q),
                      np.einsum("abcd,bi,cj,dk->aijk", inner.d3, Q, Q, Q))
    return jet


S2, S3 = point_sphere(2, 1.0), point_sphere(3, 1.0)

#: scenario -> (map, domain chart, target chart) oracles, with the
#: parameters of the registry
ORACLES = {
    "constant-s2": (point_constant_map([0.3, -0.2], 2), S2, S2),
    "constant-s3": (point_constant_map([0.2, 0.1], 3), S3, point_sphere(2, 2.0)),
    "identity-s2": (point_linear(np.eye(2)), S2, S2),
    "identity-s3": (point_linear(np.eye(3)), S3, S3),
    "rotation-s2": (point_linear(rotation_matrix_2d(np.pi / 5)), S2, S2),
    "holo-w2": (point_complex_power(2), S2, S2),
    "holo-w3": (point_complex_power(3), S2, S2),
    "conformal-shrink": (point_complex_power(1, 0.5), S2, S2),
    "torus-linear": (point_linear([[2.0, 1.0], [1.0, 1.0]]), point_flat(2),
                     point_flat(2)),
    "proj-s3-s1": (point_linear([[0.4, 0.0, 0.0]]), S3, point_flat(1)),
    "scaled-sphere-0.5": (point_linear(0.5 * np.eye(2)), S2, point_sphere(2, 0.5)),
    "scaled-sphere-2.0": (point_linear(2.0 * np.eye(2)), S2, point_sphere(2, 2.0)),
}

# ---------------------------------------------------------------------------
# Coordinate blocks
# ---------------------------------------------------------------------------

#: around a power of two, and the single point
BLOCK_ROWS = [1, 2, 127, 128, 129]

COORD = st.one_of(st.floats(-3.0, 3.0, allow_subnormal=True),
                  st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 0.5]))


@st.composite
def coordinate_blocks(draw, dim):
    """A block of random rows at a drawn scale, some rows drawn value by
    value (zeros, tiny and edge values)."""
    rows = draw(st.sampled_from(BLOCK_ROWS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.floats(1e-3, 3.0))
    x = rng.uniform(-scale, scale, size=(rows, dim))
    picked = draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim),
                           max_size=min(rows, 4)))
    x[:len(picked)] = np.array(picked, dtype=float).reshape(-1, dim)
    return x


def assert_stacks_point_jets(block_jet, point_jet, x):
    want = [point_jet(row) for row in x]
    for field in block_jet._fields:
        got = getattr(block_jet, field)
        expected = np.stack([getattr(j, field) for j in want])
        assert got.shape == expected.shape, field
        assert got.flags.c_contiguous, field
        assert np.array_equal(got, expected), field


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_block_evaluators_equal_stacked_point_jets(name, data):
    sc = registry()[name]
    map_oracle, domain_oracle, target_oracle = ORACLES[name]
    x = data.draw(coordinate_blocks(sc.domain.dim), label="x")
    y = data.draw(coordinate_blocks(sc.target.dim), label="y")
    assert_stacks_point_jets(sc.f.jet_fn(x), map_oracle, x)
    assert_stacks_point_jets(sc.domain.metric_jet(x), domain_oracle, x)
    assert_stacks_point_jets(sc.target.metric_jet(y), target_oracle, y)


def test_every_registry_scenario_has_an_oracle():
    assert set(ORACLES) == set(registry())


@settings(max_examples=15, deadline=None)
@given(x=coordinate_blocks(2), angle=st.floats(-np.pi, np.pi))
def test_precomposed_evaluator_equals_stacked_point_jets(x, angle):
    Q = 0.7 * rotation_matrix_2d(angle)
    f = precompose_linear(registry()["holo-w3"].f, Q)
    assert_stacks_point_jets(f.jet_fn(x), point_precompose(point_complex_power(3), Q), x)
