"""Coordinate invariance of the sweep on the registry.

A rotation ``R`` of a stereographic chart is an isometry of the round
sphere, so the graph of ``f∘R`` at ``y`` is congruent to that of ``f`` at
``R y``, and, when the target is a sphere of the domain's dimension, the
graph of ``R∘f`` at ``x`` to that of ``f`` at ``x``.  Every isometry
invariant of the sweep must agree between them up to roundoff.  The
``sec_*`` columns are left out: they come from randomly sampled planes.
"""

import numpy as np
import pytest

from graphgeo.chart_manifold import matvec
from graphgeo.graph_map import MapJet, SmoothMap
from graphgeo.scenarios import get, rotation_matrix_2d
from graphgeo.theorem_gate import sweep_geometry
from test_graph_map import precompose_linear

#: largest gap allowed, in units of eps times the column's scale
GAP_EPS = 16

SPHERE_SCENARIOS = ["identity-s2", "rotation-s2", "holo-w2", "holo-w3", "conformal-shrink",
                    "scaled-sphere-2.0", "identity-s3", "constant-s3", "proj-s3-s1"]


def rotation(m: int) -> np.ndarray:
    if m == 2:
        return rotation_matrix_2d(0.7)
    q, r = np.linalg.qr(np.random.default_rng(5).normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def postcompose_linear(f: SmoothMap, matrix) -> SmoothMap:
    """The composition ``x -> Q f(x)`` with exact jets."""
    Q = np.asarray(matrix, dtype=float)

    def jet(x: np.ndarray) -> MapJet:
        inner = f.jet_fn(x)
        d1 = np.einsum("ab,...bi->...ai", Q, inner.d1)
        d2 = np.einsum("ab,...bij->...aij", Q, inner.d2)
        d3 = None if inner.d3 is None else np.einsum("ab,...bijk->...aijk", Q, inner.d3)
        return MapJet(matvec(Q, inner.value), d1, d2, d3)

    return SmoothMap(f.domain, f.target, jet, f"linear∘{f.name}")


def assert_same_invariants(got, want):
    assert np.array_equal(got.rank, want.rank)
    # zero singular values included: they come out at roundoff
    eps = np.finfo(float).eps
    for column in ("lambdas", "trace_s", "a_norm_sq", "h_norm"):
        a, b = getattr(want, column), getattr(got, column)
        scale = max(1.0, float(np.max(np.abs(a))))
        gap = float(np.max(np.abs(a - b)))
        assert gap <= GAP_EPS * eps * scale, (column, gap / (eps * scale))


@pytest.mark.parametrize("name", SPHERE_SCENARIOS)
def test_sweep_is_invariant_under_a_domain_rotation(name):
    sc = get(name)
    m = sc.domain.dim
    x = sc.grid_points((9,) * m)
    R = rotation(m)
    # row i of y is R^T x_i, so f∘R at y is f at x
    got = sweep_geometry(precompose_linear(sc.f, R), x @ R)
    assert_same_invariants(got, sweep_geometry(sc.f, x))


@pytest.mark.parametrize("name", [name for name in SPHERE_SCENARIOS
                                  if get(name).target.dim == get(name).domain.dim])
def test_sweep_is_invariant_under_a_target_rotation(name):
    sc = get(name)
    m = sc.domain.dim
    x = sc.grid_points((9,) * m)
    got = sweep_geometry(postcompose_linear(sc.f, rotation(m)), x)
    assert_same_invariants(got, sweep_geometry(sc.f, x))
