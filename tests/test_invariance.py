"""Coordinate invariance of the sweep on the registry.

A rotation ``R`` of a stereographic chart is an isometry of the round
sphere, so the graph of ``f∘R`` at ``y`` is congruent to that of ``f`` at
``R y``, and, when the target is a sphere of the domain's dimension, the
graph of ``R∘f`` at ``x`` to that of ``f`` at ``x``.  Every isometry
invariant of the sweep must agree between them up to roundoff, and so must
the graph block's exact curvature ranges (``sec_range_m``, ``sec_range_n``).
The sweep's ``sec_*`` columns are left out: they come from randomly sampled
planes, drawn in chart coordinates.
"""

import numpy as np
import pytest

from graphgeo.chart_manifold import matvec
from graphgeo.extrinsic import graph_block
from graphgeo.graph_map import MapJet, SmoothMap
from graphgeo.scenarios import get, rotation_matrix_2d
from graphgeo.theorem_gate import sweep_geometry
from test_graph_map import precompose_linear

#: largest gap allowed, in units of eps times the column's scale
GAP_EPS = 16

#: the same for the curvature ranges.  They come from the curvature tensor:
#: each component sums 2m + 2 products of up to three jet-derived factors
#: (second metric derivatives, Christoffels), which round in their own
#: chart on either side, and the eigensolver adds a few eps of the operator.
#: The largest gap on these cases is 29.5 units (holo-w2, sec_range_n).
SEC_GAP_EPS = 64

INVARIANTS = ("rank", "lambdas", "trace_s", "a_norm_sq", "h_norm", "sec_range_m", "sec_range_n")

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
    assert np.array_equal(got["rank"], want["rank"])
    # zero singular values included: they come out at roundoff
    eps = np.finfo(float).eps
    for column in INVARIANTS[1:]:
        a, b = want[column], got[column]
        # a target range is NaN at the same rows (rank below 2) on both sides
        assert np.array_equal(np.isnan(a), np.isnan(b)), column
        a, b = np.nan_to_num(a), np.nan_to_num(b)
        scale = max(1.0, float(np.max(np.abs(a))))
        gap = float(np.max(np.abs(a - b)))
        bound = SEC_GAP_EPS if column.startswith("sec_") else GAP_EPS
        assert gap <= bound * eps * scale, (column, gap / (eps * scale))


def invariants(f, x) -> dict:
    """The invariant columns of the sweep and of the graph block at the rows ``x``."""
    sweep, blk = sweep_geometry(f, x), graph_block(f, x)
    return {column: getattr(blk if column.startswith("sec_") else sweep, column)
            for column in INVARIANTS}


@pytest.mark.parametrize("name", SPHERE_SCENARIOS)
def test_sweep_is_invariant_under_a_domain_rotation(name):
    sc = get(name)
    m = sc.domain.dim
    x = sc.grid_points((9,) * m)
    R = rotation(m)
    # row i of y is R^T x_i, so f∘R at y is f at x
    got = invariants(precompose_linear(sc.f, R), x @ R)
    assert_same_invariants(got, invariants(sc.f, x))


@pytest.mark.parametrize("name", [name for name in SPHERE_SCENARIOS
                                  if get(name).target.dim == get(name).domain.dim])
def test_sweep_is_invariant_under_a_target_rotation(name):
    sc = get(name)
    m = sc.domain.dim
    x = sc.grid_points((9,) * m)
    got = invariants(postcompose_linear(sc.f, rotation(m)), x)
    assert_same_invariants(got, invariants(sc.f, x))
