"""The grid engine's partition of a grid into blocks.

Rows per block come from an element budget over the size of a row's
largest arrays (:func:`graphgeo.extrinsic.block_bounds`).  No result may
depend on the partition: the sweep, its plane samples and the extremum
probe must all read the same blocks, and a row must give the same bits in
any block it lands in.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgeo import draws, extrinsic, identities, theorem_gate
from graphgeo.chart_manifold import ChartManifold, MetricJet
from graphgeo.extrinsic import block_bounds
from graphgeo.graph_map import MapJet, SmoothMap
from graphgeo.identities import extremum_derivative_probe
from graphgeo.scenarios import get
from graphgeo.theorem_gate import GridSweep, sweep_geometry

# ---------------------------------------------------------------------------
# The partition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n,rows", [(2, 2, 1024), (3, 3, 202), (3, 1, 399),
                                      (3, 2, 337), (12, 12, 2)])
def test_rows_per_block_follow_the_jet_sizes(m, n, rows):
    assert np.diff(block_bounds(5000, m, n))[0] == rows


@settings(max_examples=200, deadline=None)
@given(count=st.integers(0, 3000), m=st.integers(1, 4), n=st.integers(1, 4),
       budget=st.integers(1, 2 ** 16))
def test_partition_covers_the_rows_in_blocks_of_two_or_more(count, m, n, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extrinsic, "BLOCK_BUDGET", budget)
        bounds = block_bounds(count, m, n)
    sizes = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == count
    assert np.all(sizes > 0)
    assert count < 2 or sizes.min() >= 2
    # every block but the last has the same size
    assert len(set(sizes[:-1].tolist())) <= 1


# ---------------------------------------------------------------------------
# A row gives the same bits in any block
# ---------------------------------------------------------------------------

def polynomial_chart(rng, dim, scale):
    """The chart of ``g(x) = G0 + sum_k x_k G1[k] + sum_kl x_k x_l G2[k, l]``
    on ``[-4, 4]^dim``: a non-diagonal metric, no component of it or of its
    derivatives zero.  Each row's sums run in a fixed order, so a row's jet
    does not depend on the block it is evaluated in."""
    w = rng.normal(size=(dim, dim))
    g0 = w @ w.T + dim * np.eye(dim)
    g1 = rng.normal(size=(dim, dim, dim))
    g1 = scale * (g1 + np.swapaxes(g1, -1, -2))
    g2 = rng.normal(size=(dim, dim, dim, dim))
    g2 = g2 + np.swapaxes(g2, -1, -2)
    g2 = scale * (g2 + np.swapaxes(g2, 0, 1))
    axes = range(dim)

    def jet(x):
        xs = [x[:, k, None, None] for k in axes]
        g = (g0 + sum(xs[k] * g1[k] for k in axes)
             + sum(xs[k] * xs[l] * g2[k, l] for k, l in product(axes, axes)))
        dg = np.stack([g1[k] + 2.0 * sum(xs[l] * g2[k, l] for l in axes)
                       for k in axes], axis=1)
        d2g = np.broadcast_to(2.0 * g2, (len(x), *g2.shape)).copy()
        return MetricJet(g, dg, d2g)

    return ChartManifold(dim, jet, np.tile([-4.0, 4.0], (dim, 1)))


def quadratic_map(rng, domain, target):
    """``f(x) = A x + Q(x, x) / 2`` with every row's sums in a fixed order."""
    m, n = domain.dim, target.dim
    A = 0.5 * rng.normal(size=(n, m))
    Q = rng.normal(size=(n, m, m))
    Q = 0.1 * (Q + np.swapaxes(Q, -1, -2))

    def jet(x):
        value = sum(x[:, i, None] * (A[:, i] + 0.5 * sum(x[:, j, None] * Q[:, i, j]
                                                          for j in range(m)))
                    for i in range(m))
        d1 = A + sum(x[:, j, None, None] * Q[:, :, j] for j in range(m))
        d2 = np.broadcast_to(Q, (len(x), n, m, m)).copy()
        return MapJet(value, d1, d2, np.zeros((len(x), n, m, m, m)))

    return SmoothMap(domain, target, jet, "quadratic")


def sweep_with_rows(f, grid, rows):
    m, n = f.domain.dim, f.target.dim
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extrinsic, "BLOCK_BUDGET", rows * (m ** 4 + n ** 4))
        assert np.diff(block_bounds(len(grid), m, n)).min() >= 2
        return sweep_geometry(f, grid, seed=7)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([2, 3]),
       n=st.sampled_from([2, 3]), count=st.integers(2, 23))
@example(seed=0, m=3, n=3, count=11)     # a one-row remainder under every cap
@example(seed=1, m=2, n=3, count=21)
def test_sweep_columns_ignore_the_row_cap(seed, m, n, count):
    rng = np.random.default_rng(seed)
    f = quadratic_map(rng, polynomial_chart(rng, m, 0.02), polynomial_chart(rng, n, 0.02))
    grid = rng.uniform(-0.5, 0.5, size=(count, m))
    want = sweep_with_rows(f, grid, count)
    for rows in (2, 3, 5):
        got = sweep_with_rows(f, grid, rows)
        for column in GridSweep._fields:
            assert np.array_equal(getattr(got, column), getattr(want, column),
                                  equal_nan=True), (rows, column)


def chunk_sweeps():
    """``(name, f, grid)``: three registry maps on small grids, and the
    non-diagonal polynomial map between 3-manifolds."""
    for name, shape in (("identity-s3", (5, 5, 4)), ("proj-s3-s1", (5, 4, 3)),
                        ("holo-w2", (13, 11))):
        sc = get(name)
        yield name, sc.f, sc.grid_points(shape)
    rng = np.random.default_rng(3)
    f = quadratic_map(rng, polynomial_chart(rng, 3, 0.05), polynomial_chart(rng, 3, 0.05))
    yield "polynomial", f, rng.uniform(-0.5, 0.5, size=(61, 3))


CHUNK_SWEEPS = list(chunk_sweeps())


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(range(len(CHUNK_SWEEPS))), chunk=st.integers(1, 300),
       piece=st.integers(1, 300), rows=st.sampled_from([None, 2, 3, 7, 40]))
@example(case=0, chunk=1, piece=1, rows=2)
@example(case=3, chunk=50, piece=7, rows=3)
def test_sweep_bytes_ignore_the_plane_chunks_and_the_blocks(case, chunk, piece, rows):
    _, f, grid = CHUNK_SWEEPS[case]
    want = sweep_geometry(f, grid, seed=11)
    m, n = f.domain.dim, f.target.dim
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theorem_gate, "PLANE_CHUNK", chunk)
        mp.setattr(draws, "PIECE_ROWS", piece)
        if rows:
            mp.setattr(extrinsic, "BLOCK_BUDGET", rows * (m ** 4 + n ** 4))
        got = sweep_geometry(f, grid, seed=11)
    for column in GridSweep._fields:
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column


# ---------------------------------------------------------------------------
# The extremum probe reads its row through the same partition
# ---------------------------------------------------------------------------

def test_extremum_probe_finds_its_row_across_blocks(monkeypatch):
    sc = get("holo-w2")
    grid = sc.grid_points((9, 9))
    want = extremum_derivative_probe(sc.f, grid, sc.sample_box)
    assert len(block_bounds(len(grid), 2, 2)) == 2      # one block

    read = []

    class RecordingPointData(identities.PointData):
        def __init__(self, blk, rows):
            super().__init__(blk, rows)
            read.append(self)

    monkeypatch.setattr(identities, "PointData", RecordingPointData)
    monkeypatch.setattr(extrinsic, "BLOCK_BUDGET", 8 * 32)     # 8 rows
    got = extremum_derivative_probe(sc.f, grid, sc.sample_box)

    # the probe's first row is the maximum's, read past the first block
    idx = int(np.flatnonzero((grid == got.point).all(axis=1))[0])
    assert idx >= block_bounds(len(grid), 2, 2)[1]
    assert np.array_equal(read[0].coords, grid[idx][None])
    for field in ("point", "c", "grad_norm", "lap_value", "grad_tol", "lap_tol"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert (got.status, got.reason) == (want.status, want.reason) == ("pass", "")


@pytest.mark.parametrize("m,rows", [(2, None), (3, None), (2, 8), (3, 5)])
def test_extremum_probe_reads_the_bits_of_its_full_grid_block(monkeypatch, m, rows):
    # the probe reads the maximum's row from a block of two rows; rebuilding
    # the whole grid block that holds it, and reading the row in its place
    # there, gives the same result on a non-diagonal chart
    rng = np.random.default_rng(4)
    f = quadratic_map(rng, polynomial_chart(rng, m, 0.05), polynomial_chart(rng, m, 0.05))
    box = np.tile([-1.0, 1.0], (m, 1))
    grid = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 7 if m == 2 else 5)] * m,
                                indexing="ij"), axis=-1).reshape(-1, m)
    if rows:
        monkeypatch.setattr(extrinsic, "BLOCK_BUDGET", rows * (2 * m ** 4))
    got = extremum_derivative_probe(f, grid, box, minimal_tol=np.inf)
    assert got.status == "pass"

    bounds = block_bounds(len(grid), m, m)
    full = {}

    def graph_block(f, coords):
        if len(coords) != 2:                # a stencil or probe block
            return extrinsic.graph_block(f, coords)
        idx = int(np.flatnonzero((grid == coords[0]).all(axis=1))[0])
        k = np.searchsorted(bounds, idx, side="right") - 1
        full["blk"] = extrinsic.graph_block(f, grid[bounds[k]:bounds[k + 1]])
        full["row"] = idx - bounds[k]
        return full["blk"]

    class AtItsRow(identities.PointData):
        def __init__(self, blk, rows):
            if blk is full.get("blk"):
                rows = [full["row"]]
            super().__init__(blk, rows)

    monkeypatch.setattr(identities, "graph_block", graph_block)
    monkeypatch.setattr(identities, "PointData", AtItsRow)
    want = extremum_derivative_probe(f, grid, box, minimal_tol=np.inf)
    assert len(full["blk"].coords) > 2
    for field in ("point", "c", "grad_norm", "lap_value", "grad_tol", "lap_tol"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert (got.status, got.reason) == (want.status, want.reason)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,shape", [("holo-w2", (60, 60)),
                                        ("identity-s3", (12, 12, 12)),
                                        ("proj-s3-s1", (12, 12, 12))])
def test_multi_block_sweep_memory_is_bounded_by_the_budget(name, shape):
    sc = get(name)
    grid = sc.grid_points(shape)
    assert len(block_bounds(len(grid), sc.domain.dim, sc.target.dim)) > 3
    sweep_geometry(sc.f, grid[:2], seed=1)      # one-time allocations
    tracemalloc.start()
    try:
        sweep = sweep_geometry(sc.f, grid, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # besides its columns the sweep holds one block and that block's planes:
    # 8-12 times the element budget's bytes here.  This bound still allows
    # a second copy of the columns and every point's planes, as the sweep
    # held them when it joined the blocks' columns; the test below bounds
    # the growth with the grid
    columns = sum(getattr(sweep, c).nbytes for c in GridSweep._fields)
    samples = len(grid) * 4 * 2 * sc.domain.dim * 8
    assert peak - 2 * columns - samples < 12 * extrinsic.BLOCK_BUDGET * 8, peak


@pytest.mark.parametrize("name,shape", [("holo-w2", (60, 60)),
                                        ("identity-s3", (12, 12, 12))])
def test_extremum_probe_memory_is_bounded_by_the_budget(name, shape):
    sc = get(name)
    grid = sc.grid_points(shape)
    m = sc.domain.dim
    assert len(block_bounds(len(grid), m, sc.target.dim)) > 3
    extremum_derivative_probe(sc.f, grid[:9], sc.sample_box)   # one-time allocations
    tracemalloc.start()
    try:
        extremum_derivative_probe(sc.f, grid, sc.sample_box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the probe keeps s, g and the top eigenvalue per point; besides them it
    # holds one block at a time: 5-8 times the budget's bytes here, where
    # holding every block read 27 and 39
    columns = len(grid) * (2 * m * m + 1) * 8
    assert peak - columns < 12 * extrinsic.BLOCK_BUDGET * 8, peak


def sweep_excess(sc, shape):
    """The traced peak of a sweep over ``shape`` less its columns' bytes."""
    grid = sc.grid_points(shape)
    tracemalloc.start()
    try:
        sweep = sweep_geometry(sc.f, grid, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(getattr(sweep, c).nbytes for c in GridSweep._fields)


def test_sweep_memory_besides_its_columns_does_not_grow_with_the_grid():
    # the sweep draws each block's planes and writes its rows into columns
    # allocated once: ~3.1 MB at both sizes, where drawing every point's
    # planes up front and joining the blocks' columns read 4.0 and 11.6 MB
    sc = get("holo-w2")
    sweep_geometry(sc.f, sc.grid_points((2, 2)), seed=1)     # one-time allocations
    small, large = sweep_excess(sc, (100, 100)), sweep_excess(sc, (200, 200))
    assert large <= 1.25 * small, (small, large)
