"""The draws equal ``numpy.random`` bit for bit.

``graphgeo.draws.Stream`` computes numpy's PCG64, uniform and Lemire draws
itself, and ``graphgeo.draws.spawned_normals`` its ziggurat on spawned child
streams, so that no command loads ``numpy.random``; these tests compare them
with numpy's own generators, which only the tests import.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgeo.cli import main
from graphgeo.draws import Stream, spawned_normals
from graphgeo.scenarios import get, registry

SRC = Path(__file__).resolve().parents[1] / "src"

# numpy refuses high < low, and a range of -0.0
bounds = st.floats(-1e3, 1e3, allow_nan=False)
widths = st.floats(0.0, 1e3)
arrays = st.integers(0, 4).flatmap(lambda n: st.tuples(
    *[st.lists(floats, min_size=n, max_size=n).map(np.array) for floats in (bounds, widths)]))
calls = st.one_of(
    st.tuples(st.just("uniform"), bounds, widths),
    arrays.map(lambda lo_width: ("uniform", *lo_width)),
    st.tuples(st.just("uniform"), bounds, arrays.map(lambda lo_width: lo_width[1])),
    st.tuples(st.just("integers"), st.integers(-5, 5),
              st.sampled_from([1, 2, 3, 12, 1000, 2 ** 31 + 7, 2 ** 32 - 1])))


def call(rng, name, low, width):
    """``rng.uniform(low, low + width)`` or ``rng.integers(low, low + width)``."""
    return (rng.uniform if name == "uniform" else rng.integers)(low, low + width)


def uniforms(size: int) -> tuple:
    """A call of ``size`` uniforms in ``[0, 1)``."""
    return ("uniform", np.zeros(size), np.ones(size))


def assert_same(got, want):
    if isinstance(want, float):
        assert type(got) is float
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.astype(got.dtype).tobytes()


def assert_stream_equals_numpy(seed, sequence):
    ours, numpy_rng = Stream(seed), np.random.default_rng(seed)
    for name, *args in sequence:
        assert_same(call(ours, name, *args), call(numpy_rng, name, *args))
    # and the streams continue alike
    assert_same(call(ours, *uniforms(5)), call(numpy_rng, *uniforms(5)))
    assert ours.integers(0, 1000) == numpy_rng.integers(0, 1000)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 130), sequence=st.lists(calls, max_size=40))
@example(seed=0, sequence=[("integers", 0, 12), ("uniform", 0.05, 9.95), ("integers", 0, 3)])
@example(seed=7, sequence=[("uniform", 1.0, np.array([])), ("integers", 4, 1)])
# about half of these take Lemire's rejection step, some of them twice
@example(seed=1, sequence=[("integers", 0, 2 ** 31 + 7)] * 8)
# a long run of raws, then requests of several raws and carried halves
@example(seed=2 ** 40, sequence=[uniforms(126)] + [uniforms(5), ("integers", 0, 7)] * 5)
@example(seed=5, sequence=[uniforms(200), ("uniform", np.zeros(7), np.ones(7)),
                           ("integers", 0, 12), uniforms(3), ("integers", 0, 5),
                           ("uniform", -1.0, 2.0)] * 4)
def test_stream_equals_default_rng(seed, sequence):
    assert_stream_equals_numpy(seed, sequence)


# one entropy word, two, three and five (past SeedSequence's pool of four)
@pytest.mark.parametrize("seed", [0, 2 ** 32 + 1, 2 ** 64 + 3, 2 ** 128 + 1])
def test_stream_equals_default_rng_at_seeds_of_one_to_five_words(seed):
    lo, width = np.array([-1.0, 0.5, 2.0]), np.array([2.0, 0.25, 7.0])
    sequence = [("uniform", lo, width)] * 12 + [uniforms(1440)]
    sequence += [call for _ in range(15) for call in (
        ("integers", 0, 12), ("uniform", 0.05, 9.95), ("uniform", -2.0, 4.0),
        ("integers", 0, 3))]
    sequence += [uniforms(3)] * 48 + [uniforms(240)] * 6
    assert_stream_equals_numpy(seed, sequence)


def test_scalar_uniforms_equal_numpys_float64_arithmetic():
    # the scalar path computes low + (high - low) * u on Python floats
    rng = np.random.default_rng(17)
    lows = rng.uniform(-1e3, 1e3, size=20000).tolist()
    highs = (np.array(lows) + rng.uniform(0.0, 1e3, size=20000)).tolist()
    ours, numpy_rng = Stream(18), np.random.default_rng(18)
    for low, high in zip(lows, highs):
        assert_same(ours.uniform(low, high), numpy_rng.uniform(low, high))


@pytest.mark.parametrize("name", sorted(registry()))
@pytest.mark.parametrize("count", [0, 1, 12])
def test_random_points_equal_one_uniform_draw_per_point(name, count):
    # one (count, m) draw takes the raws of count draws of m, in turn
    sc = get(name)
    lo, hi = sc.sample_box[:, 0], sc.sample_box[:, 1]
    for make_rng in (Stream, np.random.default_rng):
        rng = make_rng(4)
        want = [rng.uniform(lo, hi) for _ in range(count)]
        got = sc.random_points(count, make_rng(4))
        assert len(got) == count
        for p, coords in zip(got, want):
            assert_same(p.coords, coords)


def test_spawned_normals_take_the_ziggurat_tail_and_wedges(monkeypatch):
    # a row whose candidate enters the layer-0 tail is walked one raw at a
    # time from there, wedges included: 10 tail attempts and 8 wedges here
    count, shape = 1024, (4, 2, 3)
    log1p, exp, tails, wedges = math.log1p, math.exp, [], []
    monkeypatch.setattr(math, "log1p", lambda v: tails.append(v) or log1p(v))
    monkeypatch.setattr(math, "exp", lambda v: wedges.append(v) or exp(v))
    got = spawned_normals(5, count, shape)(slice(0, count))
    monkeypatch.undo()
    assert len(tails) >= 2 * 10 and len(wedges) >= 8
    want = np.array([np.random.default_rng(child).standard_normal(size=shape)
                     for child in np.random.SeedSequence(5).spawn(count)])
    assert got.tobytes() == want.tobytes()


def counting_raws(monkeypatch) -> list:
    """Make every ``Stream`` record its raws in the list returned."""
    raw, drawn = Stream._raw, []

    def counted(self) -> int:
        drawn.append(raw(self))
        return drawn[-1]

    monkeypatch.setattr(Stream, "_raw", counted)
    return drawn


def test_integers_carry_the_upper_half_across_other_draws(monkeypatch):
    drawn = counting_raws(monkeypatch)
    ours, numpy_rng = Stream(11), np.random.default_rng(11)
    assert ours.integers(0, 12) == numpy_rng.integers(0, 12)
    assert_same(call(ours, *uniforms(4)), call(numpy_rng, *uniforms(4)))
    assert_same(ours.uniform(-3.0, 3.0), numpy_rng.uniform(-3.0, 3.0))
    pos = len(drawn)
    # the upper half of the first raw: no raw is drawn
    assert ours.integers(0, 12) == numpy_rng.integers(0, 12)
    assert len(drawn) == pos
    assert ours.integers(0, 12) == numpy_rng.integers(0, 12)
    assert len(drawn) == pos + 1


def test_integers_of_one_value_draw_nothing(monkeypatch):
    drawn = counting_raws(monkeypatch)
    ours, numpy_rng = Stream(3), np.random.default_rng(3)
    assert ours.integers(0, 5) == numpy_rng.integers(0, 5)     # leaves a half
    pos, half = len(drawn), ours._half
    assert ours.integers(4, 5) == numpy_rng.integers(4, 5) == 4
    assert (len(drawn), ours._half) == (pos, half)
    assert_same(call(ours, *uniforms(3)), call(numpy_rng, *uniforms(3)))
    assert ours.integers(0, 5) == numpy_rng.integers(0, 5)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError):
        Stream(-1)
    for command in ("verify-identities", "report", "check-theorem"):
        assert main([command, "--scenario", "holo-w2", "--seed", "-1",
                     "--output", os.devnull]) == 2


# the gate's planes read the tables; the identity suite draws no normals
@pytest.mark.parametrize("command, code", [("verify-identities", 0), ("report", 2),
                                           ("check-theorem", 2)],
                         ids=["verify-identities", "report", "check-theorem"])
def test_missing_ziggurat_tables_exit_2_with_one_line(command, code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys, graphgeo.cli, graphgeo.draws\n"
         "graphgeo.draws._ZIGGURAT_TABLES = sys.argv[2]\n"
         "sys.exit(graphgeo.cli.main([sys.argv[1], '--scenario', 'identity-s2',"
         " '--output', os.devnull]))",
         command, str(tmp_path / "ziggurat.bin")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    if code:
        assert proc.stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error: cannot read the ziggurat tables")
    else:
        assert len(proc.stdout.splitlines()) == 12
        assert not any("ziggurat" in line for line in lines)
