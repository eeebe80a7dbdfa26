"""The dichotomy's isometric branch over the rotations of S^2.

A rotation of the round sphere acts on the stereographic coordinate
``w = x + i y`` as the Möbius map ``w -> (a w + b) / (-conj(b) w + conj(a))``
with ``|a|^2 + |b|^2 = 1``, an isometry of ``4 |dw|^2 / (1 + |w|^2)^2``.
Unlike the registry's isometries, which are linear in the chart, its second
derivatives do not vanish: the graph is totally geodesic only because the
Christoffel terms cancel them.  The jets here are holomorphic, ``F' = D^-2``,
``F'' = 2 conj(b) D^-3`` and ``F''' = 6 conj(b)^2 D^-4`` with ``D = -conj(b) w
+ conj(a)``, and the real jets follow by Cauchy-Riemann, ``d^alpha F =
i^(#y) F^(k)``: no formula of graphgeo's jets is shared.
"""

import itertools

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graphgeo.chart_manifold import sphere_chart
from graphgeo.draws import Stream
from graphgeo.graph_map import MapJet, SmoothMap
from graphgeo.identities import run_identity_suite
from graphgeo.scenarios import get, jets_selftest
from graphgeo.theorem_gate import DEFAULT_TOLERANCES, classify, evaluate_hypotheses, sweep_geometry


def _real_jet(z, order: int):
    """The real jet ``(B, 2, 2, ..., 2)`` of order ``order`` whose complex
    derivative of that order is ``z`` (shape ``(B,)``): entry ``[:, c, j1,
    .., jk]`` is the real (c = 0) or imaginary (c = 1) part of ``i^(number
    of y axes) z``."""
    unit = np.empty((2,) * order, dtype=complex)
    for axes in itertools.product((0, 1), repeat=order):
        unit[axes] = (1, 1j, -1, -1j)[sum(axes)]
    c = z.reshape(-1, *(1,) * order) * unit
    return np.stack([c.real, c.imag], axis=1)


def mobius_rotation(a: complex, b: complex) -> SmoothMap:
    """The rotation ``w -> (a w + b) / (-conj(b) w + conj(a))`` of the unit
    2-sphere in its stereographic chart, ``(a, b)`` scaled to unit norm."""
    norm = np.hypot(abs(a), abs(b))
    a, b = complex(a) / norm, complex(b) / norm
    s2 = sphere_chart(2)

    def jet(xy):
        w = xy[:, 0] + 1j * xy[:, 1]
        inv = 1.0 / (-b.conjugate() * w + a.conjugate())
        value = (a * w + b) * inv
        return MapJet(np.stack([value.real, value.imag], axis=1),
                      _real_jet(inv ** 2, 1),
                      _real_jet(2.0 * b.conjugate() * inv ** 3, 2),
                      _real_jet(6.0 * b.conjugate() ** 2 * inv ** 4, 3))

    return SmoothMap(s2, s2, jet, "mobius")


def test_mobius_rotation_is_the_rotation_about_the_pole():
    # a = e^{i t/2}, b = 0 is w -> e^{i t} w, the registry's linear rotation
    t = 0.7
    x = np.array([[0.3, -0.4], [1.1, 0.2]])
    got = mobius_rotation(np.exp(0.5j * t), 0.0).jet_fn(x)
    c, s = np.cos(t), np.sin(t)
    q = np.array([[c, -s], [s, c]])
    assert np.allclose(got.value, x @ q.T, rtol=0, atol=1e-15)
    assert np.allclose(got.d1, q, rtol=0, atol=1e-15)
    assert not got.d2.any() and not got.d3.any()


# angles up to 1 rad keep the pole of the map, at |w| = cot(angle / 2) >= 1.83,
# outside every box drawn here
@settings(max_examples=40, deadline=None)
@given(angle=st.floats(0.05, 1.0), phase_a=st.floats(-np.pi, np.pi),
       phase_b=st.floats(-np.pi, np.pi), halfwidth=st.floats(0.2, 1.0),
       grid=st.integers(3, 7), seed=st.integers(0, 2 ** 16))
# at a step of 1e-4 this rotation's d2 truncation error, 1.05e-10, sits just
# above the exact floor, and rounding at the half step bends its ratio to 3.4
@example(angle=0.2736612373297583, phase_a=0.0, phase_b=0.5, halfwidth=0.25,
         grid=3, seed=119)
def test_every_rotation_is_an_isometric_totally_geodesic_graph(
        angle, phase_a, phase_b, halfwidth, grid, seed):
    a = np.cos(angle / 2) * np.exp(1j * phase_a)
    b = np.sin(angle / 2) * np.exp(1j * phase_b)
    sc = get("rotation-s2")._replace(name="mobius", f=mobius_rotation(a, b),
                                     sample_box=np.array([[-halfwidth, halfwidth]] * 2))
    # the image of the box, widened past the suite's stencils, stays in the chart
    edge = np.linspace(-halfwidth - 0.1, halfwidth + 0.1, 21)
    around = np.stack(np.meshgrid(edge, edge, indexing="ij"), axis=-1).reshape(-1, 2)
    jet = sc.f.jet_fn(around)
    assume(sc.target.contains(jet.value).all())
    assert np.abs(jet.d2).max() > 0.01        # the chart's Christoffels cancel d^2 f

    # the truncation error of F'' is about h^2 |F''''| / 6 with |F''''| = 24 |b|^3 |D|^-5:
    # a step of 1e-3 keeps it far above the rounding of the half step, eps / h
    bad = [c for c in jets_selftest(sc, h=1e-3, points=sc.random_points(3, Stream(seed)))
           if not c.ok]
    assert not bad, [(c.label, c.disc_h, c.ratio) for c in bad]

    sweep = sweep_geometry(sc.f, sc.grid_points((grid, grid)), seed=seed)
    bound = DEFAULT_TOLERANCES["classify_isometric"]
    assert np.max(np.abs(sweep.lambdas - 1.0)) < bound
    assert np.sqrt(np.max(sweep.a_norm_sq)) < bound

    failed = [r.line() for r in run_identity_suite(sc, seed=seed)
              if not r.skipped and not r.passed]
    assert not failed


def scaled(f: SmoothMap, t: float) -> SmoothMap:
    """The map ``w -> t f(w)``: every jet of ``f`` scaled by ``t``."""
    def jet(xy):
        j = f.jet_fn(xy)
        return MapJet(t * j.value, t * j.d1, t * j.d2, t * j.d3)

    return SmoothMap(f.domain, f.target, jet, f"{t}*{f.name}")


# w -> t R(w) is conformal with stretch t (1 + |R|^2) / (1 + t^2 |R|^2), which
# is one only on the circle |R(w)|^2 = 1/t: not an isometry for t != 1
@settings(max_examples=40, deadline=None)
@given(angle=st.floats(0.05, 1.0), phase_a=st.floats(-np.pi, np.pi),
       phase_b=st.floats(-np.pi, np.pi), halfwidth=st.floats(0.2, 1.0),
       grid=st.integers(3, 7), seed=st.integers(0, 2 ** 16),
       t=st.one_of(st.floats(0.5, 0.95), st.floats(1.05, 2.0)))
def test_a_scaled_rotation_is_never_an_isometric_immersion(
        angle, phase_a, phase_b, halfwidth, grid, seed, t):
    a = np.cos(angle / 2) * np.exp(1j * phase_a)
    b = np.sin(angle / 2) * np.exp(1j * phase_b)
    sc = get("rotation-s2")._replace(name="scaled-mobius", f=scaled(mobius_rotation(a, b), t),
                                     sample_box=np.array([[-halfwidth, halfwidth]] * 2))
    points = sc.grid_points((grid, grid))
    assume(sc.target.contains(sc.f.jet_fn(points).value).all())

    sweep = sweep_geometry(sc.f, points, seed=seed)
    verdict = classify(sweep, evaluate_hypotheses(sweep, sc.sigma)).verdict
    assert verdict != "totally-geodesic-isometric-immersion"
