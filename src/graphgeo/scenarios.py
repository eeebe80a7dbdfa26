"""Built-in (domain, target, map) scenarios with exact jets.

Every scenario declares the properties it is expected to have; the test
suite re-verifies each declaration numerically, and properties listed as
``None`` are measured rather than asserted.
"""

import functools
from typing import NamedTuple

import numpy as np

from .chart_manifold import (ChartManifold, ChartPoint, constant_metric_chart,
                             matvec, powers, sphere_chart)
from .draws import Stream
from .errors import UnknownScenarioError
from .graph_map import MapJet, SmoothMap

Array = np.ndarray


class ExpectedProperties(NamedTuple):
    """Declared behavior of a scenario; ``None`` means measured only."""

    minimal: bool | None
    totally_geodesic: bool | None
    lambda_field: str
    isometric: bool = False


class Scenario(NamedTuple):
    name: str
    f: SmoothMap
    expected: ExpectedProperties
    sample_box: Array
    grid_shape: tuple[int, ...]
    sigma: float

    @property
    def domain(self) -> ChartManifold:
        return self.f.domain

    @property
    def target(self) -> ChartManifold:
        return self.f.target

    def grid_points(self, shape: tuple[int, ...] | None = None) -> Array:
        """Deterministic rectangular grid over the sample box: an ``(N, m)``
        array of chart coordinates, the last axis varying fastest.  Another
        box: ``sc._replace(sample_box=box).grid_points(shape)``."""
        shape, box = shape or self.grid_shape, self.sample_box
        axes = [np.linspace(box[i, 0], box[i, 1], shape[i])
                for i in range(self.domain.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"),
                        axis=-1).reshape(-1, self.domain.dim)

    def random_points(self, count: int, rng: Stream) -> list[ChartPoint]:
        """``count`` uniform points of the sample box, drawn as one
        ``(count, m)`` ``rng.uniform``: point by point, axis by axis."""
        lo, hi = self.sample_box[:, 0], self.sample_box[:, 1]
        coords = rng.uniform(np.broadcast_to(lo, (count, len(lo))), hi)
        return [self.domain.point(x) for x in coords]


# ---------------------------------------------------------------------------
# Map builders
# ---------------------------------------------------------------------------

def constant_map(domain: ChartManifold, target: ChartManifold,
                 value, name: str = "constant") -> SmoothMap:
    value = np.asarray(value, dtype=float)
    m, n = domain.dim, target.dim

    def jet(x: Array) -> MapJet:
        b = len(x)
        return MapJet(np.repeat(value[None], b, axis=0), np.zeros((b, n, m)),
                      np.zeros((b, n, m, m)), np.zeros((b, n, m, m, m)))

    return SmoothMap(domain, target, jet, name)


def linear_map(domain: ChartManifold, target: ChartManifold, matrix,
               name: str = "linear") -> SmoothMap:
    Q = np.asarray(matrix, dtype=float)
    m, n = domain.dim, target.dim
    if Q.shape != (n, m):
        raise ValueError(f"matrix must have shape ({n}, {m})")

    def jet(x: Array) -> MapJet:
        rows = len(x)
        return MapJet(matvec(Q, x), np.repeat(Q[None], rows, axis=0),
                      np.zeros((rows, n, m, m)), np.zeros((rows, n, m, m, m)))

    return SmoothMap(domain, target, jet, name)


def complex_power_map(domain: ChartManifold, target: ChartManifold,
                      k: int, scale: float = 1.0,
                      name: str | None = None) -> SmoothMap:
    """The plane map ``w -> scale * w^k`` in real coordinates, exact jets.

    On stereographic sphere charts this is a holomorphic map of the sphere.
    Supported powers: 1, 2, 3 (hand-derived polynomial jets).
    """
    if domain.dim != 2 or target.dim != 2:
        raise ValueError("complex power maps are two-dimensional")
    if k not in (1, 2, 3):
        raise ValueError("only powers 1, 2, 3 are implemented")
    t = float(scale)

    def stacked(entries) -> Array:
        """``t`` times nested lists of per-row entries, block axis first, C order."""
        return t * np.ascontiguousarray(np.moveaxis(np.array(entries), -1, 0))

    def jet(xy: Array) -> MapJet:
        x, y = xy[:, 0], xy[:, 1]
        one, zero = np.ones_like(x), np.zeros_like(x)
        d3 = np.zeros((len(xy), 2, 2, 2, 2))
        if k == 1:
            val = [x, y]
            d1 = [[one, zero], [zero, one]]
            d2 = [[[zero, zero], [zero, zero]]] * 2
        elif k == 2:
            val = [x * x - y * y, 2.0 * x * y]
            d1 = [[2 * x, -2 * y], [2 * y, 2 * x]]
            d2 = [[[2.0 * one, zero], [zero, -2.0 * one]],
                  [[zero, 2.0 * one], [2.0 * one, zero]]]
        else:
            x3, y3 = powers(x, 3), powers(y, 3)
            val = [x3 - 3 * x * y * y, 3 * x * x * y - y3]
            d1 = [[3 * x * x - 3 * y * y, -6 * x * y],
                  [6 * x * y, 3 * x * x - 3 * y * y]]
            d2 = [[[6 * x, -6 * y], [-6 * y, -6 * x]],
                  [[6 * y, 6 * x], [6 * x, -6 * y]]]
            # f^1 = x^3 - 3xy^2: xxx = 6, xyy/yxy/yyx = -6
            d3[:, 0, 0, 0, 0] = 6.0
            d3[:, 0, 0, 1, 1] = d3[:, 0, 1, 0, 1] = d3[:, 0, 1, 1, 0] = -6.0
            # f^2 = 3x^2y - y^3: xxy perms = 6, yyy = -6
            d3[:, 1, 0, 0, 1] = d3[:, 1, 0, 1, 0] = d3[:, 1, 1, 0, 0] = 6.0
            d3[:, 1, 1, 1, 1] = -6.0
        return MapJet(stacked(val), stacked(d1), stacked(d2), t * d3)

    return SmoothMap(domain, target, jet, name or f"w^{k}" + (f"*{t:g}" if t != 1.0 else ""))


def rotation_matrix_2d(angle: float) -> Array:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _box(halfwidth: float, dim: int) -> Array:
    box = np.array([[-halfwidth, halfwidth]] * dim)
    box.flags.writeable = False       # shared by every use of the scenario
    return box


def registry() -> dict[str, Scenario]:
    """All built-in scenarios, keyed by name: a new dict of the scenarios
    built once per process."""
    return dict(_built())


@functools.cache
def _built() -> dict[str, Scenario]:
    s2, s3 = sphere_chart(2, 1.0), sphere_chart(3, 1.0)
    s2_half, s2_double = sphere_chart(2, 0.5), sphere_chart(2, 2.0)
    torus = constant_metric_chart(2, name="T2")
    circle = constant_metric_chart(1, name="S1")
    # name, map, half-width of the sample box, declared properties; every
    # scenario pinches at sigma = 1 and samples a 20x20 or 6x6x6 grid
    table = [
        ("constant-s2", constant_map(s2, s2, [0.3, -0.2], name="const"), 1.2,
         ExpectedProperties(minimal=True, totally_geodesic=True, lambda_field="all zero")),
        ("constant-s3", constant_map(s3, s2_double, [0.2, 0.1], name="const"), 1.0,
         ExpectedProperties(minimal=True, totally_geodesic=True, lambda_field="all zero")),
        ("identity-s2", linear_map(s2, s2, np.eye(2), name="id"), 1.2,
         ExpectedProperties(minimal=True, totally_geodesic=True, lambda_field="all one",
                            isometric=True)),
        ("identity-s3", linear_map(s3, s3, np.eye(3), name="id"), 1.0,
         ExpectedProperties(minimal=True, totally_geodesic=True, lambda_field="all one",
                            isometric=True)),
        ("rotation-s2", linear_map(s2, s2, rotation_matrix_2d(np.pi / 5), name="rot"), 1.2,
         ExpectedProperties(minimal=True, totally_geodesic=True, lambda_field="all one",
                            isometric=True)),
        ("holo-w2", complex_power_map(s2, s2, 2), 1.2,
         ExpectedProperties(minimal=True, totally_geodesic=False,
                            lambda_field="conformal, 2|w|(1+|w|^2)/(1+|w|^4)")),
        ("holo-w3", complex_power_map(s2, s2, 3), 1.1,
         ExpectedProperties(minimal=True, totally_geodesic=False,
                            lambda_field="conformal, 3|w|^2(1+|w|^2)/(1+|w|^6)")),
        ("conformal-shrink", complex_power_map(s2, s2, 1, scale=0.5, name="w/2"), 1.8,
         ExpectedProperties(minimal=True, totally_geodesic=False,
                            lambda_field="conformal, <1 for |w|^2<2, >1 past it")),
        ("torus-linear", linear_map(torus, torus, [[2.0, 1.0], [1.0, 1.0]], name="Qx"), 2.0,
         ExpectedProperties(minimal=True, totally_geodesic=True,
                            lambda_field="constant, det-1 pair")),
        ("proj-s3-s1", linear_map(s3, circle, [[0.4, 0.0, 0.0]], name="0.4*x1"), 1.0,
         ExpectedProperties(minimal=False, totally_geodesic=False, lambda_field="rank one")),
        ("scaled-sphere-0.5", linear_map(s2, s2_half, 0.5 * np.eye(2), name="0.5x"), 1.2,
         ExpectedProperties(minimal=None, totally_geodesic=None, lambda_field="constant 0.5")),
        ("scaled-sphere-2.0", linear_map(s2, s2_double, 2.0 * np.eye(2), name="2x"), 1.2,
         ExpectedProperties(minimal=None, totally_geodesic=None, lambda_field="constant 2")),
    ]
    return {name: Scenario(name, f, expected, _box(half, f.domain.dim),
                           (20, 20) if f.domain.dim == 2 else (6, 6, 6), 1.0)
            for name, f, half, expected in table}


def get(name: str) -> Scenario:
    reg = _built()
    if name not in reg:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(reg))}")
    return reg[name]


# ---------------------------------------------------------------------------
# Jet self-test
# ---------------------------------------------------------------------------

class JetCheck(NamedTuple):
    label: str
    disc_h: float
    disc_half: float

    # Below this the discrepancy is cancellation noise, not truncation error,
    # and no h-convergence can be observed (zero or polynomial jets).
    EXACT_FLOOR = 1e-10

    @property
    def exact(self) -> bool:
        return self.disc_h < self.EXACT_FLOOR

    @property
    def ratio(self) -> float:
        return self.disc_h / self.disc_half if self.disc_half > 0 else np.inf

    @property
    def ok(self) -> bool:
        return self.exact or 3.5 <= self.ratio <= 4.5


def _fd_gaps(evaluate, fields, x: Array, step: float) -> dict[str, Array]:
    """Per field ``(name, lower, exact)`` and row of ``x``: the worst gap of
    the exact jet to central differences of ``lower``, from one evaluator
    call on the ``2 dim`` points ``x + step e_k``, ``x - step e_k`` of every row."""
    rows, dim = x.shape
    shift = step * np.eye(dim)
    shifted = evaluate(np.concatenate([x[:, None] + shift, x[:, None] - shift],
                                      axis=1).reshape(-1, dim))
    exact = evaluate(x)
    gaps = {}
    for name, lower, upper in fields:
        vals = lower(shifted).reshape(rows, 2, dim, -1)
        fd = (vals[:, 0] - vals[:, 1]) / (2.0 * step)
        gaps[name] = np.abs(fd - upper(exact).reshape(fd.shape)).max(axis=(1, 2))
    return gaps


_MAP_FIELDS = [
    ("d1", lambda j: j.value, lambda j: np.swapaxes(j.d1, 1, 2)),
    ("d2", lambda j: j.d1, lambda j: np.moveaxis(j.d2, 2, 1)),
    ("d3", lambda j: j.d2, lambda j: np.moveaxis(j.d3, 2, 1)),
]
_METRIC_FIELDS = [
    ("d1", lambda j: j.g, lambda j: j.dg),
    ("d2", lambda j: j.dg, lambda j: j.d2g),
]


def jets_selftest(scenario: Scenario, h: float = 1e-4,
                  points: list[ChartPoint] | None = None) -> list[JetCheck]:
    """Check every exact jet against central differences of the order below.

    Each discrepancy must either vanish (exactly-zero jets) or shrink by a
    factor of about four when the step is halved.
    """
    f = scenario.f
    if points is None:
        points = scenario.random_points(3, Stream(7))
    x = np.array([p.coords for p in points])
    img = f.jet_fn(x).value
    groups = [("f", x, f.jet_fn, _MAP_FIELDS),
              ("gM", x, f.domain.metric_jet, _METRIC_FIELDS),
              ("gN", img, f.target.metric_jet, _METRIC_FIELDS)]
    gaps = [[_fd_gaps(evaluate, fields, at, step) for step in (h, h / 2.0)]
            for _, at, evaluate, fields in groups]
    return [JetCheck(f"{label}:{name}@{np.round(at[i], 3)}",
                     float(full[name][i]), float(half[name][i]))
            for i in range(len(x))
            for (label, at, _, fields), (full, half) in zip(groups, gaps)
            for name, _, _ in fields]
