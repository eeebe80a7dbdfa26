"""Per-layer spans around graphgeo's public functions, applied from outside.

The tracer changes no file of the package.  For every layer it looks up the
layer's target functions and replaces each one with a timing wrapper: a
module-level function in every graphgeo module namespace that holds it (so
``identities.sym_eigen`` and ``chart_manifold.sym_eigen`` are both covered),
a method on its class.  ``uninstall`` puts every original back.  A target
that no longer exists is reported as absent and its layer counts zero calls,
so refactors that rename or delete functions do not break the benchmark.

Spans form a stack.  A layer's self time is its span time minus the time of
the spans it encloses; a call that re-enters the layer already on top of the
stack (recursion, or one curvature function calling another) is folded into
the enclosing span, so ``calls`` counts entries into the layer.  The
benchmark runs the program single-threaded, which the stack relies on.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Layer:
    name: str                   # "<module>.<layer>"
    targets: tuple[str, ...]    # "module:function" or "module:Class.method"
    moves: str                  # end-to-end metric it should move, on which workload
    needed_per_point: int = 0   # >0: report per_pt and useful_frac for the sweep
    count_bytes: bool = False   # add up the length of returned strings

    @property
    def stats(self) -> tuple[str, ...]:
        stats = ["calls", "self_s", "errors"]
        if self.needed_per_point:
            stats += ["per_pt", "useful_frac"]
        if self.count_bytes:
            stats.append("bytes")
        return tuple(stats)


GRID = "points_per_s on report-holo-2d and gate-sphere-3d"
SUITE = ("run_s on identities-registry and ~2% of report-holo-2d; "
         "flat on gate-sphere-3d")

LAYERS: tuple[Layer, ...] = (
    Layer("chart_manifold.metric_jet", ("chart_manifold:ChartManifold.jet",),
          GRID + " (16 metric jets per sweep point where 2 are needed)",
          needed_per_point=2),
    Layer("chart_manifold.contains", ("chart_manifold:ChartManifold.contains",),
          GRID + " (~17% of sweep time under cProfile)"),
    Layer("chart_manifold.curvature",
          ("chart_manifold:christoffel_from_jet",
           "chart_manifold:christoffel_derivative_from_jet",
           "chart_manifold:riemann_from_jet", "chart_manifold:ricci_from_jet",
           "chart_manifold:christoffel_at", "chart_manifold:riemann_at",
           "chart_manifold:ricci_at"),
          GRID + ", most on gate-sphere-3d (3x3 blocks)"),
    Layer("chart_manifold.sym_eigen", ("chart_manifold:sym_eigen",),
          GRID + ", most on gate-sphere-3d (3x3 Jacobi); run_s on "
          "identities-registry through the extremum probe"),
    Layer("chart_manifold.sectional",
          ("chart_manifold:sectional_from_data",
           "chart_manifold:sectional_curvature"),
          GRID + ", most on gate-sphere-3d; errors are DegeneratePlaneError "
          "retries"),
    Layer("graph_map.map_jet", ("graph_map:SmoothMap.jet",),
          GRID + " (7 map jets per sweep point where 1 is needed)",
          needed_per_point=1),
    Layer("graph_map.pullback",
          ("graph_map:pullback_metric_at", "graph_map:pullback_metric_jet"),
          GRID),
    Layer("graph_map.induced_jet", ("graph_map:induced_metric_jet",),
          GRID + " (3 induced jets per sweep point where 1 is needed)",
          needed_per_point=1),
    Layer("graph_map.svd", ("graph_map:singular_values_at",), GRID),
    Layer("graph_map.frames", ("graph_map:adapted_frames_at",), GRID),
    Layer("graph_map.frame_selfcheck", ("graph_map:frame_formula_residual",),
          GRID + " (the self-check costs more than the frames it checks)"),
    Layer("product_space.blocks",
          ("product_space:ProductSpace.metric_matrix",
           "product_space:ProductSpace.s_matrix"),
          GRID),
    Layer("extrinsic.sff", ("extrinsic:second_fundamental_at",), GRID),
    Layer("identities.point_data", ("identities:PointData.__init__",),
          SUITE + " (calls count sweep points, stencil and probe evaluations)"),
    Layer("identities.fd_laplacian",
          ("identities:rough_laplacian_fd", "identities:scalar_laplacian_fd"),
          SUITE),
    Layer("identities.extremum_probe",
          ("identities:extremum_derivative_probe",), SUITE),
    Layer("identities.null_probe", ("identities:null_eigenvector_probe",), SUITE),
    Layer("identities.normal_estimate", ("identities:normal_estimate_check",),
          SUITE),
    Layer("identities.elliptic", ("identities:elliptic_equation_residual",),
          SUITE),
    Layer("identities.log_jacobian", ("identities:log_jacobian_residual_2d",),
          SUITE),
    Layer("identities.suite", ("identities:run_identity_suite",), SUITE),
    Layer("theorem_gate.sweep", ("theorem_gate:sweep_geometry",), GRID),
    Layer("theorem_gate.hypotheses", ("theorem_gate:evaluate_hypotheses",), GRID),
    Layer("theorem_gate.classify", ("theorem_gate:classify",),
          GRID + "; includes the conclusion re-check, which only "
          "gate-sphere-3d reaches"),
    Layer("reporting.serialize",
          ("reporting:canonical_json", "reporting:report_to_csv"),
          "run_s on report-holo-2d only", count_bytes=True),
    Layer("cli.config", ("cli:_build_parser", "cli:_load_config"),
          "setup_s on all workloads"),
    Layer("scenarios.registry", ("scenarios:registry",),
          "setup_s on all workloads"),
)

PACKAGE = "graphgeo"

#: Calls made while this layer is active count toward ``per_pt``.
SWEEP_LAYER = "theorem_gate.sweep"


@dataclass
class LayerStats:
    calls: int = 0
    sweep_calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    nbytes: int = 0
    active: int = 0


class Tracer:
    """Wraps the layer targets in graphgeo; use ``install``/``uninstall``."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS):
        self.layers = layers
        self.stats = {layer.name: LayerStats() for layer in layers}
        self.root = LayerStats()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _modules(self) -> list:
        pkg = importlib.import_module(PACKAGE)
        return [pkg] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                        for info in pkgutil.iter_modules(pkg.__path__)]

    def _replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        for layer in self.layers:
            for target in layer.targets:
                modname, _, path = target.partition(":")
                owner = by_name.get(f"{PACKAGE}.{modname}")
                attr = path
                if owner is not None and "." in path:
                    clsname, attr = path.split(".", 1)
                    owner = owner.__dict__.get(clsname)
                original = owner.__dict__.get(attr) if owner is not None else None
                if not callable(original):
                    self.absent.append(target)
                    continue
                wrapper = self._wrap(layer, original)
                if "." in path:
                    self._replace(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- spans ------------------------------------------------------------

    def _enter(self, st: LayerStats) -> list:
        frame = [st, 0.0, perf_counter()]
        self._stack.append(frame)
        st.calls += 1
        if self.stats[SWEEP_LAYER].active:
            st.sweep_calls += 1
        st.active += 1
        return frame

    def _exit(self, frame: list) -> None:
        st, child_s, t0 = frame
        dt = perf_counter() - t0
        st.active -= 1
        self._stack.pop()
        st.self_s += dt - child_s
        if self._stack:
            self._stack[-1][1] += dt

    def _wrap(self, layer: Layer, fn):
        st = self.stats[layer.name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] is st:
                return fn(*args, **kwargs)
            frame = self._enter(st)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                st.errors += 1
                raise
            finally:
                self._exit(frame)
            if layer.count_bytes and isinstance(out, str):
                st.nbytes += len(out)
            return out

        return traced

    @contextmanager
    def span_root(self):
        """Span around one CLI call; its self time is the untraced remainder."""
        frame = self._enter(self.root)
        try:
            yield
        finally:
            self._exit(frame)

    # -- results ----------------------------------------------------------

    def total_self_s(self) -> float:
        """Self time of every span so far; equals the time spent in spans."""
        return self.root.self_s + sum(st.self_s for st in self.stats.values())

    def counts(self) -> dict[str, dict]:
        """Raw per-layer statistics, JSON-ready."""
        out = {name: {"calls": st.calls, "sweep_calls": st.sweep_calls,
                      "errors": st.errors, "self_s": st.self_s,
                      "bytes": st.nbytes}
               for name, st in self.stats.items()}
        out["root"] = {"calls": self.root.calls, "self_s": self.root.self_s}
        return out
