"""Command-line front end.

Commands:

* ``list``               scenario catalog with expected properties
* ``report``             full geometry sweep + identities + gate, to file
* ``verify-identities``  identity suite; exit 0 iff every applicable check passes
* ``check-theorem``      hypothesis gate and dichotomy classification

Exit codes: 0 success (for ``check-theorem``: a dichotomy verdict), 1 failed
checks or a violated hypothesis gate, 2 unknown scenario, bad
configuration (a non-positive ``--sigma`` or ``--kappa-margin``, a
``--kappa-margin`` too small to move ``1 + margin`` off 1, or one whose
``kappa^4`` overflows, a ``--sigma`` whose condition-4 bound overflows, an
``--h`` whose square underflows, and a null ``h``, ``c`` or
``kappa_margin`` in a config file, among it),
an ``--output`` or a stdout that cannot be written (every command, ``list``
included), out of memory or a missing ``ziggurat.bin``, 3 out-of-chart
sampling, 4 indeterminate classification.  Every non-zero exit prints one
``error:`` line to stderr.

``--sigma`` and the config ``box`` replace the scenario's pinching level
and sample box once, for the gate and the identity suite alike.

All report output is deterministic for a fixed (config, seed): wall-clock
timing goes to stderr and the ``runtime_seconds`` field of the artifact is
serialized as null.
"""

import argparse
import functools
import json
import math
import os
import sys
import time
from collections.abc import Mapping
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import scenarios as scen
from .draws import MAX_GRID_POINTS
from .errors import GraphGeoError, OutOfChartError, UnknownScenarioError
from .reporting import Table, canonical_json, report_to_csv
from .theorem_gate import (
    DEFAULT_TOLERANCES,
    GridSweep,
    classify,
    evaluate_hypotheses,
    sweep_geometry,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_OUT_OF_CHART = 3
EXIT_INDETERMINATE = 4


class RunConfig(NamedTuple):
    scenario: str | None = None
    grid: tuple[int, ...] | None = None
    box: list | None = None
    seed: int = 0
    h: float = 1e-3
    c: float = 2.0
    sigma: float | None = None
    kappa_margin: float = 0.01
    tolerances: Mapping[str, float] = MappingProxyType({})   # read-only
    output: str | None = None
    format: str = "json"
    threads: int = 1
    match: str | None = None

    def validate(self) -> None:
        for name in ("scenario", "output", "format", "match"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if not (_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (_integer(self.threads) and self.threads >= 1):
            raise ValueError(f"threads must be an integer of at least 1, got {self.threads!r}")
        if self.grid is not None and not (
                isinstance(self.grid, (list, tuple)) and self.grid
                and all(_integer(r) and r >= 2 for r in self.grid)):
            raise ValueError("grid resolution must be at least 2 per axis")
        # refused before the grid is built
        if self.grid is not None and math.prod(self.grid) >= MAX_GRID_POINTS:
            raise ValueError(f"grid has {math.prod(self.grid)} points, "
                             f"more than the {MAX_GRID_POINTS - 1} supported")
        if self.box is not None and not (
                isinstance(self.box, list) and self.box and all(
                    isinstance(b, list) and len(b) == 2
                    and all(_finite_number(v) for v in b) and b[0] < b[1]
                    for b in self.box)):
            raise ValueError("box must be a list of [low, high] pairs with low < high")
        for name in ("h", "c", "sigma", "kappa_margin"):
            value = getattr(self, name)     # a null sigma is the scenario's
            if not (_finite_number(value) or name == "sigma" and value is None):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.h <= 0.0:
            raise ValueError("finite-difference step must be positive")
        if self.h * self.h < sys.float_info.min:
            raise ValueError(f"finite-difference step {self.h!r} is too small: h * h underflows")
        if self.c <= 0.0:
            raise ValueError("shift parameter c must be positive")
        if self.sigma is not None and self.sigma <= 0.0:
            raise ValueError(f"pinching level sigma must be positive, got {self.sigma!r}")
        if self.kappa_margin <= 0.0:
            raise ValueError(f"kappa margin must be positive, got {self.kappa_margin!r}")
        if 1.0 + self.kappa_margin == 1.0:
            raise ValueError(f"kappa margin {self.kappa_margin!r} is too small:"
                             " 1 + margin rounds to 1")
        if not isinstance(self.tolerances, Mapping):
            raise ValueError("tolerances must be a mapping of names to values")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:     # the identity suite is imported only to look these up
            from .identities import DEFAULT_IDENTITY_TOLERANCES
            unknown = [name for name in unknown if name not in DEFAULT_IDENTITY_TOLERANCES]
        if unknown:
            raise ValueError(f"unknown tolerance names: {', '.join(map(repr, unknown))}")
        if not all(_finite_number(v) and v > 0.0 for v in self.tolerances.values()):
            raise ValueError("tolerances must be positive finite numbers")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int beyond the float range
        return False


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid syntax {text!r}") from exc


def _parse_tol(text: str) -> tuple[str, float]:
    name, _, value = text.partition("=")
    if not value:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    return name, float(value)


@functools.cache     # built once per process; each parse fills a new namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphgeo",
        description="Numerical geometry of graphs of maps between "
                    "Riemannian manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="print the scenario catalog")
    list_p.add_argument("--match", default=None,
                        help="only scenarios whose name contains this string")

    for name, help_text in [
            ("report", "full geometry sweep, identity suite and theorem gate"),
            ("verify-identities", "run the identity suite"),
            ("check-theorem", "evaluate the hypothesis gate and classify")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=False)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--grid", type=_parse_grid, default=None,
                       metavar="NxN", help="grid resolution per axis")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--h", type=float, default=None,
                       help="finite-difference step")
        p.add_argument("--c", type=float, default=None,
                       help="shift parameter for the elliptic equation")
        p.add_argument("--sigma", type=float, default=None,
                       help="curvature pinching level (default: scenario's)")
        p.add_argument("--kappa-margin", type=float, default=None)
        p.add_argument("--tol", type=_parse_tol, action="append", default=[],
                       metavar="NAME=VALUE", help="tolerance override (repeatable)")
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and echoed in the report; no effect")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - set(RunConfig._fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cfg._replace(**data)
    # command line wins over the config file
    overrides = {key: getattr(args, key) for key in RunConfig._fields
                 if getattr(args, key, None) is not None}
    if getattr(args, "tol", None):
        overrides["tolerances"] = {**cfg.tolerances, **dict(args.tol)}
    cfg = cfg._replace(**overrides)
    cfg.validate()
    return cfg


def _resolve_scenario(cfg: RunConfig) -> scen.Scenario:
    """The registry scenario with the configured pinching level and sample
    box in place of its own, so the gate and the identity suite share them."""
    if not cfg.scenario:
        raise UnknownScenarioError("no scenario given (use --scenario)")
    scenario = scen.get(cfg.scenario)
    box = scenario.sample_box if cfg.box is None else np.asarray(cfg.box, dtype=float)
    if len(box) != scenario.domain.dim:
        raise ValueError(f"box has {len(box)} axes, scenario needs {scenario.domain.dim}")
    margin_box = scenario.domain.sample_box()
    if np.any(box[:, 0] < margin_box[:, 0]) or np.any(box[:, 1] > margin_box[:, 1]):
        raise OutOfChartError(
            "sampling box leaves the chart box (including its margin)")
    return scenario._replace(
        sample_box=box, sigma=scenario.sigma if cfg.sigma is None else cfg.sigma)


def _gate(cfg: RunConfig, scenario: scen.Scenario) -> tuple[GridSweep, dict]:
    """The sweep of the configured grid and the gate's artifact sections:
    the config echo, the hypotheses and the classification."""
    shape = cfg.grid or scenario.grid_shape
    if len(shape) != scenario.domain.dim:
        raise ValueError(f"grid has {len(shape)} axes, scenario needs {scenario.domain.dim}")
    grid = scenario.grid_points(shape)
    sweep = sweep_geometry(scenario.f, grid, seed=cfg.seed)
    hyp = evaluate_hypotheses(sweep, scenario.sigma, cfg.kappa_margin, cfg.tolerances)
    cls = classify(sweep, hyp, cfg.tolerances)
    config = cfg._replace(
        scenario=scenario.name, grid=list(shape),
        box=[list(map(float, b)) for b in scenario.sample_box], sigma=scenario.sigma,
        tolerances=dict(sorted(cfg.tolerances.items())))._asdict()
    del config["output"], config["match"]
    return sweep, {
        "config": config,
        "hypotheses": {**hyp._asdict(), "margins": dict(hyp.margins)},
        "classification": cls._asdict(),
    }


def _point_table(sweep) -> Table:
    """The report's per-point records, one column each; ``sec_n_max`` is
    None where no target plane was sampled (its null mask)."""
    return Table({
        "x": sweep.coords,
        "lambda": sweep.lambdas,
        "trace_s": sweep.trace_s,
        "a_norm_sq": sweep.a_norm_sq,
        "h_norm": sweep.h_norm,
        "sec_m_min": sweep.sec_m_min,
        "sec_n_max": sweep.sec_n_max,
    }, null={"sec_n_max": ~sweep.has_sec_n})


def _identity_records(reports) -> list[dict]:
    return [{
        "name": r.name,
        "max_residual": r.max_residual,
        "tolerance": r.tolerance,
        "pass": bool(r.passed),
        "skipped_reason": r.skipped_reason,
    } for r in reports]


def _to_stdout(write) -> None:
    """Run ``write(sys.stdout)`` and flush.  A stdout that cannot be written
    (a closed pipe, a full disk) is bad configuration: its descriptor is
    pointed at the null device, so that Python's flush at exit does not fail
    a second time, and the error is raised as one line."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write to stdout: {exc}") from exc


def _write_artifact(cfg: RunConfig, payload: dict, csv_payload: dict) -> None:
    """Stream ``payload`` as canonical JSON, or ``csv_payload`` as CSV,
    following ``cfg.format``, to ``cfg.output`` or to stdout without one
    (see :func:`_to_stdout`).  A path that cannot be opened or written is
    bad configuration; a write that fails part-way leaves an incomplete
    artifact."""
    def write(out) -> None:
        if cfg.format == "json":
            canonical_json(payload, out)
            out.write("\n")
        else:
            report_to_csv(csv_payload, out)

    if not cfg.output:
        _to_stdout(write)
        return
    try:
        with open(cfg.output, "w", encoding="utf-8") as out:
            write(out)
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc


def cmd_list(match: str | None) -> int:
    header = f"{'name':22s} {'dims':7s} {'grid':10s} {'expected'}"
    lines = [header, "-" * len(header)]
    for name, s in scen.registry().items():
        if match is not None and match not in name:
            continue
        exp = s.expected
        flags = []
        for label, val in [("minimal", exp.minimal),
                           ("totally-geodesic", exp.totally_geodesic)]:
            flags.append(f"{label}={'measured' if val is None else val}")
        if exp.isometric:
            flags.append("isometric")
        dims = f"{s.domain.dim}->{s.target.dim}"
        grid = "x".join(map(str, s.grid_shape))
        lines.append(f"{name:22s} {dims:7s} {grid:10s} {'; '.join(flags)};"
                     f" lambda: {exp.lambda_field}")
    _to_stdout(lambda out: out.write("".join(line + "\n" for line in lines)))
    return EXIT_OK


@contextmanager
def _stage(name: str):
    """Print the wall time of the block to stderr as ``name: X.XXs`` once
    it has run; a block that raises prints nothing."""
    t0 = time.monotonic()
    yield
    print(f"{name}: {time.monotonic() - t0:.2f}s", file=sys.stderr)


def cmd_report(cfg: RunConfig) -> int:
    from .identities import run_identity_suite

    scenario = _resolve_scenario(cfg)
    sweep, gate = _gate(cfg, scenario)
    identities = run_identity_suite(scenario, seed=cfg.seed, h=cfg.h, c=cfg.c,
                                    tolerances=cfg.tolerances,
                                    kappa_margin=cfg.kappa_margin)

    with _stage("serialize"):
        report = {
            "config": gate["config"],
            "points": _point_table(sweep),
            "identities": _identity_records(identities),
            "hypotheses": gate["hypotheses"],
            "classification": gate["classification"],
            # kept out of the deterministic artifact; see module docstring
            "runtime_seconds": None,
        }
        _write_artifact(cfg, report, report)
        if cfg.output:
            print(f"report written to {cfg.output}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    from .identities import run_identity_suite

    scenario = _resolve_scenario(cfg)
    reports = run_identity_suite(scenario, seed=cfg.seed, h=cfg.h, c=cfg.c,
                                 tolerances=cfg.tolerances,
                                 kappa_margin=cfg.kappa_margin)
    _to_stdout(lambda out: out.write("".join(r.line() + "\n" for r in reports)))
    if cfg.output:
        records = _identity_records(reports)
        _write_artifact(cfg, {"scenario": scenario.name, "identities": records},
                        {"config": {"scenario": scenario.name}, "identities": records})
    failed = [r for r in reports if not r.skipped and not r.passed]
    return EXIT_FAIL if failed else EXIT_OK


def cmd_check_theorem(cfg: RunConfig) -> int:
    _, gate = _gate(cfg, _resolve_scenario(cfg))
    _write_artifact(cfg, gate, gate)
    verdict = gate["classification"]["verdict"]
    if verdict in ("constant", "totally-geodesic-isometric-immersion"):
        return EXIT_OK
    if verdict == "hypothesis-violated":
        return EXIT_FAIL
    return EXIT_INDETERMINATE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args.match)
        cfg = _load_config(args)
        command = {"report": cmd_report, "verify-identities": cmd_verify,
                   "check-theorem": cmd_check_theorem}[args.command]
        # every command's stderr ends with its wall time, artifact written
        with _stage("runtime"):
            return command(cfg)
    except OutOfChartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_CHART
    except (ValueError, GraphGeoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
