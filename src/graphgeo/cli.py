"""Command-line front end.

Commands:

* ``list``               scenario catalog with expected properties
* ``report``             full geometry sweep + identities + gate, to file
* ``verify-identities``  identity suite; exit 0 iff every applicable check passes
* ``check-theorem``      hypothesis gate and dichotomy classification

Exit codes: 0 success (for ``check-theorem``: a dichotomy verdict), 1 failed
checks or a violated hypothesis gate, 2 unknown scenario, bad
configuration or out of memory, 3 out-of-chart sampling, 4 indeterminate
classification.

All report output is deterministic for a fixed (config, seed): wall-clock
timing goes to stderr and the ``runtime_seconds`` field of the artifact is
serialized as null.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import scenarios as scen
from .errors import GraphGeoError, OutOfChartError, UnknownScenarioError
from .identities import DEFAULT_IDENTITY_TOLERANCES, run_identity_suite
from .reporting import Table, canonical_json, report_to_csv
from .theorem_gate import (
    DEFAULT_TOLERANCES,
    MAX_GRID_POINTS,
    classify,
    evaluate_hypotheses,
    sweep_geometry,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_OUT_OF_CHART = 3
EXIT_INDETERMINATE = 4


@dataclass
class RunConfig:
    scenario: str | None = None
    grid: tuple[int, ...] | None = None
    box: list | None = None
    seed: int = 0
    h: float = 1e-3
    c: float = 2.0
    sigma: float | None = None
    kappa_margin: float = 0.01
    tolerances: dict[str, float] = field(default_factory=dict)
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
            value = getattr(self, name)
            if value is not None and not _finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.h <= 0.0:
            raise ValueError("finite-difference step must be positive")
        if self.c <= 0.0:
            raise ValueError("shift parameter c must be positive")
        if not isinstance(self.tolerances, dict):
            raise ValueError("tolerances must be a mapping of names to values")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES)
                         - set(DEFAULT_IDENTITY_TOLERANCES))
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
        unknown = set(data) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cfg, **data)
    # command line wins over the config file
    overrides = {}
    for key in ("scenario", "grid", "seed", "h", "c", "sigma", "kappa_margin",
                "output", "format", "threads"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "tol", None):
        overrides["tolerances"] = {**cfg.tolerances, **dict(args.tol)}
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _resolve_scenario(cfg: RunConfig) -> scen.Scenario:
    if not cfg.scenario:
        raise UnknownScenarioError("no scenario given (use --scenario)")
    return scen.get(cfg.scenario)


def _grid_points(scenario: scen.Scenario, cfg: RunConfig):
    box = np.asarray(cfg.box, dtype=float) if cfg.box is not None \
        else scenario.sample_box
    shape = cfg.grid or scenario.grid_shape
    for name, axes in (("grid", len(shape)), ("box", len(box))):
        if axes != scenario.domain.dim:
            raise ValueError(
                f"{name} has {axes} axes, scenario needs {scenario.domain.dim}")
    margin_box = scenario.domain.sample_box()
    if np.any(box[:, 0] < margin_box[:, 0]) or np.any(box[:, 1] > margin_box[:, 1]):
        raise OutOfChartError(
            "sampling box leaves the chart box (including its margin)")
    return scenario.grid_points(shape, box), box, shape


def _config_echo(cfg: RunConfig, scenario: scen.Scenario, box, shape,
                 sigma: float) -> dict:
    return {
        "scenario": scenario.name,
        "grid": list(shape),
        "box": [list(map(float, b)) for b in box],
        "seed": cfg.seed,
        "h": cfg.h,
        "c": cfg.c,
        "sigma": sigma,
        "kappa_margin": cfg.kappa_margin,
        "tolerances": dict(sorted(cfg.tolerances.items())),
        "format": cfg.format,
        "threads": cfg.threads,
    }


def _point_table(sweep) -> Table:
    """The report's per-point records, one column each; ``sec_n_max`` is
    None where no target plane was sampled."""
    return Table({
        "x": sweep.coords,
        "lambda": sweep.lambdas,
        "trace_s": sweep.trace_s,
        "a_norm_sq": sweep.a_norm_sq,
        "h_norm": sweep.h_norm,
        "sec_m_min": sweep.sec_m_min,
        "sec_n_max": np.where(sweep.has_sec_n, sweep.sec_n_max, None),
    })


def _identity_records(reports) -> list[dict]:
    return [{
        "name": r.name,
        "max_residual": r.max_residual,
        "tolerance": r.tolerance,
        "pass": bool(r.passed),
        "skipped_reason": r.skipped_reason,
    } for r in reports]


def _hypotheses_record(hyp) -> dict:
    return {
        "sigma": hyp.sigma,
        "kappa_sq": hyp.kappa_sq,
        "lambda0_sq": hyp.lambda0_sq,
        "minimal_ok": hyp.minimal_ok,
        "pinching_ok": hyp.pinching_ok,
        "trace_ok": hyp.trace_ok,
        "kappa_ok": hyp.kappa_ok,
        "condition4_ok": hyp.condition4_ok,
        "margins": dict(hyp.margins),
        "scope": hyp.scope,
    }


def _classification_record(cls) -> dict:
    return {"verdict": cls.verdict, "evidence": cls.evidence, "scope": cls.scope}


def _split_tolerances(cfg: RunConfig) -> tuple[dict, dict]:
    """The configured overrides of the gate and of the identity tolerances."""
    return tuple({k: v for k, v in cfg.tolerances.items() if k in defaults}
                 for defaults in (DEFAULT_TOLERANCES, DEFAULT_IDENTITY_TOLERANCES))


def _encode(cfg: RunConfig, payload: dict, csv_payload: dict) -> str:
    """``payload`` as canonical JSON or ``csv_payload`` as CSV, following
    ``cfg.format``."""
    if cfg.format == "json":
        return canonical_json(payload) + "\n"
    return report_to_csv(csv_payload)


def _write_output(text: str, cfg: RunConfig) -> None:
    """Write an artifact to ``cfg.output``, or to stdout without one; an
    unwritable path is bad configuration."""
    if not cfg.output:
        sys.stdout.write(text)
        return
    try:
        Path(cfg.output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc


def cmd_list(match: str | None) -> int:
    reg = scen.registry()
    names = [n for n in reg if match is None or match in n]
    header = f"{'name':22s} {'dims':7s} {'grid':10s} {'expected'}"
    print(header)
    print("-" * len(header))
    for name in names:
        s = reg[name]
        exp = s.expected
        flags = []
        for label, val in [("minimal", exp.minimal),
                           ("totally-geodesic", exp.totally_geodesic)]:
            flags.append(f"{label}={'measured' if val is None else val}")
        if exp.isometric:
            flags.append("isometric")
        dims = f"{s.domain.dim}->{s.target.dim}"
        grid = "x".join(map(str, s.grid_shape))
        print(f"{name:22s} {dims:7s} {grid:10s} {'; '.join(flags)};"
              f" lambda: {exp.lambda_field}")
    return EXIT_OK


@contextmanager
def _stage(name: str):
    """Print the wall time of the block to stderr as ``name: X.XXs`` once
    it has run; a block that raises prints nothing."""
    t0 = time.monotonic()
    yield
    print(f"{name}: {time.monotonic() - t0:.2f}s", file=sys.stderr)


def cmd_report(cfg: RunConfig) -> int:
    scenario = _resolve_scenario(cfg)
    grid, box, shape = _grid_points(scenario, cfg)
    sigma = cfg.sigma if cfg.sigma is not None else scenario.sigma

    sweep = sweep_geometry(scenario.f, grid, seed=cfg.seed)
    gate_tol, id_tol = _split_tolerances(cfg)
    hyp = evaluate_hypotheses(sweep, sigma, cfg.kappa_margin, gate_tol)
    cls = classify(scenario.f, grid, sigma, cfg.kappa_margin, gate_tol,
                   seed=cfg.seed, sweep=sweep, hypotheses=hyp)
    identities = run_identity_suite(scenario, seed=cfg.seed, h=cfg.h, c=cfg.c,
                                    tolerances=id_tol)

    with _stage("serialize"):
        report = {
            "config": _config_echo(cfg, scenario, box, shape, sigma),
            "points": _point_table(sweep),
            "identities": _identity_records(identities),
            "hypotheses": _hypotheses_record(hyp),
            "classification": _classification_record(cls),
            # kept out of the deterministic artifact; see module docstring
            "runtime_seconds": None,
        }
        _write_output(_encode(cfg, report, report), cfg)
        if cfg.output:
            print(f"report written to {cfg.output}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    scenario = _resolve_scenario(cfg)
    _, id_tol = _split_tolerances(cfg)
    reports = run_identity_suite(scenario, seed=cfg.seed, h=cfg.h, c=cfg.c,
                                 tolerances=id_tol)
    for r in reports:
        print(r.line())
    if cfg.output:
        records = _identity_records(reports)
        text = _encode(cfg, {"scenario": scenario.name, "identities": records},
                       {"config": {"scenario": scenario.name}, "identities": records})
        _write_output(text, cfg)
    failed = [r for r in reports if not r.skipped and not r.passed]
    return EXIT_FAIL if failed else EXIT_OK


def cmd_check_theorem(cfg: RunConfig) -> int:
    scenario = _resolve_scenario(cfg)
    grid, box, shape = _grid_points(scenario, cfg)
    sigma = cfg.sigma if cfg.sigma is not None else scenario.sigma
    gate_tol, _ = _split_tolerances(cfg)

    sweep = sweep_geometry(scenario.f, grid, seed=cfg.seed)
    hyp = evaluate_hypotheses(sweep, sigma, cfg.kappa_margin, gate_tol)
    cls = classify(scenario.f, grid, sigma, cfg.kappa_margin, gate_tol,
                   seed=cfg.seed, sweep=sweep, hypotheses=hyp)

    payload = {"config": _config_echo(cfg, scenario, box, shape, sigma),
               "hypotheses": _hypotheses_record(hyp),
               "classification": _classification_record(cls)}
    _write_output(_encode(cfg, payload, payload), cfg)

    if cls.verdict in ("constant", "totally-geodesic-isometric-immersion"):
        return EXIT_OK
    if cls.verdict == "hypothesis-violated":
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
    except UnknownScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
