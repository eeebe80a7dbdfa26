import contextlib
import errno
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from graphgeo import cli, reporting
from graphgeo import scenarios as scen
from graphgeo.cli import _point_table, main
from graphgeo.draws import Stream
from graphgeo.theorem_gate import (
    DEFAULT_TOLERANCES,
    HYPOTHESES,
    Classification,
    GridSweep,
    HypothesisReport,
    sweep_geometry,
)
from graphgeo.reporting import Table, _csv_cell, canonical_json, report_to_csv


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def test_list_prints_catalog(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()[2:] if line.strip()]
    assert len(rows) >= 8


def test_list_match_filter(capsys):
    assert run(["list", "--match", "holo"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()[2:] if line.strip()]
    assert rows
    assert all("holo" in r for r in rows)


def test_list_no_matches_prints_header_only(capsys):
    assert run(["list", "--match", "zzz-not-a-scenario"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()[2:] if line.strip()]
    assert rows == []


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_identity_schema_and_values(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["report", "--scenario", "identity-s2", "--grid", "5x5",
                "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"config", "points", "identities", "hypotheses",
                           "classification", "runtime_seconds"}
    assert len(report["points"]) == 25
    for rec in report["points"]:
        assert set(rec) == {"x", "lambda", "trace_s", "a_norm_sq", "h_norm",
                            "sec_m_min", "sec_n_max"}
        assert rec["a_norm_sq"] < 1e-10
    assert report["classification"]["verdict"] == \
        "totally-geodesic-isometric-immersion"
    for entry in report["identities"]:
        assert set(entry) == {"name", "max_residual", "tolerance", "pass",
                              "skipped_reason"}
        assert entry["pass"] is True


def test_report_holo_w2_h_column(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["report", "--scenario", "holo-w2", "--grid", "6x6",
                "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    assert max(rec["h_norm"] for rec in report["points"]) < 1e-6


def test_report_constant_trace_column(tmp_path, capsys):
    out = tmp_path / "r.json"
    run(["report", "--scenario", "constant-s2", "--grid", "5x5",
         "--output", str(out)])
    capsys.readouterr()
    report = json.loads(out.read_text())
    traces = [rec["trace_s"] for rec in report["points"]]
    assert np.abs(np.array(traces) - 2.0).max() < 1e-12


def test_report_unknown_scenario_exit_2(capsys):
    assert run(["report", "--scenario", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,message", [
    (["check-theorem", "--scenario", "nope"],
     f"unknown scenario 'nope'; available: {', '.join(sorted(scen.registry()))}"),
    (["report"], "no scenario given (use --scenario)"),
])
def test_unknown_or_missing_scenario_prints_its_message(argv, message, capsys):
    # the message as written, not in the quotes of a KeyError's key
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


ARGPARSE_ERRORS = [
    (["report", "--scenario", "holo-w2", "--grid", "20x"],
     "argument --grid: bad grid syntax '20x'"),
    (["verify-identities", "--scenario", "holo-w2", "--seed", "1.5"],
     "argument --seed: invalid int value: '1.5'"),
    (["report", "--scenario", "holo-w2", "--tol", "gate_slack"],
     "argument --tol: expected name=value, got 'gate_slack'"),
    (["check-theorem", "--scenario", "holo-w2", "--bogus", "1"],
     "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: command"),
]


@pytest.mark.parametrize("argv,message", ARGPARSE_ERRORS,
                         ids=["grid", "seed", "tol", "unknown-flag", "no-command"])
def test_argparse_errors_print_one_line_and_exit_2(argv, message, capsys):
    # a bad configuration like any other: no usage text, no program prefix
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_argparse_error_prints_one_line_in_a_fresh_process():
    proc = cli_process(["check-theorem", "--scenario", "holo-w2", "--bogus", "1"],
                       subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, "")
    assert err.splitlines() == ["error: unrecognized arguments: --bogus 1"]


@pytest.mark.parametrize("argv", [["--help"], ["report", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: graphgeo")


def test_report_out_of_chart_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "identity-s2",
                               "box": [[-40.0, 40.0], [-40.0, 40.0]]}))
    assert run(["report", "--config", str(cfg)]) == 3
    capsys.readouterr()


def test_report_byte_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["report", "--scenario", "holo-w2", "--grid", "5x5", "--seed", "7",
         "--output", str(a)])
    run(["report", "--scenario", "holo-w2", "--grid", "5x5", "--seed", "7",
         "--output", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_artifacts_do_not_depend_on_the_order_of_scenarios(tmp_path, capsys):
    # the registry is built once per process and its scenarios are shared:
    # every scenario forward, then in reverse, gives the same bytes
    names = list(scen.registry())
    runs = []
    for order in (names, names[::-1]):
        results = {}
        for name in order:
            dim = scen.get(name).domain.dim
            for command, extra in (("verify-identities", []),
                                   ("report", ["--grid", "x".join(["9"] * dim)])):
                out = tmp_path / f"{command}-{name}.json"
                code = run([command, "--scenario", name, *extra, "--output", str(out)])
                results[command, name] = code, capsys.readouterr().out, out.read_bytes()
        runs.append(results)
    assert runs[0] == runs[1]
    assert {code for code, _, _ in runs[0].values()} <= {0, 1}


def test_report_timing_lines_cover_serialization(tmp_path, capsys, monkeypatch):
    # stderr times the whole command and its serialization; the artifact
    # carries no timing
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["report", "--scenario", "holo-w2", "--grid", "5x5", "--seed", "7"]
    assert run([*argv, "--output", str(a)]) == 0
    capsys.readouterr()

    write = cli._write_artifact

    def slow_write(*args):
        time.sleep(0.2)
        return write(*args)

    monkeypatch.setattr(cli, "_write_artifact", slow_write)
    assert run([*argv, "--output", str(b)]) == 0
    lines = capsys.readouterr().err.splitlines()
    seconds = {}
    for line in lines[1:]:
        label, value = line.split(": ")
        assert value.endswith("s")
        seconds[label] = float(value[:-1])
    assert lines[0] == f"report written to {b}"
    assert list(seconds) == ["serialize", "runtime"]
    assert 0.2 <= seconds["serialize"] <= seconds["runtime"]
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(b.read_text())["runtime_seconds"] is None


@pytest.mark.parametrize("argv", [
    ["report", "--scenario", "holo-w2", "--grid", "5x5"],
    ["verify-identities", "--scenario", "holo-w2"],
    ["check-theorem", "--scenario", "identity-s2", "--grid", "5x5"],
])
def test_runtime_line_covers_the_artifact_write(argv, tmp_path, capsys, monkeypatch):
    # every command ends its stderr with the wall time of the whole command,
    # printed after the artifact is written
    write = cli._write_artifact

    def slow_write(*args):
        time.sleep(0.2)
        return write(*args)

    monkeypatch.setattr(cli, "_write_artifact", slow_write)
    out = tmp_path / "out"
    run([*argv, "--output", str(out)])
    lines = capsys.readouterr().err.splitlines()
    label, value = lines[-1].split(": ")
    assert label == "runtime" and value.endswith("s")
    assert float(value[:-1]) >= 0.2
    assert out.stat().st_size > 0
    assert sum(line.startswith("runtime: ") for line in lines) == 1


def test_report_threads_do_not_change_results(tmp_path, capsys):
    # --threads is accepted and echoed but has no effect; everything except
    # the echoed thread count is byte-identical
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["report", "--scenario", "identity-s2", "--grid", "5x5",
         "--output", str(a), "--threads", "1"])
    run(["report", "--scenario", "identity-s2", "--grid", "5x5",
         "--output", str(b), "--threads", "3"])
    capsys.readouterr()
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["config"].pop("threads") == 1
    assert rb["config"].pop("threads") == 3
    assert ra == rb
    assert a.read_text().replace('"threads": 1', '"threads": 3') == b.read_text()


def _cell_value(cell):
    """A scalar CSV cell as its JSON value; an empty cell is null."""
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return float(cell) if cell else None
    except ValueError:
        return cell


def _nested_cell(cell):
    """A nested CSV cell: one line of compact JSON with ``;`` for ``,``."""
    assert " " not in cell
    return json.loads(cell.replace(";", ","))


def _assert_same(csv_value, json_value, where):
    """The same structure, and every number the same bit for bit."""
    if isinstance(json_value, dict):
        assert csv_value.keys() == json_value.keys(), where
        for key, value in json_value.items():
            _assert_same(csv_value[key], value, f"{where}.{key}")
    elif isinstance(json_value, list):
        assert len(csv_value) == len(json_value), where
        for i, (a, b) in enumerate(zip(csv_value, json_value)):
            _assert_same(a, b, f"{where}_{i}")
    elif isinstance(json_value, (int, float)) and not isinstance(json_value, bool):
        assert float(csv_value).hex() == float(json_value).hex(), (where, csv_value, json_value)
    else:
        assert csv_value == json_value, where


@pytest.mark.parametrize("argv", [
    ["report", "--scenario", "holo-w2", "--grid", "4x4"],
    ["report", "--scenario", "constant-s2", "--grid", "4x4"],     # pinching_target is null
    ["check-theorem", "--scenario", "identity-s3", "--grid", "3x3x3"],
], ids=lambda argv: f"{argv[2]}-{argv[0]}")
def test_csv_and_json_numeric_round_trip(argv, tmp_path, capsys):
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    run([*argv, "--output", str(jpath), "--format", "json"])
    run([*argv, "--output", str(cpath), "--format", "csv"])
    capsys.readouterr()
    report = json.loads(jpath.read_text())
    cells = {}
    for line in cpath.read_text().splitlines()[1:]:
        section, name, field, value = line.split(",", 3)
        cells[section, name, field] = value

    # every numeric leaf of every section appears identically in both encodings
    _assert_same(_nested_cell(cells["config", "", "box"]), report["config"]["box"], "box")
    assert ("points" in report) == (argv[0] == "report")
    for idx, rec in enumerate(report.get("points", [])):
        for key, value in rec.items():
            row = ("point", str(idx))
            got = ([_cell_value(cells[(*row, f"{key}_{i}")]) for i in range(len(value))]
                   if isinstance(value, list) else _cell_value(cells[(*row, key)]))
            _assert_same(got, value, f"points_{idx}.{key}")
    for entry in report.get("identities", []):
        for key in ("max_residual", "tolerance"):
            _assert_same(_cell_value(cells["identity", entry["name"], key]), entry[key],
                         f"{entry['name']}.{key}")
    for key, value in report["hypotheses"].items():
        if key == "margins":
            for name, margin in value.items():
                _assert_same(_cell_value(cells["hypotheses", "", f"margins.{name}"]), margin, name)
        else:
            _assert_same(_cell_value(cells["hypotheses", "", key]), value, key)
    if argv[2] == "constant-s2":
        assert report["hypotheses"]["margins"]["pinching_target"] is None
    for key, value in report["classification"]["evidence"].items():
        cell = cells["classification", "", f"evidence.{key}"]
        _assert_same(_nested_cell(cell) if isinstance(value, (dict, list)) else _cell_value(cell),
                     value, f"evidence.{key}")


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------

def test_verify_identity_scenario(capsys):
    assert run(["verify-identities", "--scenario", "identity-s2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_skip_semantics(capsys):
    # a scenario failing the minimality precondition still exits 0, with the
    # inapplicable checks reported as skipped
    assert run(["verify-identities", "--scenario", "proj-s3-s1"]) == 0
    out = capsys.readouterr().out
    assert "[skip] elliptic-equation: non-minimal scenario" in out


def test_verify_halved_step_shrinks_residual(capsys):
    assert run(["verify-identities", "--scenario", "holo-w2",
                "--h", "0.001"]) == 0
    out_h = capsys.readouterr().out
    assert run(["verify-identities", "--scenario", "holo-w2",
                "--h", "0.0005"]) == 0
    out_half = capsys.readouterr().out

    def residual(text, name):
        for line in text.splitlines():
            if name in line:
                return float(line.split("max residual")[1].split("(")[0])
        raise AssertionError(name)

    r1 = residual(out_h, "elliptic-equation")
    r2 = residual(out_half, "elliptic-equation")
    assert r1 / r2 >= 3.5


NULL_PROBE_SKIP = "[skip] null-eigenvector-probe: hypotheses fail at all probe points: "


@pytest.mark.parametrize("name,default,sigma,reason", [
    # sec_N = 1 on the target sphere, above the level
    ("identity-s2", "[PASS] null-eigenvector-probe", "0.5",
     "target sectional curvature 1 above 0.5"),
    # sec_M = 1 on the domain sphere, below the level
    ("holo-w2", NULL_PROBE_SKIP + "trace condition fails", "5",
     "domain sectional curvature 1 below 5"),
], ids=["identity-s2", "holo-w2"])
def test_sigma_reaches_the_null_probe(name, default, sigma, reason, capsys):
    assert run(["verify-identities", "--scenario", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(default)]
    assert run(["verify-identities", "--scenario", name, "--sigma", sigma]) == 0
    assert NULL_PROBE_SKIP + reason in capsys.readouterr().out.splitlines()


def test_kappa_margin_reaches_the_null_probe(capsys):
    # the suite's pullback bound is the gate's kappa^2 = (1 + margin) * 1 for
    # the isometry: at a margin of 1e-12 it is not strictly above lambda^2
    assert run(["verify-identities", "--scenario", "identity-s2"]) == 0
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[PASS] null-eigenvector-probe")]
    assert run(["verify-identities", "--scenario", "identity-s2",
                "--kappa-margin", "1e-12"]) == 0
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith(NULL_PROBE_SKIP + "pullback bound fails")]


@pytest.mark.parametrize("settings", [
    {"seed": 3},
    {"seed": 3, "sigma": 0.5},
    {"seed": 1, "box": [[-0.8, 0.6], [-0.5, 0.7]]},
    {"seed": 1, "sigma": 5.0, "box": [[-0.8, 0.6], [-0.5, 0.7]]},
    {"seed": 3, "scenario": "identity-s2", "kappa_margin": 1e-12},
])
def test_report_identities_equal_verify_records(settings, tmp_path, capsys):
    # the report and verify-identities run the suite under one sigma, box
    # and kappa margin
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "holo-w2", "grid": [4, 4], **settings}))
    report, verify = tmp_path / "report.json", tmp_path / "verify.json"
    assert run(["report", "--config", str(cfg), "--output", str(report)]) == 0
    assert run(["verify-identities", "--config", str(cfg), "--output", str(verify)]) == 0
    capsys.readouterr()
    records = json.loads(verify.read_text())["identities"]
    assert json.loads(report.read_text())["identities"] == records
    reason = {r["name"]: r["skipped_reason"] for r in records}["null-eigenvector-probe"]
    assert ("sectional curvature" in reason) == ("sigma" in settings)
    assert ("pullback bound fails" in reason) == ("kappa_margin" in settings)


def test_box_reaches_the_identity_suite(tmp_path, capsys):
    # the suite draws its points in the configured box
    artifacts = []
    for box in (None, [[-0.8, 0.6], [-0.5, 0.7]]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "holo-w2", "box": box}))
        out = tmp_path / "out.json"
        assert run(["verify-identities", "--config", str(cfg), "--output", str(out)]) == 0
        artifacts.append(out.read_bytes())
    capsys.readouterr()
    assert artifacts[0] != artifacts[1]


@pytest.mark.parametrize("command", ["verify-identities", "check-theorem"])
def test_box_leaving_the_chart_exits_3(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "identity-s2",
                               "box": [[-40.0, 40.0], [-40.0, 40.0]]}))
    assert run([command, "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "error: sampling box leaves the chart box (including its margin)\n")


@pytest.mark.parametrize("name", ["holo-w2", "identity-s3", "constant-s3"])
@pytest.mark.parametrize("command", ["verify-identities", "report"])
def test_a_stencil_leaving_the_chart_exits_3(command, name, capsys):
    # every minimal scenario's suite builds its sample rows' stencils, parallel
    # fields (identity-s3, constant-s3) included: the first one out of the
    # chart is the first sample point's +e_0 neighbour at step h
    assert run([command, "--scenario", name, "--h", "30"]) == 3
    sc = scen.get(name)
    first = sc.random_points(12, Stream(0))[0].coords
    point = first + 30.0 * np.eye(sc.domain.dim)[0]
    assert capsys.readouterr().err == (
        f"error: {sc.f.name}: point {point} outside domain chart\n")


def test_consecutive_calls_share_one_parser_and_no_state(tmp_path, capsys):
    # the parser is built once per process; a call's options never reach the
    # next call
    assert cli._build_parser() is cli._build_parser()

    def artifact(name, argv):
        path = tmp_path / name
        code = run([*argv, "--output", str(path)])
        capsys.readouterr()
        return code, path.read_bytes()

    verify = ["verify-identities", "--scenario", "holo-w2"]
    plain = artifact("plain", verify)
    assert artifact("tol", [*verify, "--tol", "elliptic=1"]) != plain
    assert artifact("plain-after-tol", verify) == plain
    assert artifact("c3", [*verify, "--c", "3"]) != plain
    assert artifact("plain-after-c3", verify) == plain

    gate = ["check-theorem", "--scenario", "identity-s2", "--grid", "5x5"]
    before = artifact("gate", gate)
    artifact("report", ["report", "--scenario", "holo-w2", "--grid", "4x4", "--seed",
                        "7", "--c", "3", "--tol", "elliptic=1", "--format", "csv"])
    assert artifact("gate-after-report", gate) == before


# ---------------------------------------------------------------------------
# check-theorem
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,expected", [
    ("identity-s2", 0),
    ("constant-s2", 0),
    ("holo-w2", 1),
    ("torus-linear", 1),
])
def test_check_theorem_exit_codes(name, expected, capsys):
    code = run(["check-theorem", "--scenario", name, "--grid", "6x6"])
    capsys.readouterr()
    assert code == expected


def test_check_theorem_nonminimal_scenario_exit_1(capsys):
    code = run(["check-theorem", "--scenario", "proj-s3-s1",
                "--grid", "4x4x4"])
    out = capsys.readouterr().out
    assert code == 1
    assert '"minimal"' in out   # the failing hypothesis is named


def test_check_theorem_indeterminate_exit_4(tmp_path, capsys):
    # the shrinking map on a strictly length-decreasing sub-box satisfies the
    # local gate but matches neither branch of the dichotomy
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "conformal-shrink",
        "box": [[-0.6, 0.6], [-0.6, 0.6]],
        "grid": [6, 6],
    }))
    assert run(["check-theorem", "--config", str(cfg)]) == 4
    capsys.readouterr()


def test_check_theorem_csv_to_stdout(capsys):
    argv = ["check-theorem", "--scenario", "identity-s2", "--grid", "3x3"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert run(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "section,name,field,value"
    compared = 0
    for line in lines[1:]:
        section, _, field, value = line.split(",", 3)
        if section not in ("hypotheses", "classification"):
            continue
        leaf = payload[section]
        for key in field.split("."):
            leaf = leaf[key]
        if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
            assert float(value) == leaf, field
            compared += 1
    assert compared == 14


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ["report", "--scenario", "holo-w2", "--grid", "4x4"],
    ["report", "--scenario", "identity-s2", "--grid", "4x4"],
    ["check-theorem", "--scenario", "identity-s2", "--grid", "4x4"],
    ["check-theorem", "--scenario", "constant-s2", "--grid", "4x4"],
])
def test_gate_sections_are_the_records_fields(argv, fmt, capsys):
    # the hypotheses and classification sections hold each record's fields,
    # in order
    run([*argv, "--format", fmt])
    out = capsys.readouterr().out
    if fmt == "json":
        doc = json.loads(out)
        keys = {section: list(doc[section]) for section in ("hypotheses", "classification")}
    else:
        keys = {"hypotheses": [], "classification": []}
        for line in out.splitlines()[1:]:
            section, _, field, _ = line.split(",", 3)
            key = field.split(".")[0]
            if section in keys and key not in keys[section]:
                keys[section].append(key)
    assert keys == {"hypotheses": list(HypothesisReport._fields),
                    "classification": list(Classification._fields)}
    # one flag per row of the hypothesis table, in its order, and the
    # table's margin keys are the artifact's
    assert [f"{name}_ok" for name, _ in HYPOTHESES] == [
        field for field in HypothesisReport._fields if field.endswith("_ok")]
    if fmt == "json":
        assert [key for _, keys in HYPOTHESES for key in keys] == list(
            doc["hypotheses"]["margins"])


def test_kappa_level_at_the_strict_margin_fails_the_gate(capsys):
    # lambda = 0, so kappa^2 = 1 + 1e-10: its margin over every pullback
    # value passes, and only the scalar rule kappa^2 > 1 + STRICT_MARGIN
    # fails it
    assert run(["check-theorem", "--scenario", "constant-s2",
                "--kappa-margin", "1e-10"]) == 1
    doc = json.loads(capsys.readouterr().out)
    hyp = doc["hypotheses"]
    assert hyp["kappa_sq"] == 1.0 + 1e-10 and hyp["lambda0_sq"] == 0.0
    assert hyp["margins"]["kappa_strict"] > 1.0
    assert not hyp["kappa_ok"]
    assert doc["classification"]["evidence"]["failing"] == ["kappa"]


#: The suite's checks that need a minimal map (the 2x2 ones on a 2x2 scenario).
NEEDS_MINIMAL = ("elliptic-equation", "log-jacobian-2d", "minimality-relations-2d",
                 "jacobian-consistency-2d", "extremum-probe")


def test_minimality_tolerance_moves_the_gate_and_the_suite_together(capsys):
    # one tolerance table per run: --tol minimality fails the gate's minimal
    # flag, and the suite skips the checks that need a minimal map, in the
    # same artifact and in verify-identities
    report = ["report", "--scenario", "holo-w2", "--grid", "6x6"]
    assert run(report) == 0
    records = {rec["name"]: rec for rec in json.loads(capsys.readouterr().out)["identities"]}
    for name in NEEDS_MINIMAL:
        assert records[name]["pass"] and records[name]["skipped_reason"] is None, name
    assert run([*report, "--tol", "minimality=1e-30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["hypotheses"]["minimal_ok"]
    assert "minimal" in doc["classification"]["evidence"]["failing"]
    records = {rec["name"]: rec for rec in doc["identities"]}
    for name in NEEDS_MINIMAL:
        assert records[name]["skipped_reason"] == "non-minimal scenario", name
    assert run(["verify-identities", "--scenario", "holo-w2", "--tol", "minimality=1e-30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in NEEDS_MINIMAL:
        assert f"[skip] {name}: non-minimal scenario" in lines


def test_gate_slack_reaches_the_null_probe(tmp_path, capsys):
    # holo-w3's trace margins are about -1.4 at the probe points: a slack of
    # 100 lets the gate's rule pass them, so the probe runs on every row
    out = tmp_path / "ids.json"
    args = ["verify-identities", "--scenario", "holo-w3", "--output", str(out)]
    assert run(args) == 0
    assert "[skip] null-eigenvector-probe: hypotheses fail" in capsys.readouterr().out
    assert run([*args, "--tol", "gate_slack=100"]) == 1
    capsys.readouterr()
    (probe,) = [r for r in json.loads(out.read_text())["identities"]
                if r["name"] == "null-eigenvector-probe"]
    assert probe["skipped_reason"] is None


def test_check_theorem_cli_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "torus-linear", "grid": [5, 5]}))
    # command line wins: run identity-s2 instead
    code = run(["check-theorem", "--config", str(cfg),
                "--scenario", "identity-s2", "--grid", "5x5"])
    capsys.readouterr()
    assert code == 0


def test_config_file_mirrors_all_fields(tmp_path, capsys):
    out = tmp_path / "out.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "identity-s2",
        "grid": [5, 5],
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
        "seed": 99,
        "h": 0.002,
        "c": 3.0,
        "sigma": 1.0,
        "kappa_margin": 0.02,
        "tolerances": {"minimality": 1e-7},
        "output": str(out),
        "format": "json",
        "threads": 2,
    }))
    assert run(["report", "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    echo = report["config"]
    assert echo["seed"] == 99
    assert echo["h"] == 0.002
    assert echo["c"] == 3.0
    assert echo["kappa_margin"] == 0.02
    assert echo["grid"] == [5, 5]
    assert echo["box"] == [[-1.0, 1.0], [-1.0, 1.0]]
    assert echo["tolerances"] == {"minimality": 1e-7}
    assert echo["threads"] == 2


def test_bad_config_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scneario": "identity-s2"}))
    assert run(["check-theorem", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_invalid_grid_rejected(capsys):
    assert run(["report", "--scenario", "identity-s2", "--grid", "1x1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["report", "check-theorem"])
def test_oversized_grid_rejected_before_any_allocation(command, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(scen.Scenario, "grid_points", refuse)
    code = run([command, "--scenario", "holo-w2", "--grid", "100000x100000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["report", "check-theorem"])
def test_out_of_memory_exits_2_with_one_line(command, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB")

    monkeypatch.setattr(cli, "sweep_geometry", exhausted)
    code = run([command, "--scenario", "identity-s2", "--grid", "3x3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: out of memory: Unable to allocate 149. GiB\n"


@pytest.mark.parametrize("extra", [
    ["--h", "nan"], ["--h", "inf"], ["--c", "nan"], ["--c=-inf"],
    ["--sigma", "nan"], ["--sigma", "inf"], ["--kappa-margin", "nan"],
    ["--tol", "gate_slack=nan"], ["--tol", "elliptic=inf"],
    ["--tol", "gate_slak=1e-3"], ["--c=-1"], ["--c", "0"],
    # non-minimal: the elliptic check, the suite's only use of c, never runs
    ["--scenario", "proj-s3-s1", "--grid", "3x3x3", "--c", "-0.5"],
    # the pinching level is positive (sigma > 0 in the rigidity statement)
    ["--sigma", "0"], ["--sigma=-1"],
    # a margin <= 0 can never pass the strict pullback bound
    ["--kappa-margin", "0"], ["--kappa-margin=-0.5"],
    # a margin whose kappa^4 overflows
    ["--kappa-margin", "1e200"],
    ["--scenario", "identity-s3", "--grid", "3x3x3", "--kappa-margin", "1e200"],
    # a margin too small to move 1 + margin off 1
    ["--kappa-margin", "1e-20"], ["--kappa-margin", "5e-17"],
    # a step whose square underflows: the second differences divide 0 by 0
    ["--h", "1e-170"],
    # a pinching level whose condition-4 bound overflows: inf * 0, and inf
    ["--sigma", "1e308"], ["--scenario", "scaled-sphere-0.5", "--sigma", "3e306"],
])
@pytest.mark.parametrize("command", ["check-theorem", "verify-identities", "report"])
def test_non_finite_and_unknown_settings_rejected(command, extra, capsys):
    code = run([command, "--scenario", "identity-s2", "--grid", "3x3", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("scenario,sigma", [("identity-s2", "1e308"),
                                            ("scaled-sphere-0.5", "3e306")])
@pytest.mark.parametrize("command", ["check-theorem", "verify-identities", "report"])
def test_sigma_whose_condition4_bound_overflows_names_sigma(command, scenario, sigma,
                                                             capsys):
    # the suite's null probe refuses it too, below lambda0^2 = 1 as well
    assert run([command, "--scenario", scenario, "--grid", "3x3", "--sigma", sigma]) == 2
    assert capsys.readouterr().err == (
        f"error: sigma = {float(sigma):.6g} is too large: the condition-4 bound overflows\n")


@pytest.mark.parametrize("margin", ["1e-20", "5e-17", "1.1102230246251565e-16"])
@pytest.mark.parametrize("command", ["check-theorem", "verify-identities", "report"])
def test_sub_ulp_kappa_margin_names_the_flag(command, margin, capsys):
    # half an ulp of 1 and less: 1 + margin rounds to 1, and kappa^2 = 1
    # could never pass the strict pullback bound
    assert run([command, "--scenario", "identity-s3", "--kappa-margin", margin]) == 2
    assert capsys.readouterr().err == (
        f"error: kappa margin {float(margin)!r} is too small: 1 + margin rounds to 1\n")


@pytest.mark.parametrize("name", ["gate_slack", "elliptic"])
@pytest.mark.parametrize("command", ["check-theorem", "verify-identities", "report"])
def test_tolerance_names_of_the_gate_and_the_suite_are_accepted(command, name, tmp_path,
                                                                capsys):
    # every command takes both tables' names, and the gate's artifacts echo them
    out = tmp_path / "out.json"
    assert run([command, "--scenario", "identity-s2", "--grid", "3x3", "--tol",
                f"{name}=1e-3", "--output", str(out)]) == 0
    capsys.readouterr()
    if command != "verify-identities":
        assert json.loads(out.read_text())["config"]["tolerances"] == {name: 1e-3}


@pytest.mark.parametrize("command", ["check-theorem", "verify-identities", "report"])
def test_unknown_tolerance_names_are_listed(command, capsys):
    assert run([command, "--scenario", "identity-s2", "--tol", "nope=1",
                "--tol", "elliptic=1", "--tol", "gate_slak=1"]) == 2
    assert capsys.readouterr().err == "error: unknown tolerance names: 'gate_slak', 'nope'\n"


@pytest.mark.parametrize("command", ["report", "verify-identities", "check-theorem"])
def test_unwritable_output_exits_2(command, tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.json"
    code = run([command, "--scenario", "identity-s2", "--grid", "3x3",
                "--output", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "cannot write output file" in errors[0]
    assert "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("doc", [
    {"threads": "2"}, {"threads": 0}, {"grid": "20x20"}, {"grid": []},
    {"seed": "a"}, {"seed": -1}, {"h": True},
    {"box": [[-1.0, 1.0]]},                # one axis for a 2-d scenario
    {"box": [[1.0, 0.0], [0.0, 1.0]]},     # inverted
    {"tolerances": [1e-3]}, {"scenario": 7}, {"output": 5},
    None,                                  # no such config file
    [],                                    # not a JSON object
    {"sigma": 0}, {"sigma": -1.5},         # the pinching level is positive
    {"kappa_margin": 0}, {"kappa_margin": -1},   # and so is the kappa margin
    {"kappa_margin": 5e-17},               # and 1 + margin is above 1
    {"h": None}, {"c": None}, {"kappa_margin": None},   # only sigma may be null
    {"h": 1e-170},                         # h * h underflows
])
@pytest.mark.parametrize("command", ["report", "check-theorem", "verify-identities"])
def test_malformed_config_rejected(command, doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if doc is not None:
        cfg.write_text(json.dumps(
            {"scenario": "identity-s2", **doc} if isinstance(doc, dict) else doc))
    code = run([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")


def _bad_values():
    text = st.text(max_size=6)
    return {
        "grid": st.one_of(text, st.integers(), st.just([]),
                          st.lists(st.integers(max_value=1), min_size=1, max_size=3),
                          st.lists(text, min_size=1, max_size=2)),
        "seed": st.one_of(text, st.booleans(), st.floats(),
                          st.integers(max_value=-1)),
        "threads": st.one_of(text, st.booleans(), st.floats(),
                             st.integers(max_value=0)),
        "box": st.one_of(text, st.integers(),
                         st.lists(st.lists(st.floats(), min_size=2, max_size=2),
                                  min_size=1, max_size=1),
                         st.lists(st.lists(st.floats(), min_size=2, max_size=2),
                                  min_size=2, max_size=2).filter(
                             lambda b: not all(lo < hi for lo, hi in b))),
        "h": st.one_of(text, st.booleans(), st.floats(max_value=0.0),
                       st.lists(st.floats(), max_size=2)),
        "sigma": st.one_of(text, st.booleans(), st.just(float("nan")),
                           st.floats(max_value=0.0)),
        "kappa_margin": st.floats(max_value=0.0),
        "tolerances": st.one_of(text, st.lists(st.integers(), max_size=2),
                                st.dictionaries(text.filter(
                                    lambda k: k not in DEFAULT_TOLERANCES),
                                    st.floats(min_value=1e-3, max_value=1.0),
                                    min_size=1, max_size=2),
                                st.dictionaries(st.sampled_from(["gate_slack", "frame"]),
                                                st.floats(max_value=0.0), min_size=1)),
        "format": text.filter(lambda v: v not in ("json", "csv")),
        "scenario": st.one_of(st.integers(), st.lists(text, max_size=2), text),
        "unknown": st.integers(),
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_malformed_config_exits_2(data, tmp_path, capsys):
    key = data.draw(st.sampled_from(sorted(_bad_values())))
    value = data.draw(_bad_values()[key])
    doc = {"scenario": "identity-s2", "grid": [3, 3],
           ("scneario" if key == "unknown" else key): value}
    cfg = tmp_path / "fuzz.json"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["check-theorem", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2, doc
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("error: ")


def test_non_finite_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenario": "identity-s2", "sigma": NaN}')
    assert run(["check-theorem", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def json_text(obj) -> str:
    """The text ``canonical_json`` writes for ``obj``."""
    out = io.StringIO()
    canonical_json(obj, out)
    return out.getvalue()


def csv_text(report: dict) -> str:
    """The text ``report_to_csv`` writes for ``report``."""
    out = io.StringIO()
    report_to_csv(report, out)
    return out.getvalue()


def test_canonical_json_float_precision():
    x = 0.1 + 0.2
    text = json_text({"v": x})
    assert json.loads(text)["v"] == x


def test_canonical_json_is_valid_json():
    doc = {"a": [1, 2.5, None, True], "b": {"c": "text, with comma"},
           "d": float(np.float64(1.0) / 3.0)}
    parsed = json.loads(json_text(doc))
    assert parsed["d"] == 1.0 / 3.0


def test_csv_emits_17_digit_floats():
    report = {"config": {"x": 1.0 / 3.0}, "points": [], "identities": [],
              "hypotheses": {}, "classification": {}, "runtime_seconds": None}
    text = csv_text(report)
    assert "0.33333333333333331" in text


# The report's point records as one dict per grid point: the form the
# columnar table must serialize to, byte for byte.
def point_records(sweep) -> list[dict]:
    return [{
        "x": [float(v) for v in sweep.coords[i]],
        "lambda": [float(v) for v in sweep.lambdas[i]],
        "trace_s": float(sweep.trace_s[i]),
        "a_norm_sq": float(sweep.a_norm_sq[i]),
        "h_norm": float(sweep.h_norm[i]),
        "sec_m_min": float(sweep.sec_m_min[i]),
        "sec_n_max": float(sweep.sec_n_max[i]) if sweep.has_sec_n[i] else None,
    } for i in range(len(sweep))]


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.0, 1e16, 1e17,
                  0.37 - 1e-16, 1.0 / 3.0]
any_float = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), rows=st.one_of(st.sampled_from([0, 1]), st.integers(0, 12)),
       m=st.sampled_from([2, 3]))
def test_point_table_serializes_as_point_records(data, rows, m):
    def column(*shape):
        size = int(np.prod(shape))
        values = data.draw(st.lists(any_float, min_size=size, max_size=size))
        return np.array(values, dtype=float).reshape(shape)

    sweep = GridSweep(
        coords=column(rows, m), lambdas=column(rows, m),
        rank=np.zeros(rows, dtype=int), trace_s=column(rows),
        a_norm_sq=column(rows), h_norm=column(rows), sec_m_min=column(rows),
        sec_m_max=column(rows), sec_n_min=column(rows), sec_n_max=column(rows),
        has_sec_n=np.array(data.draw(st.lists(st.booleans(), min_size=rows,
                                              max_size=rows)), dtype=bool),
        metric_factor_res=np.zeros(rows))
    table, records = _point_table(sweep), point_records(sweep)
    assert json_text(table) == json_text(records)
    assert (json_text({"config": {}, "points": table, "runtime_seconds": None})
            == json_text({"config": {}, "points": records, "runtime_seconds": None}))
    assert csv_text({"points": table}) == csv_text({"points": records})


# Each kind of table column: its float array, its null mask (None: no
# mask) and the Python value of its row ``i``, the form its record must
# serialize to.
def column_kinds(data, rows):
    def floats(*shape, dtype=float, elements=any_float):
        size = int(np.prod(shape))
        values = data.draw(st.lists(elements, min_size=size, max_size=size))
        return np.array(values, dtype=dtype).reshape(shape)

    width = data.draw(st.integers(0, 3))
    mixed = data.draw(st.lists(st.one_of(st.none(), any_float), min_size=rows,
                               max_size=rows))
    f1, f2 = floats(rows), floats(rows, width)
    single = floats(rows, dtype=np.float32, elements=st.floats(width=32))
    # any number under a set mask: it is not written
    masked = np.array([u if v is None else v for u, v in zip(floats(rows), mixed)])
    return {
        "float": (f1, None, lambda i: float(f1[i])),
        "rows": (f2, None, lambda i: [float(v) for v in f2[i]]),
        "float32": (single, None, lambda i: float(single[i])),
        "masked": (masked, np.array([v is None for v in mixed], dtype=bool),
                   lambda i: mixed[i]),
    }


def assert_table_serializes_as_records(table, records):
    assert json_text(table) == json_text(records)
    assert (json_text({"config": {}, "points": table, "runtime_seconds": None})
            == json_text({"config": {}, "points": records, "runtime_seconds": None}))
    assert csv_text({"points": table}) == csv_text({"points": records})


@settings(max_examples=120, deadline=None)
@given(data=st.data(), rows=st.one_of(st.sampled_from([0, 1]), st.integers(0, 6)))
def test_any_table_serializes_as_its_records(data, rows):
    kinds = column_kinds(data, rows)
    chosen = data.draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                                max_size=4, unique=True))
    keys = data.draw(st.lists(st.text(alphabet='k%,"', min_size=1, max_size=3),
                              min_size=len(chosen), max_size=len(chosen), unique=True))
    table = Table({key: kinds[kind][0] for key, kind in zip(keys, chosen)},
                  null={key: kinds[kind][1] for key, kind in zip(keys, chosen)
                        if kinds[kind][1] is not None})
    records = [{key: kinds[kind][2](i) for key, kind in zip(keys, chosen)}
               for i in range(rows)]
    assert_table_serializes_as_records(table, records)


NAN = float("nan")


@pytest.mark.parametrize("columns,records", [
    # one row
    (({"x": np.array([[0.1, -0.0]]), "t": np.array([np.inf]), "n%s": np.array([7.0])},
      {"n%s": np.array([True])}),
     [{"x": [0.1, -0.0], "t": np.inf, "n%s": None}]),
    # every row null in one column: the constant maps' sec_n_max
    (({"x": np.array([[1.0], [2.0], [3.0]]), "t": np.array([1 / 3, 5e-324, 1e17]),
       "n": np.full(3, NAN)}, {"n": np.ones(3, dtype=bool)}),
     [{"x": [1.0], "t": 1 / 3, "n": None}, {"x": [2.0], "t": 5e-324, "n": None},
      {"x": [3.0], "t": 1e17, "n": None}]),
    # None, NaN and a number in one column, an empty row in another
    (({"e": np.zeros((3, 0)), "n": np.array([0.5, NAN, 2.5])},
      {"n": np.array([True, False, False])}),
     [{"e": [], "n": None}, {"e": [], "n": NAN}, {"e": [], "n": 2.5}]),
    # a float past 2**53 and a float32 column: written as their doubles
    ({"i": np.array([2.0 ** 60, 1e20, 2.5]),
      "s": np.array([0.1, -0.0, np.inf], dtype=np.float32)},
     [{"i": 2.0 ** 60, "s": float(np.float32(0.1))}, {"i": 1e20, "s": -0.0},
      {"i": 2.5, "s": np.inf}]),
    # a float column under a null mask, as the point table's sec_n_max: None
    # where the mask is set, NaN and inf where it is not
    (({"x": np.array([[0.5], [1.5], [2.5], [3.5]]),
       "n": np.array([NAN, NAN, np.inf, 2.5])},
      {"n": np.array([True, False, False, True])}),
     [{"x": [0.5], "n": None}, {"x": [1.5], "n": NAN}, {"x": [2.5], "n": np.inf},
      {"x": [3.5], "n": None}]),
])
def test_table_examples_serialize_as_their_records(columns, records):
    # columns, or columns with their null masks
    table = Table(*columns) if isinstance(columns, tuple) else Table(columns)
    assert_table_serializes_as_records(table, records)


@pytest.mark.parametrize("columns,null", [
    ({"x": [0.5, 1.5]}, None),
    ({"x": np.array([0.5, None], dtype=object)}, None),
    ({"x": np.arange(2)}, None),
    ({"x": np.zeros((2, 2))}, {"x": np.array([False, True])}),
], ids=["list", "object", "integer", "masked-2d"])
def test_table_refuses_other_columns(columns, null):
    # a table holds float arrays, 1-d or 2-d, and 1-d under a null mask
    with pytest.raises(TypeError):
        Table(columns, null)


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_table_of_empty_rows_serializes_as_its_records(rows):
    # no number slot in any record: every record is written, as its rows
    table = Table({"e": np.zeros((rows, 0)), "f%s": np.zeros((rows, 0))})
    assert_table_serializes_as_records(table, [{"e": [], "f%s": []}] * rows)


def test_one_row_table_text():
    table = Table({"x": np.array([[0.5, np.nan]]), "n": np.array([0.0]),
                   "t": np.array([-0.0])}, null={"n": np.array([True])})
    assert json_text({"points": table}) == (
        '{\n  "points": [\n    {\n      "x": [\n        0.5,\n        null\n      ],\n'
        '      "n": null,\n      "t": -0\n    }\n  ]\n}')
    assert csv_text({"points": table}) == (
        "section,name,field,value\npoint,0,x_0,0.5\npoint,0,x_1,null\n"
        "point,0,n,\npoint,0,t,-0\nruntime,,runtime_seconds,\n")


# Streaming: the CLI writes an artifact piece by piece to a file or stdout.
# Tables straddle the piece size R, so that the first, a middle and a last
# short piece are all written; 2R+1 ends on a piece of one record.
R = reporting.ROWS_PER_PIECE
PIECE_ROWS = [0, 1, R - 1, R, R + 1, 2 * R + 1, 4 * R + 1]
# 2.0 and R equal record indices, which the CSV writes as integers
CELLS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.0, 1.0, 2.0, float(R), 1e16, 1e17,
         1.0 / 3.0]


def streamed(fmt: str, payload: dict) -> tuple[bytes, bytes]:
    """The bytes ``cli._write_artifact`` writes to a file and to stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        cli._write_artifact(cli.RunConfig(format=fmt, output=path), payload, payload)
        with open(path, "rb") as f:
            to_file = f.read()
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        cli._write_artifact(cli.RunConfig(format=fmt), payload, payload)
    stdout.flush()
    return to_file, raw.getvalue()


def assert_streams_as_point_records(sweep):
    table, records = _point_table(sweep), point_records(sweep)
    for fmt, collect in (("json", lambda doc: json_text(doc) + "\n"),
                         ("csv", csv_text)):
        doc = {"config": {"scenario": "s"}, "points": table, "runtime_seconds": None}
        text = collect(doc)
        assert text == collect({**doc, "points": records})
        assert streamed(fmt, doc) == (text.encode(), text.encode())


def sweep_of(cells: dict, has_sec_n: np.ndarray) -> GridSweep:
    """A GridSweep with the given columns (coords and lambdas ``(N, m)``);
    the columns the report leaves out are zeros."""
    rows = len(has_sec_n)
    zeros = np.zeros(rows)
    return GridSweep(rank=np.zeros(rows, dtype=int), sec_m_max=zeros, sec_n_min=zeros,
                     has_sec_n=has_sec_n, metric_factor_res=zeros, **cells)


POINT_COLUMNS = ("trace_s", "a_norm_sq", "h_norm", "sec_m_min", "sec_n_max")


@settings(max_examples=40, deadline=None)
@given(rows=st.sampled_from(PIECE_ROWS), m=st.sampled_from([2, 3]),
       extra=st.lists(st.floats(), max_size=4), seed=st.integers(0, 2 ** 32 - 1),
       null_share=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
       mix=st.sampled_from(["palette", "rare", "pieces", "sliding"]))
@example(rows=4 * R + 1, m=2, extra=[], seed=1, null_share=0.0, mix="pieces")
@example(rows=4 * R + 1, m=3, extra=[], seed=2, null_share=0.01, mix="sliding")
def test_streamed_artifacts_equal_the_collected_text(rows, m, extra, seed, null_share,
                                                     mix):
    # through a file and through stdout, JSON and CSV, the streamed bytes are
    # the collected text and the records' text, at every piece boundary,
    # whether a piece's numbers repeat earlier ones or are new
    rng = np.random.default_rng(seed)
    palette = np.array(CELLS + extra)
    # 0.0 and -0.0 first: both in the first piece of every column
    pool = np.concatenate([[0.0, -0.0], rng.normal(size=600 * (rows // R) + 900)])

    def column(*shape):
        piece = (np.arange(rows) // R).reshape(-1, *[1] * (len(shape) - 1))
        cells = palette[rng.integers(len(palette), size=shape)]
        if mix == "rare":       # mostly new numbers, few null patterns
            cells = np.where(rng.random(shape) < 0.02, cells, rng.normal(size=shape))
        elif mix == "pieces":   # pieces of new numbers between pieces of repeats
            cells = np.where(piece % 2 == 1, rng.normal(size=shape), cells)
        elif mix == "sliding":  # 900 numbers a piece, 300 of the last piece's:
            # more distinct numbers in all than one piece has slots
            cells = pool[600 * piece + rng.integers(900, size=shape)]
        return cells

    cells = {"coords": column(rows, m), "lambdas": column(rows, m),
             **{name: column(rows) for name in POINT_COLUMNS}}
    assert_streams_as_point_records(sweep_of(cells, rng.random(rows) >= null_share))


@pytest.mark.parametrize("switch", ["none", "nan", "inf"])
@pytest.mark.parametrize("at", [R - 1, R, R + 1, 2 * R])
def test_null_pattern_change_at_a_piece_boundary(switch, at):
    # every record before ``at`` has one null pattern and every record from
    # it on another, so the template changes on the boundary row R or 2R
    rows = 2 * R + 1
    before = np.arange(rows) < at
    cells = {"coords": np.full((rows, 2), 0.5), "lambdas": np.full((rows, 2), -0.0),
             **{name: np.full(rows, 5e-324) for name in POINT_COLUMNS}}
    if switch != "none":
        cells["h_norm"] = np.where(before, 1.0 / 3.0, float(switch))
        cells["coords"][~before, 1] = -float(switch)
    assert_streams_as_point_records(
        sweep_of(cells, before if switch == "none" else np.ones(rows, dtype=bool)))


@pytest.fixture(scope="module")
def holo_table_120():
    sc = scen.get("holo-w2")
    sweep = sweep_geometry(sc.f, sc.grid_points((120, 120)), seed=0)
    return _point_table(sweep)


@pytest.mark.parametrize("encode", [canonical_json, lambda t, out: report_to_csv(
    {"points": t}, out)], ids=["json", "csv"])
def test_streamed_point_table_memory_is_a_fraction_of_the_artifact(
        encode, holo_table_120, tmp_path):
    # the encoder's live memory stays well below the text it writes: the
    # artifact is never held whole, nor copied
    path = tmp_path / "points"
    with open(path, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            encode(holo_table_120, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size / 4


class FailingFile:
    """A text file whose ``fail_at``-th write raises ENOSPC (0: none);
    counts its writes."""

    def __init__(self, path, fail_at):
        self.file = open(path, "w", encoding="utf-8")
        self.fail_at, self.writes = fail_at, 0

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.file.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_write_failing_part_way_exits_2(fmt, tmp_path, capsys, monkeypatch):
    argv = ["report", "--scenario", "holo-w2", "--grid", "30x30", "--format", fmt]
    files = []

    def fake_open(path, *args, fail_at=0, **kwargs):
        files.append(FailingFile(path, fail_at))
        return files[-1]

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    assert run([*argv, "--output", str(tmp_path / "whole")]) == 0
    capsys.readouterr()
    total = files[-1].writes
    assert total > 3
    for fail_at in (1, 2, total // 2, total):
        monkeypatch.setattr(cli, "open", functools.partial(fake_open, fail_at=fail_at),
                            raising=False)
        assert run([*argv, "--output", str(tmp_path / f"part{fail_at}")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write output file: [Errno {errno.ENOSPC}] "
            f"{os.strerror(errno.ENOSPC)}"]


def cli_process(argv: list[str], stdout) -> subprocess.Popen:
    """``graphgeo`` in a fresh process, writing its stdout to ``stdout``.

    Its stdout is block-buffered, as from a plain shell, whatever
    ``PYTHONUNBUFFERED`` the tests run under: a buffered stdout keeps the
    text of a failed flush, and unless the CLI then points stdout at the
    null device, Python's flush at exit fails on it again, prints "Exception
    ignored ..." and exits 120."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.Popen([sys.executable, "-m", "graphgeo.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_closed_stdout_pipe_exits_2(fmt):
    # the reader stops after a few bytes of a ~1 MB artifact
    proc = cli_process(["report", "--scenario", "holo-w2", "--grid", "60x60",
                        "--format", fmt], subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err.splitlines() == [
        f"error: cannot write to stdout: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"]


# every command's stdout: the artifacts, the identity suite's lines and the
# scenario catalog
STDOUT_COMMANDS = [
    ["report", "--scenario", "holo-w2", "--grid", "30x30"],
    ["report", "--scenario", "holo-w2", "--grid", "30x30", "--format", "csv"],
    ["check-theorem", "--scenario", "identity-s2", "--grid", "3x3"],
    ["verify-identities", "--scenario", "holo-w2"],
    ["list"],
]


@pytest.mark.parametrize("argv", STDOUT_COMMANDS[3:])
def test_a_pipe_closed_before_the_first_line_exits_2(argv):
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as pipe:
        proc = cli_process(argv, pipe)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.splitlines() == [
        f"error: cannot write to stdout: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", STDOUT_COMMANDS)
def test_stdout_on_a_full_device_exits_2(argv):
    with open("/dev/full", "w") as full:
        proc = cli_process(argv, full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.splitlines() == [
        f"error: cannot write to stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_full_device_exits_2(fmt, capsys):
    # the buffered file fails on a flush: mid-stream or at close
    code = run(["report", "--scenario", "holo-w2", "--grid", "30x30", "--format", fmt,
                "--output", "/dev/full"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        f"error: cannot write output file: [Errno {errno.ENOSPC}] "
        f"{os.strerror(errno.ENOSPC)}"]


nested_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20), any_float,
              st.text(alphabet='ab,;" ', max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(alphabet="k,", max_size=2),
                                            inner, max_size=3)),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(value=st.one_of(st.lists(nested_values, max_size=3),
                       st.dictionaries(st.text(alphabet="k,", max_size=2),
                                       nested_values, max_size=3)))
def test_nested_csv_cell_is_the_parsed_json_text(value):
    # a nested cell holds the values its canonical JSON text parses back to
    want = json.dumps(json.loads(json_text(value)),
                      separators=(";", ":")).replace(",", ";")
    assert _csv_cell(value) == want
