import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphgeo import cli
from graphgeo import scenarios as scen
from graphgeo.cli import _point_table, main
from graphgeo.identities import DEFAULT_IDENTITY_TOLERANCES
from graphgeo.theorem_gate import DEFAULT_TOLERANCES, GridSweep
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


def test_report_timing_lines_cover_serialization(tmp_path, capsys, monkeypatch):
    # stderr times the whole command and its serialization; the artifact
    # carries no timing
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["report", "--scenario", "holo-w2", "--grid", "5x5", "--seed", "7"]
    assert run([*argv, "--output", str(a)]) == 0
    capsys.readouterr()

    encode = cli._encode

    def slow_encode(*args):
        time.sleep(0.2)
        return encode(*args)

    monkeypatch.setattr(cli, "_encode", slow_encode)
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
    write = cli._write_output

    def slow_write(*args):
        time.sleep(0.2)
        return write(*args)

    monkeypatch.setattr(cli, "_write_output", slow_write)
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


def _collect_numbers(obj, path=""):
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_collect_numbers(v, f"{path}.{k}" if path else k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(_collect_numbers(v, f"{path}_{i}"))
    elif isinstance(obj, float) and not isinstance(obj, bool):
        out[path] = obj
    return out


def test_csv_and_json_numeric_round_trip(tmp_path, capsys):
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    run(["report", "--scenario", "holo-w2", "--grid", "4x4",
         "--output", str(jpath), "--format", "json"])
    run(["report", "--scenario", "holo-w2", "--grid", "4x4",
         "--output", str(cpath), "--format", "csv"])
    capsys.readouterr()

    report = json.loads(jpath.read_text())
    json_numbers = _collect_numbers(report)

    csv_numbers = {}
    lines = cpath.read_text().splitlines()[1:]
    for line in lines:
        section, name, fieldname, value = line.split(",", 3)
        try:
            csv_numbers[(section, name, fieldname)] = float(value)
        except ValueError:
            continue

    # every per-point numeric value appears identically in both encodings
    for idx, rec in enumerate(report["points"]):
        for key in ("trace_s", "a_norm_sq", "h_norm", "sec_m_min"):
            jval = rec[key]
            cval = csv_numbers[("point", str(idx), key)]
            if jval is None:
                continue
            assert np.isclose(cval, jval, rtol=1e-15, atol=0.0)
        for i, x in enumerate(rec["x"]):
            assert csv_numbers[("point", str(idx), f"x_{i}")] == x
        for i, lam in enumerate(rec["lambda"]):
            assert np.isclose(csv_numbers[("point", str(idx), f"lambda_{i}")],
                              lam, rtol=1e-15, atol=0.0)
    for entry in report["identities"]:
        cval = csv_numbers[("identity", entry["name"], "max_residual")]
        assert np.isclose(cval, entry["max_residual"], rtol=1e-15, atol=5e-324)


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
])
@pytest.mark.parametrize("command", ["check-theorem", "verify-identities"])
def test_non_finite_and_unknown_settings_rejected(command, extra, capsys):
    code = run([command, "--scenario", "identity-s2", "--grid", "3x3", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")


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
])
@pytest.mark.parametrize("command", ["report", "check-theorem"])
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
        "sigma": st.one_of(text, st.booleans(), st.just(float("nan"))),
        "tolerances": st.one_of(text, st.lists(st.integers(), max_size=2),
                                st.dictionaries(text.filter(
                                    lambda k: k not in DEFAULT_TOLERANCES
                                    and k not in DEFAULT_IDENTITY_TOLERANCES),
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

def test_canonical_json_float_precision():
    x = 0.1 + 0.2
    text = canonical_json({"v": x})
    assert json.loads(text)["v"] == x


def test_canonical_json_is_valid_json():
    doc = {"a": [1, 2.5, None, True], "b": {"c": "text, with comma"},
           "d": float(np.float64(1.0) / 3.0)}
    parsed = json.loads(canonical_json(doc))
    assert parsed["d"] == 1.0 / 3.0


def test_csv_emits_17_digit_floats():
    report = {"config": {"x": 1.0 / 3.0}, "points": [], "identities": [],
              "hypotheses": {}, "classification": {}, "runtime_seconds": None}
    text = report_to_csv(report)
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
                                              max_size=rows)), dtype=bool))
    table, records = _point_table(sweep), point_records(sweep)
    assert canonical_json(table) == canonical_json(records)
    assert (canonical_json({"config": {}, "points": table, "runtime_seconds": None})
            == canonical_json({"config": {}, "points": records, "runtime_seconds": None}))
    assert report_to_csv({"points": table}) == report_to_csv({"points": records})


# Tables whose columns are not all floats: each kind of column with the
# Python value of its row ``i``, the form its record must serialize to.
def column_kinds(data, rows):
    def floats(*shape):
        size = int(np.prod(shape))
        values = data.draw(st.lists(any_float, min_size=size, max_size=size))
        return np.array(values, dtype=float).reshape(shape)

    width = data.draw(st.integers(0, 3))
    ints = data.draw(st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=rows,
                              max_size=rows))
    texts = data.draw(st.lists(st.text(alphabet='ab,%"\n', max_size=3),
                               min_size=rows, max_size=rows))
    nested = data.draw(st.lists(st.lists(st.lists(any_float, max_size=2), max_size=2),
                                min_size=rows, max_size=rows))
    mixed = data.draw(st.lists(st.one_of(st.none(), any_float), min_size=rows,
                               max_size=rows))
    f1, f2 = floats(rows), floats(rows, width)
    return {
        "float": (f1, lambda i: float(f1[i])),
        "rows": (f2, lambda i: [float(v) for v in f2[i]]),
        "int": (np.array(ints, dtype=object) if data.draw(st.booleans()) else ints,
                lambda i: ints[i]),
        "small-int": (np.arange(rows), lambda i: i),
        "str": (texts, lambda i: texts[i]),
        "nested": (nested, lambda i: nested[i]),
        "mixed": (np.array(mixed, dtype=object) if data.draw(st.booleans()) else mixed,
                  lambda i: mixed[i]),
    }


def assert_table_serializes_as_records(table, records):
    assert canonical_json(table) == canonical_json(records)
    assert (canonical_json({"config": {}, "points": table, "runtime_seconds": None})
            == canonical_json({"config": {}, "points": records, "runtime_seconds": None}))
    assert report_to_csv({"points": table}) == report_to_csv({"points": records})


@settings(max_examples=120, deadline=None)
@given(data=st.data(), rows=st.one_of(st.sampled_from([0, 1]), st.integers(0, 6)))
def test_any_table_serializes_as_its_records(data, rows):
    kinds = column_kinds(data, rows)
    chosen = data.draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                                max_size=4, unique=True))
    keys = data.draw(st.lists(st.text(alphabet='k%,"', min_size=1, max_size=3),
                              min_size=len(chosen), max_size=len(chosen), unique=True))
    table = Table({key: kinds[kind][0] for key, kind in zip(keys, chosen)})
    records = [{key: kinds[kind][1](i) for key, kind in zip(keys, chosen)}
               for i in range(rows)]
    assert_table_serializes_as_records(table, records)


NAN = float("nan")


@pytest.mark.parametrize("columns,records", [
    # one row
    ({"x": np.array([[0.1, -0.0]]), "t": np.array([np.inf]),
      "n%s": np.array([None], dtype=object)},
     [{"x": [0.1, -0.0], "t": np.inf, "n%s": None}]),
    # every row null in one column: the constant maps' sec_n_max
    ({"x": np.array([[1.0], [2.0], [3.0]]), "t": np.array([1 / 3, 5e-324, 1e17]),
      "n": np.array([None, None, None], dtype=object)},
     [{"x": [1.0], "t": 1 / 3, "n": None}, {"x": [2.0], "t": 5e-324, "n": None},
      {"x": [3.0], "t": 1e17, "n": None}]),
    # None, NaN and a number in one column, an empty row in another
    ({"e": np.zeros((3, 0)), "n": [None, NAN, 2.5]},
     [{"e": [], "n": None}, {"e": [], "n": NAN}, {"e": [], "n": 2.5}]),
])
def test_table_examples_serialize_as_their_records(columns, records):
    assert_table_serializes_as_records(Table(columns), records)


def test_one_row_table_text():
    table = Table({"x": np.array([[0.5, np.nan]]), "n": np.array([None], dtype=object),
                   "t": np.array([-0.0])})
    assert canonical_json({"points": table}) == (
        '{\n  "points": [\n    {\n      "x": [\n        0.5,\n        null\n      ],\n'
        '      "n": null,\n      "t": -0\n    }\n  ]\n}')
    assert report_to_csv({"points": table}) == (
        "section,name,field,value\npoint,0,x_0,0.5\npoint,0,x_1,null\n"
        "point,0,n,\npoint,0,t,-0\nruntime,,runtime_seconds,\n")


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
    want = json.dumps(json.loads(canonical_json(value)),
                      separators=(";", ":")).replace(",", ";")
    assert _csv_cell(value) == want
