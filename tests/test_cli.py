import json

import numpy as np
import pytest

from graphgeo.cli import main
from graphgeo.reporting import canonical_json, report_to_csv


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


@pytest.mark.parametrize("extra", [
    ["--h", "nan"], ["--h", "inf"], ["--c", "nan"], ["--c=-inf"],
    ["--sigma", "nan"], ["--sigma", "inf"], ["--kappa-margin", "nan"],
    ["--tol", "gate_slack=nan"], ["--tol", "elliptic=inf"],
    ["--tol", "gate_slak=1e-3"],
])
@pytest.mark.parametrize("command", ["check-theorem", "verify-identities"])
def test_non_finite_and_unknown_settings_rejected(command, extra, capsys):
    code = run([command, "--scenario", "identity-s2", "--grid", "3x3", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
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
