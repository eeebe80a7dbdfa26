"""``tools/compare.py``'s leaf differ on synthetic documents: a one-ulp
move is reported with its size, and equal documents print nothing."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare.py"
spec = importlib.util.spec_from_file_location("compare_tool", TOOL)
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)

X = 0.1 + 0.2
DOC = {"config": {"seed": 0, "grid": [20, 20]},
       "points": [{"x": [0.5, -0.5], "trace_s": X}, {"x": [0.5, 0.5], "trace_s": -X}],
       "identities": [{"name": "elliptic-equation", "max_residual": 3e-6, "pass": True}],
       "runtime_seconds": None}


def dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def test_equal_documents_give_no_line():
    assert compare.leaf_moves("out.json", dumps(DOC), dumps(json.loads(dumps(DOC)))) == []
    text = b"section,name,field,value\npoint,0,trace_s,0.3\n"
    assert compare.leaf_moves("out.csv", text, text) == []


def test_a_one_ulp_move_is_reported_with_its_size():
    moved = json.loads(dumps(DOC))
    moved["points"][1]["trace_s"] = math.nextafter(-X, 0.0)
    lines = compare.leaf_moves("out.json", dumps(DOC), dumps(moved))
    ulp = math.ulp(X)
    assert lines == [f"points[*].trace_s: 1 of 2 moved, max |d| {ulp:.3g}, "
                     f"max rel {ulp / X:.3g}"]


def test_a_named_record_keeps_its_name_and_a_flag_its_values():
    moved = json.loads(dumps(DOC))
    moved["identities"][0].update(max_residual=math.nextafter(3e-6, 1.0), **{"pass": False})
    lines = compare.leaf_moves("out.json", dumps(DOC), dumps(moved))
    assert [line.split(":")[0] for line in lines] == [
        "identities[elliptic-equation].max_residual", "identities[elliptic-equation].pass"]
    assert lines[1].endswith("e.g. True -> False")


@pytest.mark.parametrize("value", ["0.30000000000000004", "nan"])
def test_a_csv_value_move_is_reported_under_its_row_key(value):
    base = b"section,name,field,value\nconfig,,seed,0\npoint,0,trace_s,0.30000000000000004\n"
    head = base.replace(b"0.30000000000000004", b"0.30000000000000009")
    if value == "nan":
        head = base.replace(b"0.30000000000000004", b"nan")
    lines = compare.leaf_moves("out.csv", base, head)
    assert len(lines) == 1 and lines[0].startswith("point.*.trace_s: 1 of 1 moved")


def test_exit_code_and_stderr_changes_are_hard_and_stdout_moves_are_not():
    base = {"exit": 0, "stdout": "[PASS] a\n", "stderr": "runtime: <time>\n",
            "artifact": None, "name": None}
    head = {**base, "exit": 1, "stdout": "[FAIL] a\n"}
    hard, moves = compare.compare(base, head)
    assert hard == ["exit code 0 -> 1"]
    assert moves == ["stdout line 1: '[PASS] a' -> '[FAIL] a'"]
    assert compare.TIMING.sub(r"\1: <time>", "runtime: 0.03s\nserialize: 1.20s\n") == \
        "runtime: <time>\nserialize: <time>\n"
