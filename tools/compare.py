"""Compare the CLI's behaviour at a base revision with the working tree.

Usage::

    python tools/compare.py --base REV [--expect REGEX] [--seeds 0,7,12001,1099511627776]

The base tree is a ``git archive`` of ``REV``; the other tree is this
checkout, uncommitted changes included.  Both run one fixed matrix of CLI
calls, each in a fresh process without bytecode (``PYTHONDONTWRITEBYTECODE=1``)
and in a directory of its own:

* the 12 scenarios of ``graphgeo list`` × {``report`` JSON, ``report`` CSV,
  ``verify-identities``, ``check-theorem``} × the seeds (default 0, 7, 12001
  and 2**40), each with ``--output``;
* at seed 0, ``list``, holo-w2 ``report`` at 60x60 and at 300x300, each in
  JSON and in CSV, identity-s3 ``check-theorem`` at 12x12x12 and at
  30x30x30, proj-s3-s1 ``check-theorem`` at 12x12x12, and three ``--tol``
  runs of ``verify-identities``: holo-w2 ``minimality=1e-30``, holo-w3
  ``gate_slack=100`` and proj-s3-s1 ``minimality=0.7``;
* with seed 0, the CLI's error cases (:data:`ERRORS`): a malformed
  ``--grid``, an unknown flag, an unknown scenario, ``verify-identities
  --h 30`` (out of chart, exit 3), ``--sigma 1e308`` and ``--kappa-margin
  1e200`` on ``check-theorem`` and ``verify-identities``, and a config file
  with ``"h": null``.  Each writes no artifact: its exit code and its one
  stderr line are what is compared.

For every call it compares the exit code, stdout, stderr (with the
``name: X.XXs`` timings masked) and the artifact's bytes.  Where a JSON or
CSV artifact differs, it prints each moved leaf with the number of values
that moved and their largest absolute and relative change.  A leaf's name
drops the index of a record (a point row: ``points[*].trace_s``) and keeps
a named record's name (``identities[elliptic-equation].max_residual``).

A moved leaf or stdout line is expected when ``--expect`` matches (``re.search``)
its line ``<call> <where>``.  The exit status is 0 when nothing moved but
expected leaves, 1 when an exit code or stderr changed or a leaf moved that
``--expect`` does not match, and 2 when the base tree cannot be made.
``--expect .`` thus reports every move and fails only on an exit-code or
stderr change.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# runs the CLI of the tree given as the first argument, and refuses to run
# another copy of graphgeo (an installed one, say) in its place
RUNNER = ("import sys\n"
          "tree = sys.argv.pop(1)\n"
          "import graphgeo\n"
          "if not graphgeo.__file__.startswith(tree):\n"
          "    sys.exit(f'compare: graphgeo loaded from {graphgeo.__file__}, not {tree}')\n"
          "from graphgeo.cli import main\n"
          "sys.exit(main(sys.argv[1:]))\n")
TIMING = re.compile(r"(?m)^([\w-]+): \d+\.\d+s$")
WORKERS = 2
TIMEOUT_S = 600


# the seed-0 calls beside the scenario × command × seed grid, each naming
# its artifact; the 300x300 reports write their point table in ~350 pieces
FIXED = [("report", "--scenario", "holo-w2", "--grid", "60x60", "--output", "out.json"),
         ("report", "--scenario", "holo-w2", "--grid", "60x60", "--format", "csv",
          "--output", "out.csv"),
         ("report", "--scenario", "holo-w2", "--grid", "300x300", "--output", "out.json"),
         ("report", "--scenario", "holo-w2", "--grid", "300x300", "--format", "csv",
          "--output", "out.csv"),
         ("check-theorem", "--scenario", "identity-s3", "--grid", "12x12x12",
          "--output", "out.json"),
         ("check-theorem", "--scenario", "identity-s3", "--grid", "30x30x30",
          "--output", "out.json"),
         ("check-theorem", "--scenario", "proj-s3-s1", "--grid", "12x12x12",
          "--output", "out.json"),
         ("verify-identities", "--scenario", "holo-w2", "--tol", "minimality=1e-30",
          "--output", "out.json"),
         ("verify-identities", "--scenario", "holo-w3", "--tol", "gate_slack=100",
          "--output", "out.json"),
         ("verify-identities", "--scenario", "proj-s3-s1", "--tol", "minimality=0.7",
          "--output", "out.json")]

# the error cases of the seed-0 part, each exiting 2 (or 3, out of chart)
# with one stderr line; a call names the config files of FILES it reads
ERRORS = [("report", "--scenario", "holo-w2", "--grid", "20x"),
          ("check-theorem", "--scenario", "holo-w2", "--bogus", "1"),
          ("check-theorem", "--scenario", "nope"),
          ("verify-identities", "--scenario", "identity-s3", "--h", "30"),
          ("check-theorem", "--scenario", "identity-s2", "--sigma", "1e308"),
          ("verify-identities", "--scenario", "identity-s2", "--sigma", "1e308"),
          ("check-theorem", "--scenario", "identity-s2", "--kappa-margin", "1e200"),
          ("verify-identities", "--scenario", "identity-s3", "--kappa-margin", "1e200"),
          ("check-theorem", "--scenario", "identity-s2", "--config", "null-h.json")]
FILES = {"null-h.json": '{"h": null}\n'}


def matrix(scenarios: list[str], seeds: list[int]) -> list[tuple[str, ...]]:
    """The CLI calls, each an argv whose artifact (if any) is ``out.json`` or
    ``out.csv`` in its working directory."""
    calls = [("list",)] if 0 in seeds else []
    for seed in seeds:
        for name in scenarios:
            base = ("--scenario", name, "--seed", str(seed))
            calls += [("report", *base, "--output", "out.json"),
                      ("report", *base, "--format", "csv", "--output", "out.csv"),
                      ("verify-identities", *base, "--output", "out.json"),
                      ("check-theorem", *base, "--output", "out.json")]
    if 0 in seeds:
        calls += [(*call, "--seed", "0") for call in FIXED] + ERRORS
    return calls


def run(tree: Path, argv: tuple[str, ...], workdir: Path) -> dict:
    """One call in a fresh process: exit code, stdout, masked stderr and the
    artifact's bytes (None when there is none)."""
    workdir.mkdir(parents=True)
    for name in FILES.keys() & set(argv):
        (workdir / name).write_text(FILES[name], encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src"), *argv],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(argv, f"timeout after {TIMEOUT_S} s", "", "")
    output = argv[argv.index("--output") + 1] if "--output" in argv else None
    path = workdir / output if output else None
    return {"exit": proc.returncode, "stdout": proc.stdout,
            "stderr": TIMING.sub(r"\1: <time>", proc.stderr),
            "artifact": path.read_bytes() if path and path.exists() else None,
            "name": output}


def _leaves(doc, prefix: str = "") -> dict:
    """``{leaf name: [values]}`` of a parsed JSON document, grouped as the
    module docstring says."""
    out = {}

    def walk(x, key):
        if isinstance(x, dict):
            for k, v in x.items():
                walk(v, f"{key}.{k}" if key else str(k))
        elif isinstance(x, list):
            for i, v in enumerate(x):
                if isinstance(v, dict):
                    walk(v, f"{key}[{v['name']}]" if isinstance(v.get("name"), str)
                         else f"{key}[*]")
                else:
                    walk(v, f"{key}[{i}]")
        else:
            out.setdefault(key, []).append(x)

    walk(doc, prefix)
    return out


def _csv_leaves(text: str) -> dict:
    """``{leaf name: [values]}`` of a CSV artifact (``section,name,field,value``
    rows): a row's leaf is its non-empty columns but ``value``, a purely
    numeric one (a point's index) read as ``*``."""
    out = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = ".".join("*" if v.isdigit() else v for k, v in row.items() if k != "value" and v)
        try:
            value = float(row["value"])
        except ValueError:
            value = row["value"]
        out.setdefault(key, []).append(value)
    return out


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def leaf_moves(name: str, base: bytes, head: bytes) -> list[str]:
    """One line per leaf of the artifact ``name`` whose values differ
    between ``base`` and ``head``: how many moved and, for numbers, the
    largest absolute and relative change.  Equal documents give none."""
    if base == head:
        return []
    try:
        if name.endswith(".csv"):
            old, new = _csv_leaves(base.decode()), _csv_leaves(head.decode())
        else:
            old, new = _leaves(json.loads(base)), _leaves(json.loads(head))
    except (ValueError, TypeError, UnicodeDecodeError, KeyError):
        return ["bytes differ (not parsed)"]
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, []), new.get(key, [])
        if len(a) != len(b):
            lines.append(f"{key}: {len(a)} values -> {len(b)}")
            continue
        moved = [(x, y) for x, y in zip(a, b) if x != y and not (x != x and y != y)]
        if not moved:
            continue
        numeric = [(x, y) for x, y in moved if _number(x) and _number(y)
                   and math.isfinite(x) and math.isfinite(y)]
        line = f"{key}: {len(moved)} of {len(a)} moved"
        if len(numeric) == len(moved):
            abs_d = max(abs(y - x) for x, y in numeric)
            rel_d = max(abs(y - x) / max(abs(x), abs(y)) for x, y in numeric)
            line += f", max |d| {abs_d:.3g}, max rel {rel_d:.3g}"
        else:
            x, y = next((x, y) for x, y in moved if (x, y) not in numeric)
            line += f", e.g. {x!r} -> {y!r}"
        lines.append(line)
    return lines or ["bytes differ, every leaf equal (formatting)"]


def stdout_moves(base: str, head: str) -> list[str]:
    """One line per stdout line that differs."""
    a, b = base.splitlines(), head.splitlines()
    lines = [f"stdout line {i + 1}: {x!r} -> {y!r}"
             for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if len(a) != len(b):
        lines.append(f"stdout: {len(a)} lines -> {len(b)}")
    return lines


def compare(base: dict, head: dict) -> tuple[list[str], list[str]]:
    """``(hard, moves)``: exit-code and stderr changes, which always fail,
    and moved stdout lines and artifact leaves, which ``--expect`` may match."""
    hard = []
    if base["exit"] != head["exit"]:
        hard.append(f"exit code {base['exit']} -> {head['exit']}")
    if base["stderr"] != head["stderr"]:
        hard.append(f"stderr {base['stderr']!r} -> {head['stderr']!r}")
    moves = stdout_moves(base["stdout"], head["stdout"])
    a, b = base["artifact"], head["artifact"]
    if (a is None) != (b is None):
        moves.append(f"{base['name']}: present only in {'base' if b is None else 'head'}")
    elif a is not None:
        moves += [f"{base['name']}: {line}" for line in leaf_moves(base["name"], a, b)]
    return hard, moves


def export(rev: str, dest: Path) -> None:
    """Unpack ``git archive REV`` of this repository into ``dest``."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True)
    if proc.returncode:
        raise RuntimeError(f"git archive {rev} failed: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--expect", type=re.compile, default=None,
                        help="regex of the '<call> <where>' lines that may move")
    parser.add_argument("--seeds", default=f"0,7,12001,{2 ** 40}",
                        type=lambda text: [int(s) for s in text.split(",")],
                        help="comma-separated seeds of the matrix (default 0,7,12001,2**40)")
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="graphgeo-compare-"))
    try:
        try:
            export(args.base, scratch / "base")
        except RuntimeError as exc:
            print(f"compare: {exc}", file=sys.stderr)
            return 2
        trees = {"base": scratch / "base", "head": ROOT}
        listed = run(ROOT, ("list",), scratch / "runs" / "list")["stdout"]
        scenarios = re.findall(r"(?m)^(\S+) +\d+->\d+ ", listed)
        if not scenarios:
            print("compare: `graphgeo list` named no scenario", file=sys.stderr)
            return 2
        calls = matrix(scenarios, args.seeds)
        jobs = [(side, i) for i in range(len(calls)) for side in trees]
        with ThreadPoolExecutor(WORKERS) as pool:
            results = dict(zip(jobs, pool.map(
                lambda job: run(trees[job[0]], calls[job[1]], scratch / "runs" / job[0] / str(job[1])),
                jobs)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = expected = 0
    for i, argv in enumerate(calls):
        hard, moves = compare(results["base", i], results["head", i])
        label = " ".join(a for a in argv if a not in ("--output", "out.json", "out.csv"))
        for line in hard:
            print(f"CHANGED  {label}: {line}")
        for line in moves:
            ok = args.expect is not None and bool(args.expect.search(f"{label} {line}"))
            print(f"{'expected' if ok else 'MOVED   '} {label}: {line}")
            expected, failed = expected + ok, failed + (not ok)
        failed += len(hard)
    print(f"compare: {len(calls)} calls at {args.base} and in the working tree; "
          f"{expected} expected moves, {failed} unexpected changes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
