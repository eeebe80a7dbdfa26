"""Record the reference outputs the checker compares against.

    python3 perfbench/record.py

Runs every CLI call of each workload in this process at a range of seeds and
writes ``reference/<workload>.json.gz``: all output leaves at the first seed
(the recorded seed), and the leaves that came out identical at every seed.
Run it only on a commit whose outputs are known to be right; the stored
reference is what later commits are held to.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import shutil
import sys
import tempfile

from checker import EXIT_LEAF, flatten
from workloads import Call, Workload, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seeds per workload.  The identity suite is cheap and its statuses can
#: depend on the seed, so it gets a wider scan.
SEEDS = {"report-holo-2d": range(10), "gate-sphere-3d": range(10),
         "identities-registry": range(35)}


def run_call(call: Call, seed: int, out: str) -> tuple[int, dict]:
    """Run one CLI call in this process; returns its exit code and output."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from graphgeo import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        exit_code = cli.main(call.full_argv(seed, out))
    with open(out, encoding="utf-8") as fh:
        return exit_code, json.load(fh)


def record_workload(w: Workload, seeds, ref_dir: str, work_dir: str) -> str:
    seeds = list(seeds)
    out = os.path.join(work_dir, "out.json")
    calls = {}
    for call in w.calls:
        per_seed = []
        for seed in seeds:
            exit_code, doc = run_call(call, seed, out)
            leaves = flatten(doc)
            leaves[EXIT_LEAF] = exit_code
            per_seed.append(leaves)
        first = per_seed[0]
        calls[call.key] = {
            "argv": list(call.argv),
            "leaves": first,
            "invariant": [path for path, value in first.items()
                          if all(other.get(path) == value for other in per_seed[1:])],
        }
    reference = {"workload": w.name, "recorded_seed": seeds[0], "seeds": seeds,
                 "calls": calls}
    path = os.path.join(ref_dir, f"{w.name}.json.gz")
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(reference, separators=(",", ":")).encode("utf-8"))
    return path


def main() -> int:
    ref_dir = os.path.join(HERE, "reference")
    os.makedirs(ref_dir, exist_ok=True)
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=work_root)
    try:
        for name, w in workloads().items():
            print(record_workload(w, SEEDS[name], ref_dir, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
