"""Self-test of the benchmark on tiny grids.

    python3 perfbench/selftest.py

Records a reference for tiny variants of the three workloads, runs each
workload once untraced and once traced against it, and fails unless every
metric named in ``BENCHMARK.json`` is emitted with its unit and every output
passes.  It then checks that the checker flags a tampered reference value, a
wrong verdict, a wrong identity status, a wrong exit code and a NaN as
failures, and that the tracer wraps and restores every namespace and reports
a vanished target instead of failing.
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import sys
import tempfile

import run
from checker import check_call, load_reference
from record import record_workload, run_call
from workloads import workloads


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def _check(ref: dict, call, seed: int, exit_code, doc: dict, path: str) -> list[str]:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return check_call(ref["calls"][call.key], ref["recorded_seed"],
                      list(call.argv), seed, exit_code, path)


def check_metrics(tmp: str, tiny: dict) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in tiny.values():
        for trace, units in wanted.items():
            result = run.run_benchmark(w, seed=0, seconds=1, trace=trace,
                                       ref_dir=tmp, log=io.StringIO())
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= len(w.calls),
                   f"{w.name} (trace={trace}) did not pass: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == units, f"{w.name} (trace={trace}) metrics differ: "
                   f"missing {sorted(set(units) - set(got))}, "
                   f"extra {sorted(set(got) - set(units))}")
            if trace:
                per_pt = result["metrics"]["chart_manifold.metric_jet.per_pt"]["value"]
                expect(per_pt > 0 if w.points else per_pt == 0,
                       f"{w.name}: metric jets per point {per_pt}")
        print(f"selftest: {w.name} emits every metric with its unit")
    result = run.run_benchmark(tiny["report-holo-2d"], seed=1, seconds=1,
                               trace=False, ref_dir=tmp, log=io.StringIO())
    expect(result["correct"], "seed-invariant leaves differ at another seed")


def check_checker(tmp: str, tiny: dict) -> None:
    out = os.path.join(tmp, "out.json")
    report = tiny["report-holo-2d"]
    ref = load_reference(tmp, report.name)
    call = report.calls[0]
    for seed in (0, 1):
        exit_code, doc = run_call(call, seed, out)
        expect(not _check(ref, call, seed, exit_code, doc, out),
               f"untampered report flagged at seed {seed}")

        bad_ref = copy.deepcopy(ref)
        column = bad_ref["calls"][call.key]["leaves"]["points[*].trace_s"]
        column[3] *= 1.0 + 1e-9
        expect(_check(bad_ref, call, seed, exit_code, doc, out),
               f"tampered reference value passed at seed {seed}")

        bad = copy.deepcopy(doc)
        bad["identities"][0]["max_residual"] = None       # how the CLI writes NaN
        expect(_check(ref, call, seed, exit_code, bad, out),
               f"NaN residual passed at seed {seed}")

        bad = copy.deepcopy(doc)
        bad["identities"][0]["max_residual"] = float("nan")
        expect(_check(ref, call, seed, exit_code, bad, out),
               f"NaN token passed at seed {seed}")

        bad = copy.deepcopy(doc)
        bad["classification"]["verdict"] = "indeterminate"
        expect(_check(ref, call, seed, exit_code, bad, out),
               f"wrong verdict passed at seed {seed}")

        bad = copy.deepcopy(doc)
        bad["identities"][0]["skipped_reason"] = "not applicable"
        expect(_check(ref, call, seed, exit_code, bad, out),
               f"wrong identity status passed at seed {seed}")

    gate = tiny["gate-sphere-3d"]
    ref = load_reference(tmp, gate.name)
    call = gate.calls[0]
    exit_code, doc = run_call(call, 0, out)
    bad = copy.deepcopy(doc)
    bad["classification"]["verdict"] = "constant"
    expect(_check(ref, call, 0, exit_code, bad, out), "wrong gate verdict passed")
    expect(_check(ref, call, 0, 1, doc, out), "wrong exit code passed")
    print("selftest: the checker flags tampered references, wrong verdicts, "
          "wrong statuses, wrong exit codes and NaNs")


def check_tracer() -> None:
    """Install and uninstall on the real package, with one vanished target."""
    import graphgeo.chart_manifold as cm
    import graphgeo.identities as ids
    from tracer import LAYERS, Layer, Tracer

    originals = (cm.sym_eigen, ids.sym_eigen, cm.ChartManifold.__dict__["jet"])
    gone = Layer("chart_manifold.gone", ("chart_manifold:no_such_function",
                                         "chart_manifold:NoSuchClass.jet"), "none")
    tracer = Tracer(layers=LAYERS + (gone,))
    tracer.install()
    expect(cm.sym_eigen is ids.sym_eigen and cm.sym_eigen is not originals[0],
           "sym_eigen is not wrapped in every namespace that holds it")
    expect(cm.ChartManifold.__dict__["jet"] is not originals[2],
           "ChartManifold.jet is not wrapped")
    tracer.uninstall()
    expect((cm.sym_eigen, ids.sym_eigen, cm.ChartManifold.__dict__["jet"])
           == originals, "uninstall did not restore the originals")
    expect(tracer.absent == list(gone.targets), f"absent: {tracer.absent}")
    print("selftest: the tracer wraps every namespace, restores them and "
          "reports vanished targets")


def main() -> int:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
    try:
        tiny = workloads(tiny=True)
        for w in tiny.values():
            record_workload(w, [0, 1], tmp, tmp)
        check_metrics(tmp, tiny)
        check_checker(tmp, tiny)
        check_tracer()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(run.WORK_ROOT)
        except OSError:
            pass
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
