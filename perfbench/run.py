"""Benchmark of the graphgeo command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``NAME`` is ``report-holo-2d``,
``gate-sphere-3d``, ``identities-registry`` or ``all``.  Every pass of a
workload is one fresh single-threaded child process (``child.py``) that imports
graphgeo from the checkout's ``src/`` and calls ``graphgeo.cli.main``; passes
run strictly one after another.  After each pass the parent checks every
output against the stored reference (``checker.py``).  Times are rescaled to
a reference core speed measured by ``calibrator.py`` beside the passes.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics
(``tracer.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table and the run record.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checker import check_call, load_reference
from tracer import LAYERS
from workloads import Workload, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CALIBRATOR = os.path.join(HERE, "calibrator.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: Set-up-only child processes per run, on top of the set-up of every pass.
SETUP_PROBES = 5
#: Passes per untraced run, even when they take longer than ``--seconds``.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
#: Largest share of traced wall time the spans may leave unaccounted.
GAP_WARN = 1e-3
#: Calibration chunk cost (CPU seconds) of the reference core, about that of
#: the test host in its fast state.  Timings are reported as seconds on a core
#: where one chunk of ``calibrator.py`` costs this much; the table also prints
#: the raw wall times.
REFERENCE_CHUNK_S = 3e-4
#: Share of chunk costs dropped at each end before averaging; a chunk cut by
#: a context switch pays for refilled caches.
TRIM = 0.1
#: Fewest chunks a cost is averaged over; short intervals are widened.
MIN_CHUNKS = 5

#: Environment of every child: one BLAS/OpenMP thread, fixed hash seed.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "points_per_s": "1/s",
                    "peak_rss_mb": "MB", "pass_frac": "ratio"}
STAT_UNITS = {"calls": "count", "self_s": "s", "errors": "count",
              "per_pt": "calls/pt", "useful_frac": "ratio", "bytes": "B"}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child(spec: dict) -> dict:
    env = {**os.environ, **CHILD_ENV}
    spec = {**spec, "root": ROOT, "t0": time.monotonic()}
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child process exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child process failed ({proc.returncode}):\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "t0": spec["t0"]}


def _setup_probe(w: Workload) -> dict:
    return _child({"setup_only": True, "trace": False,
                   "scenarios": list(w.scenarios), "calls": []})


def _run_pass(w: Workload, seed: int, work: str, ref: dict, trace: bool) -> dict:
    outputs = [os.path.join(work, f"call{i}.json") for i in range(len(w.calls))]
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    res = _child({"setup_only": False, "trace": trace,
                  "scenarios": list(w.scenarios),
                  "calls": [c.full_argv(seed, out) for c, out in zip(w.calls, outputs)]})
    res["failures"] = []
    for call, out, rec in zip(w.calls, outputs, res["calls"]):
        problems = check_call(ref["calls"][call.key], ref["recorded_seed"],
                              list(call.argv), seed, rec["exit"], out)
        if problems:
            res["failures"].append((call.key, problems))
    return res


# ---------------------------------------------------------------------------
# Core speed calibration
# ---------------------------------------------------------------------------

def _pin_to_one_cpu() -> set[int] | None:
    """Pin this process, and so its children, to one CPU; returns the old set."""
    try:
        old = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(old)})
    except (AttributeError, OSError):
        return None
    return old


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k])


class Rescaler:
    """Wall time of an interval -> seconds on the reference core."""

    def __init__(self, samples: list[list[float]]):
        if not samples:
            raise BenchError("the calibrator recorded no samples")
        self.samples = sorted(samples)
        self.starts = [s[0] for s in self.samples]
        self.used: list[float] = []

    def cost(self, t0: float, t1: float) -> float:
        """Chunk cost during [t0, t1], widened until it holds MIN_CHUNKS."""
        pad = 0.0
        while True:
            i = bisect.bisect_left(self.starts, t0 - pad)
            j = bisect.bisect_right(self.starts, t1 + pad)
            if j - i >= MIN_CHUNKS or (i == 0 and j == len(self.starts)):
                return _trimmed_mean([s[2] for s in self.samples[i:j]])
            pad = max(2 * pad, 0.05)

    def __call__(self, t0: float, t1: float) -> float:
        cost = self.cost(t0, t1)
        self.used.append(cost)
        return (t1 - t0) * REFERENCE_CHUNK_S / cost


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _git(*args: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(ws: list[Workload], seed: int, seconds: float, trace: bool) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "grids": {w.name: sorted({c.argv[c.argv.index("--grid") + 1]
                                  for c in w.calls if "--grid" in c.argv})
                  for w in ws},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "child_env": CHILD_ENV,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    q = math.floor(100 * (1 - 10 / n))
    return q, sorted(samples)[max(0, math.ceil(q * n / 100) - 1)]


def _end_to_end(w: Workload, setup: list[float], passes: list[dict],
                attempted: int, failed: int) -> dict:
    run_s = statistics.median(p["run_s"] for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "points_per_s": w.work_points / run_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_frac": (attempted - failed) / attempted,
    }


def _per_layer(w: Workload, plain: list[dict], traced: list[dict]) -> dict:
    last = traced[-1]
    metrics = {}
    for layer in LAYERS:
        rows = [p["layers"][layer.name] for p in traced]
        st = rows[-1]
        per_pt = st["sweep_calls"] / w.points if w.points else 0.0
        values = {
            "calls": st["calls"],
            "self_s": statistics.median(r["self_s"] for r in rows),
            "errors": st["errors"],
            "per_pt": per_pt,
            "useful_frac": layer.needed_per_point / per_pt if per_pt else 0.0,
            "bytes": st["bytes"],
        }
        for stat in layer.stats:
            metrics[f"{layer.name}.{stat}"] = values[stat]
    metrics.update({
        "process.cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "process.wait_s": statistics.median(p["wall_s"] - p["cpu_s"] for p in plain),
        "trace.overhead_frac": statistics.median(
            t["run_s"] / p["run_s"] for p, t in zip(plain, traced)) - 1.0,
        "trace.untraced_s": statistics.median(p["layers"]["root"]["self_s"]
                                              for p in traced),
        "trace.gap_frac": max(abs(p["wall_run_s"] - p["span_s"]) / p["wall_run_s"]
                              for p in traced),
        "trace.absent_targets": len(last["absent"]),
    })
    return metrics


def per_layer_units() -> dict[str, str]:
    units = {f"{layer.name}.{stat}": STAT_UNITS[stat]
             for layer in LAYERS for stat in layer.stats}
    units.update({"process.cpu_s": "s", "process.wait_s": "s",
                  "trace.overhead_frac": "ratio", "trace.untraced_s": "s",
                  "trace.gap_frac": "ratio", "trace.absent_targets": "count"})
    return units


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _measure(w: Workload, seed: int, seconds: float, trace: bool, ref: dict,
             work: str) -> tuple[list[dict], list[dict], list[dict]]:
    """Set-up probes, untraced passes and traced passes of one run."""
    setup = [] if trace else [_setup_probe(w) for _ in range(SETUP_PROBES)]
    start = time.monotonic()

    def one(trace_pass: bool) -> dict:
        t0 = time.monotonic()
        res = _run_pass(w, seed, work, ref, trace_pass)
        res["pass_wall"] = time.monotonic() - t0
        return res

    def time_left(walls) -> bool:
        return time.monotonic() - start + statistics.median(walls) <= seconds

    # Traced runs alternate untraced and traced passes, so that each pair
    # sees nearly the same machine state for the tracing overhead.
    plain: list[dict] = []
    traced: list[dict] = []
    if trace:
        while not traced or time_left(
                [p["pass_wall"] + t["pass_wall"] for p, t in zip(plain, traced)]):
            plain.append(one(False))
            traced.append(one(True))
    else:
        while len(plain) < MIN_PASSES or time_left([p["pass_wall"] for p in plain]):
            plain.append(one(False))
    return setup, plain, traced


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool,
                  ref_dir: str = REFERENCE_DIR, log=sys.stdout) -> dict:
    """Run one workload; returns the result object of the last output line."""
    ref = load_reference(ref_dir, w.name)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT)
    calibration = os.path.join(work, "calibration.json")
    affinity = _pin_to_one_cpu()
    try:
        calibrator = subprocess.Popen([sys.executable, CALIBRATOR, calibration],
                                      cwd=ROOT, env={**os.environ, **CHILD_ENV},
                                      stdout=subprocess.PIPE, text=True)
        try:
            calibrator.stdout.readline()
            setup, plain, traced = _measure(w, seed, seconds, trace, ref, work)
        finally:
            _stop(calibrator)
        with open(calibration, encoding="utf-8") as fh:
            rescale = Rescaler(json.load(fh))
    finally:
        if affinity:
            os.sched_setaffinity(0, affinity)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    for p in setup + plain + traced:
        p["setup_ref_s"] = rescale(p["t0"], p["t0"] + p["setup_s"])
    for p in plain + traced:
        p["wall_run_s"] = sum(c["seconds"] for c in p["calls"])
        p["run_s"] = sum(rescale(c["start"], c["end"]) for c in p["calls"])

    passes = plain + traced
    attempted = sum(len(p["calls"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if trace:
        counts = {json.dumps({k: v["calls"] for k, v in p["layers"].items()})
                  for p in traced}
        if len(counts) > 1:
            print("warning: layer call counts differ between traced passes",
                  file=sys.stderr)
        metrics = _per_layer(w, plain, traced)
        units = per_layer_units()
        if metrics["trace.gap_frac"] > GAP_WARN:
            print("warning: layer self times do not add up to the traced wall "
                  f"time (gap {metrics['trace.gap_frac']:.2%})", file=sys.stderr)
    else:
        metrics = _end_to_end(w, [p["setup_ref_s"] for p in setup + plain], plain,
                              attempted, len(failures))
        units = END_TO_END_UNITS

    print(f"{w.name}: seed {seed}, {len(plain)} untraced and {len(traced)} "
          f"traced passes, {attempted} CLI calls, {len(failures)} failed", file=log)
    for key, problems in failures:
        print(f"  FAILED {key}: " + "; ".join(problems[:5]), file=log)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}", file=log)
    for target in traced[-1]["absent"] if trace else []:
        print(f"  absent (zero calls): {target}", file=log)
    print(f"  times are seconds on a core where a calibration chunk costs "
          f"{REFERENCE_CHUNK_S * 1e3:g} ms; here it cost "
          f"{statistics.median(rescale.used) * 1e3:.3g} ms (median)", file=log)
    if not trace:
        tail = _tail([p["run_s"] for p in plain])
        print(f"  wall time: run {statistics.median(p['wall_run_s'] for p in plain):.6g} s, "
              f"set-up {statistics.median(p['setup_s'] for p in setup + plain):.6g} s "
              f"(medians)", file=log)
        print(f"  run_s is the median of {len(plain)} passes; " +
              (f"p{tail[0]} = {tail[1]:.6g} s" if tail else
               "no percentile has ten samples beyond it"), file=log)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*table, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    chosen = list(table.values()) if args.workload == "all" else [table[args.workload]]
    record = run_record(chosen, args.seed, args.seconds, bool(args.trace))
    try:
        results = {w.name: run_benchmark(w, args.seed, args.seconds, bool(args.trace))
                   for w in chosen}
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = list(os.getloadavg())
    print("run record: " + json.dumps(record))
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
