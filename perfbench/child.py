"""One benchmark pass in a fresh process: set up, then run the CLI calls.

Started by ``run.py`` with a JSON spec as its only argument.  It imports
graphgeo from the checkout's ``src/`` (never an installed copy), resolves the
workload's scenarios, and reports the set-up time measured from the moment
the parent started this process.  Unless the spec says ``setup_only``, it then
runs each CLI call through ``graphgeo.cli.main`` and reports per-call wall
time (with monotonic start and end) and exit code, the process's CPU time and peak resident memory, and,
when tracing, the per-layer statistics.  The result is the last line of
standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import graphgeo.cli
    import graphgeo.scenarios

    if not os.path.abspath(graphgeo.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"graphgeo was imported from {graphgeo.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    for name in spec["scenarios"]:
        graphgeo.scenarios.get(name)
    result = {"setup_s": time.monotonic() - spec["t0"]}
    if spec["setup_only"]:
        print(json.dumps(result))
        return 0

    spans0 = tracer.total_self_s() if tracer else 0.0
    calls = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    for argv in spec["calls"]:
        sink = io.StringIO()
        exit_code: int | str
        start = time.monotonic()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if tracer is None:
                    exit_code = graphgeo.cli.main(argv)
                else:
                    with tracer.span_root():
                        exit_code = graphgeo.cli.main(argv)
            except SystemExit as exc:
                exit_code = exc.code
            except Exception as exc:  # a crash is a failed call, not a crashed run
                exit_code = f"{type(exc).__name__}: {exc}"
        end = time.monotonic()
        calls.append({"start": start, "end": end, "seconds": end - start,
                      "exit": exit_code})
    result.update(
        calls=calls,
        wall_s=time.perf_counter() - wall0,
        cpu_s=_cpu_s() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.counts()
        result["span_s"] = tracer.total_self_s() - spans0
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
