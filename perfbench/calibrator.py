"""Speed probe that runs beside the benchmark, on the same core, at nice 19.

On a shared host the speed of a core can change by ~1.7x for seconds at a
time (another tenant on the same physical core), which no number of passes
averages away.  This loop measures the CPU time of one fixed chunk of work,
over and over: interpreter arithmetic and small-matrix numpy calls, the mix
graphgeo spends its time in (the mix tracks graphgeo's speed better than
either part alone).  At the lowest priority it takes ~1.5% of the core while
a pass runs.  The chunk cost during a CLI call tracks the core's speed
during that call, and ``run.py`` rescales the call's wall time by it.

    python3 perfbench/calibrator.py OUT.json

It prints ``ready`` once it is sampling.  On SIGTERM it writes ``[start, end, cpu_s]`` per chunk (monotonic clock) to
``OUT.json`` and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

LOOP = 1000
MATMULS = 40


def main() -> int:
    os.nice(19)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    a = np.random.default_rng(0).normal(size=(3, 3))
    b = a.T.copy()
    print("ready", flush=True)
    samples = []
    while not stop:
        c0, t0 = time.thread_time(), time.monotonic()
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        for _ in range(MATMULS):
            np.einsum("ij,jk->ik", a, b) + a @ b
        samples.append((t0, time.monotonic(), time.thread_time() - c0))
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
