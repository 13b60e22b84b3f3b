#!/usr/bin/env python3
"""Run every mfbench workload and write the results to BENCH_<n>.json.

From the root of the repository:

    python scripts/bench.py

Each run lasts the ``run_seconds`` of ``BENCHMARK.json``. Each workload runs
at seeds 1-3 with ``--trace 0`` for the end-to-end metrics, then at seed 1
with ``--trace 1`` for the per-layer metrics. Every child starts with
``MALLOC_MMAP_THRESHOLD_=33554432``. Setting the threshold turns off glibc's
dynamic mmap threshold, which otherwise flips rd-offline's peak memory between
two values with unrelated code changes; 32 MiB is the ceiling of that dynamic
threshold, so arrays below it come from the heap, as they do in a default
process once it has freed an array that large. (A 128 KiB threshold makes every mid-size array an
mmap/munmap pair with fresh page faults: a 3-parameter rd sweep at 64^2 then
takes twice as long as under the default heap.) The file records, per run,
the last-line JSON and the info line of ``mfbench/run.py``, and, once, the
numpy and BLAS versions, the CPU count, the heap setting and
``git rev-parse HEAD``. It is written to the first free ``BENCH_<n>.json`` at
the root of the repository.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rd-offline", "sw-online", "rd-evaluate")
RUNS = [(seed, 0) for seed in (1, 2, 3)] + [(1, 1)]  # (seed, trace)
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432"}
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def git_head() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_head": git_head(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "child_env": CHILD_ENV,
    }


def run_one(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "mfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "returncode": proc.returncode,
        "info": lines[-2] if len(lines) >= 2 else None,
        "result": result,
        "stderr": proc.stderr.strip().splitlines(),
    }


def main() -> int:
    n = 0
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    path = ROOT / f"BENCH_{n}.json"
    runs = []
    for workload in WORKLOADS:
        for seed, trace in RUNS:
            run = run_one(workload, seed, trace)
            ok = run["result"] is not None and run["result"]["correct"]
            print(f"{workload} seed {seed} trace {trace}: "
                  f"{'ok' if ok else 'FAILED'}  {run['info']}", flush=True)
            runs.append(run)
    doc = {"seconds": SECONDS, "environment": environment(), "runs": runs}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.name}")
    failed = [r for r in runs if r["result"] is None or not r["result"]["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
