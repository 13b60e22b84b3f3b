#!/usr/bin/env python3
"""Run every mfbench workload and write the results to BENCH_<n>.json.

From the root of the repository:

    python scripts/bench.py

Each run lasts the ``run_seconds`` of ``BENCHMARK.json``. Each workload runs
at seeds 1-3 with ``--trace 0`` for the end-to-end metrics, then at the same
seeds with ``--trace 1`` for the per-layer metrics, whose medians over the
traced runs are printed per side at the end and stored as ``layer_medians``:
one disturbed traced run then moves a median, not the whole trace.
``--workload NAME`` (repeatable) runs only the named workloads, and
``--seeds A-B`` the untraced runs at seeds A to B and the traced runs at the
first three of them. Every child starts with
``MALLOC_MMAP_THRESHOLD_=33554432``. Setting the threshold turns off glibc's
dynamic mmap threshold, which otherwise flips rd-offline's peak memory between
two values with unrelated code changes; 32 MiB is the ceiling of that dynamic
threshold, so arrays below it come from the heap, as they do in a default
process once it has freed an array that large. (A 128 KiB threshold makes every mid-size array an
mmap/munmap pair with fresh page faults: a 3-parameter rd sweep at 64^2 then
takes twice as long as under the default heap.) The file records, per run,
the last-line JSON and the info line of ``mfbench/run.py``, and, once, the
numpy and BLAS versions, the CPU count and the CPUs this process may use, the
heap setting, ``git rev-parse HEAD`` and the load average at the start and at
the end, so a run on a busy host shows in its file (the solver runs HF-size
sweeps on two threads, so a busy second CPU slows them). It is written to the
first free ``BENCH_<n>.json`` at the root of the repository.

With ``--parent REV`` the tree of git revision REV is exported with
``git archive`` into a temporary directory and benchmarked too, each run
next to the same run of this tree, the two sides taking turns at going first
from one seed to the next. Every run records its ``side`` ("change" or
"parent"), and the environment records the parent's commit, so per-layer
deltas compare runs made on the same host minutes apart:

    python scripts/bench.py --parent HEAD~1

Ten alternating pairs of one workload, as a claimed gain needs:

    python scripts/bench.py --parent HEAD~1 --workload rd-evaluate --seeds 1-10
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rd-offline", "sw-online", "rd-evaluate")
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432"}
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def seed_range(text: str) -> range:
    """The seeds A to B, both included, of ``A-B``."""
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected A-B with integers A <= B, got {text!r}")
    return seeds


def git_commit(rev: str = "HEAD") -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def export_tree(commit: str, dest: Path) -> Path:
    """Extract the committed files of ``commit`` into ``dest`` with git archive."""
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return dest


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_head": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "child_env": CHILD_ENV,
        "loadavg_start": os.getloadavg(),
    }


def layer_medians(runs: list[dict]) -> dict:
    """Per workload, side and per-layer metric, the median over the correct traced runs."""
    values = {}
    for run in runs:
        if run["trace"] and run["result"] is not None and run["result"]["correct"]:
            side = values.setdefault(run["workload"], {}).setdefault(run["side"], {})
            for name, metric in run["result"]["metrics"].items():
                side.setdefault(name, []).append(metric["value"])
    return {workload: {side: {name: statistics.median(v) for name, v in metrics.items()}
                       for side, metrics in sides.items()}
            for workload, sides in values.items()}


def print_layer_medians(medians: dict) -> None:
    """One table per workload: a metric per row, a side per column, then change/parent - 1."""
    for workload, sides in medians.items():
        order = sorted(sides)
        names = sorted(set().union(*(sides[side] for side in order)))
        print(f"{workload}: per-layer medians of the traced runs")
        print(f"  {'metric':32s}" + "".join(f"{side:>14s}" for side in order)
              + ("       delta" if len(order) == 2 else ""))
        for name in names:
            row = [sides[side].get(name, float("nan")) for side in order]
            delta = f"{row[0] / row[1] - 1:+12.1%}" if len(row) == 2 and row[1] else ""
            print(f"  {name:32s}" + "".join(f"{v:14.6g}" for v in row) + delta)


def run_one(side: str, root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "mfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {
        "side": side,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "returncode": proc.returncode,
        "info": lines[-2] if len(lines) >= 2 else None,
        "result": result,
        "stderr": proc.stderr.strip().splitlines(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="REV",
                        help="also benchmark the committed tree of git revision REV, "
                             "alternating with this tree")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-3"), metavar="A-B",
                        help="seeds of the untraced runs; the traced runs use the first "
                             "three (default: 1-3)")
    args = parser.parse_args()
    runs_per_workload = ([(seed, 0) for seed in args.seeds]
                         + [(seed, 1) for seed in args.seeds[:3]])
    env = environment()
    parent = None
    if args.parent is not None:
        parent = git_commit(args.parent)
        if parent is None:
            parser.error(f"not a git revision: {args.parent}")
        env["parent"] = {"rev": args.parent, "commit": parent}
    n = 0
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    path = ROOT / f"BENCH_{n}.json"
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        sides = [("change", ROOT)]
        if parent is not None:
            sides.append(("parent", export_tree(parent, Path(tmp))))
        for workload in args.workload or WORKLOADS:
            for i, (seed, trace) in enumerate(runs_per_workload):
                for side, root in sides[:: 1 if i % 2 == 0 else -1]:
                    run = run_one(side, root, workload, seed, trace)
                    ok = run["result"] is not None and run["result"]["correct"]
                    print(f"{side} {workload} seed {seed} trace {trace}: "
                          f"{'ok' if ok else 'FAILED'}  {run['info']}", flush=True)
                    runs.append(run)
    env["loadavg_end"] = os.getloadavg()
    medians = layer_medians(runs)
    print_layer_medians(medians)
    doc = {"seconds": SECONDS, "environment": env, "layer_medians": medians, "runs": runs}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.name}")
    failed = [r for r in runs if r["result"] is None or not r["result"]["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
