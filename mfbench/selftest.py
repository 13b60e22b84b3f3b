#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny scale (about a minute).

Run from the repository root:

    python3 mfbench/selftest.py

Runs every workload of BENCHMARK.json on 16^2 / 8^2 grids with tracing off
and on, and checks that the last line of each run is the result object with
every metric of BENCHMARK.json under its unit, all checks passed and no
operation failed. Then checks that the benchmark refuses to run, without a
result, from a copy that holds only BENCHMARK.json and the benchmark's own
directories.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / "mfbench" / "out" / "selftest"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


spec = json.loads((ROOT / "BENCHMARK.json").read_text())
problems = []
for workload in (w["name"] for w in spec["workloads"]):
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(ROOT, workload, trace)
        where = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{where}: result keys {sorted(result)}")
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"{where}: correct={result['correct']} failed={result['failed']}"
                            f" attempted={result['attempted']}: {proc.stderr[-500:]}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != {m["name"]: m["unit"] for m in wanted}:
            problems.append(f"{where}: metrics {got}")
        print(f"ok   {where}: {len(got)} metrics, {result['attempted']} operations")

# A checkout with only the benchmark must fail fast and print no result.
shutil.rmtree(SCRATCH, ignore_errors=True)
SCRATCH.mkdir(parents=True)
shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
for path in spec["paths"]:
    shutil.copytree(ROOT / path, SCRATCH / path, ignore=shutil.ignore_patterns("out"))
proc = run(SCRATCH, spec["workloads"][0]["name"], 0)
if proc.returncode == 0 or proc.stdout.strip():
    problems.append(f"benchmark alone: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
else:
    print(f"ok   benchmark alone exits {proc.returncode} without a result")
shutil.rmtree(SCRATCH, ignore_errors=True)

for problem in problems:
    print(f"FAIL {problem}")
sys.exit(1 if problems else 0)
