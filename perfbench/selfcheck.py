#!/usr/bin/env python3
"""Self-check of the benchmark, on tiny inputs.

    python3 perfbench/selfcheck.py

For every workload perfbench runs (the ones in BENCHMARK.json and the
ones it leaves out):
  * a --trace 0 run emits exactly the end_to_end metrics, a --trace 1 run
    exactly the per_layer metrics, each with its declared unit, and both
    runs report correct: true;
  * each correctness check fails when fed one deliberately flipped verdict
    (--flip CHECK): the run must report correct: false and failed >= 1.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Checks each workload runs (see README.md, "Correctness checks").
CHECKS = {
    "senml_qs0_project": ["ground_truth", "service_echo"],
    "taxi_qt_2shard": ["ground_truth", "service_echo", "pool_run"],
    "fleet_1k_churn": ["ground_truth", "fleet_columns", "service_echo"],
    "service_qs1_open": ["ground_truth", "service_echo"],
}
# Checks that only a traced run makes: its service bursts and climbs (the
# service workload's untraced passes also go through the socket) and the
# worker-pool replay.
TRACED_CHECKS = {"pool_run", "service_echo"}


def run(workload, trace, flip=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if flip:
        cmd += ["--flip", flip]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for name in CHECKS:
        for trace in (0, 1):
            result = run(name, trace)
            if result is None:
                problems.append(f"{name} trace={trace}: no result line")
                continue
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: not correct")
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
        for check in CHECKS[name]:
            result = run(name, 1 if check in TRACED_CHECKS else 0, flip=check)
            if result is None or result["correct"] or result["failed"] < 1:
                problems.append(f"{name}: flipped verdict not caught by {check}")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
