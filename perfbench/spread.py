#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads A,B] [--seeds N] [--first S]
                                [--json FILE]

Runs each workload once per seed (seeds S .. S+N-1, default 1..10) and
reports, per metric, the median of the values and the distance between
their first and third quartiles (statistics.quantiles(values, n=4)) as a
share of the median, next to the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--json")
    args = parser.parse_args()

    report = {}
    worst = 0.0
    for name in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first, args.first + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: NOT CORRECT", flush=True)
            for k in values:
                values[k].append(result["metrics"][k]["value"])
        report[name] = values
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{name:18} {m['name']:16} median {med:12.6g}  "
                  f"spread {spread:6.3f}  bound {m['bound']:.2f}  "
                  f"{'ok' if spread <= m['bound'] / 3 else 'WIDE' if spread > m['bound'] else 'near'}",
                  flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
