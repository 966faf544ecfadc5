#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and report, for
each metric, its median and the spread between the first and third
quartile as a share of the median (statistics.quantiles, n=4).

Usage, from the root of the checkout:
    python3 twoclock/spread.py --workload power --runs 10 [--trace 0] [--first-seed 1]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write every run's result object here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)

    print(f"{'metric':40} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        unit = runs[0]["metrics"][name]["unit"]
        print(f"{name:40} {unit:8} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
