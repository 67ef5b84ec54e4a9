#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workloads dc2k-online,dc10k-online --seeds 1-10
    python3 perfbench/spread.py --workloads dc2k-online --seeds 1-10 --out perfbench/baseline.json

For every workload and metric it prints the median, the first and third
quartiles by statistics.quantiles(values, n=4), and the spread: the
distance between the quartiles as a share of the median, the figure each
metric's bound in BENCHMARK.json is checked against. --out also writes the
summary and every run's values as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            res = run(workload, seed, args.seconds, args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "values": values}
            print(f"  {name:24s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {metrics[name]['spread']:.4f}")
        summary[workload] = {"seeds": seed_list(args.seeds), "seconds": args.seconds, "trace": args.trace,
                             "correct": all(r["correct"] for r in runs), "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
