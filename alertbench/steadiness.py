#!/usr/bin/env python3
"""Steadiness check for the alert-service benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on every
workload, then prints, for each end-to-end metric, the median, the first
and third quartiles (as statistics.quantiles(values, n=4) gives them) and
the spread: the distance between the quartiles as a share of the median.
A spread above the metric's bound fails the check. Run from the
repository root:

    python3 alertbench/steadiness.py --runs 10 --out alertbench/steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--out", default=None, help="write the summary here")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seconds": seconds, "runs": opts.runs, "workloads": {}}
    ok = True
    for workload in workloads:
        results = []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            start = time.time()
            results.append(run_once(bench["command"], workload, seed, seconds, 0))
            print(f"  {workload} seed {seed}: {time.time() - start:.1f} s", file=sys.stderr)
        correct = all(r["correct"] and r["failed"] == 0 for r in results)
        ok &= correct
        metrics = {}
        print(f"{workload}: {opts.runs} runs, all correct: {correct}")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["bound"] = bound
            s["within_bound"] = s["spread"] <= bound
            s["within_third"] = s["spread"] <= bound / 3
            ok &= s["within_bound"]
            metrics[name] = s
            print(
                f"  {name:22} median {s['median']:14.4f}  q1 {s['q1']:14.4f}"
                f"  q3 {s['q3']:14.4f}  spread {s['spread']:.3f}  bound {bound}"
                f"{'' if s['within_bound'] else '  OVER BOUND'}"
            )
        summary["workloads"][workload] = {"correct": correct, "metrics": metrics}

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
