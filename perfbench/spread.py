#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for
every metric, the median and the spread between the first and third
quartile as a share of the median, against the metric's bound in
BENCHMARK.json.

    python3 perfbench/spread.py                      # 10 seeds, every workload
    python3 perfbench/spread.py --runs 5 --workloads online --trace 0

Run from the repository root. Exits 1 when a spread (other than
setup_s's) exceeds its bound; spreads above a third of their bound are
marked with '!'.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed answers")
    return result["metrics"], took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    decls = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bad = False
    for workload in names:
        values = {d["name"]: [] for d in decls}
        times = []
        for i in range(args.runs):
            metrics, took = run_once(spec, workload, args.first_seed + i, args.trace)
            times.append(took)
            for d in decls:
                values[d["name"]].append(metrics[d["name"]]["value"])
        print(f"{workload}: {args.runs} runs, {statistics.median(times):.1f} s median, "
              f"{max(times):.1f} s max")
        for d in decls:
            v = values[d["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = d.get("bound")
            mark = ""
            if bound is not None:
                if spread > bound and d["name"] != "setup_s":
                    mark, bad = " FAIL", True
                elif spread > bound / 3:
                    mark = " !"
            limit = f"  bound {bound}" if bound is not None else ""
            print(f"  {d['name']:<40} median {med:>14.4f}  spread {spread:6.3f}{limit}{mark}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
