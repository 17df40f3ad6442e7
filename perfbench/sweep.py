#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/sweep.py --workloads top30-single deep-saturated \
        deep-single --seeds 1-10 --seconds 25 [--trace 0|1|both] \
        [--out runs.jsonl]

For every workload and metric it prints the median over the seeds, the
first and third quartiles (statistics.quantiles, n=4) and their distance
as a share of the median: the spread a bound in BENCHMARK.json must cover.
`--trace both` adds one traced run per workload, on the first seed, after
the untraced ones, so one command prints the end-to-end and the per-layer
metrics of every workload. Each run's result line is appended to --out
(JSON lines, with the workload, seed and trace flag added) when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(run_py, workload, trace, seeds, args):
    """Runs `workload` once per seed and prints each metric's spread."""
    values = {}
    units = {}
    ok = True
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
            for line in lines:
                if "CHECK FAILED" in line:
                    print(line)
            ok = False
            continue
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps(dict(result, workload=workload, seed=seed,
                                          trace=trace)) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print("%s, trace %d (%d runs)" %
          (workload, trace, len(next(iter(values.values()), []))))
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (
            vs[0], 0, vs[0])
        spread = (q3 - q1) / median if median else 0.0
        print("  %-30s %14.6f %-6s q1 %.6f q3 %.6f spread %.4f" %
              (name, median, units[name], q1, q3, spread))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    seeds = parse_seeds(args.seeds)
    passes = {"0": [(0, seeds)], "1": [(1, seeds)],
              "both": [(0, seeds), (1, seeds[:1])]}[args.trace]
    failed = False
    for workload in args.workloads:
        for trace, trace_seeds in passes:
            failed |= not summarise(run_py, workload, trace, trace_seeds, args)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
