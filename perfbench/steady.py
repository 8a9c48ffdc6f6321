#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the root of the repository. For each workload it runs the
benchmark --runs times with seeds 1, 2, ... and prints, for every
end-to-end metric, setup_s included, the median, the quartile spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json. A spread at
or above the bound fails; one at or above a third of the bound is flagged
as too close.

Then it makes two traced runs with seed 1 and reports whether the counts
that must repeat exactly do so between them. Exits non-zero if a run fails
or reports an incorrect result, a spread reaches its bound or a count does
not repeat. A run with an incorrect result still counts towards the
spreads, so they are printed either way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
EXACT_COUNTS = [
    "io.source_bytes_read",
    "scheduler.subtasks",
    "services.cache_hits",
    "services.shuffle_wire_bytes",
    "services.bytes_spilled",
]


def run_once(workload, seed, seconds, trace, expected):
    """One benchmark run; checks the metric names and units against
    `expected` (name -> unit from BENCHMARK.json). Returns the values and
    whether every result was correct."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"run printed no result: {' '.join(cmd)} "
                         f"(exit {proc.returncode})")
    correct = (proc.returncode == 0 and result["correct"]
               and result["failed"] == 0)
    if not correct:
        print(f"  seed {seed}: INCORRECT, {result['failed']} of "
              f"{result['attempted']} failed (exit {proc.returncode})")
        for line in lines[:-1]:
            if "failed" in line:
                print("    " + line)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {' '.join(cmd)}")
    return {name: m["value"] for name, m in result["metrics"].items()}, correct


def main():
    sys.stdout.reconfigure(line_buffering=True)
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = True
    for workload in args.workloads.split(","):
        print(f"\n{workload}: {args.runs} runs, seeds 1..{args.runs}")
        values = {}
        for seed in range(1, args.runs + 1):
            metrics, correct = run_once(workload, seed, args.seconds, 0,
                                        end_to_end)
            ok = ok and correct
            print(f"  seed {seed:>3}: " + " ".join(
                f"{name}={v:.4g}" for name, v in metrics.items()))
            for name, v in metrics.items():
                values.setdefault(name, []).append(v)
        print(f"  {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            if spread >= bound:
                verdict, ok = "FAIL", False
            elif spread >= bound / 3:
                verdict = "close"
            else:
                verdict = "ok"
            print(f"  {name:<16} {med:>12.6g} {spread:>8.4f} {bound:>6} {verdict}")

        traced = []
        for _ in range(2):
            metrics, correct = run_once(workload, 1, args.seconds, 1, per_layer)
            ok = ok and correct
            traced.append(metrics)
        for name in EXACT_COUNTS:
            a, b = traced[0][name], traced[1][name]
            same = a == b
            ok = ok and same
            print(f"  {name:<28} {a:>14.17g} {b:>14.17g} "
                  f"{'repeats' if same else 'DIFFERS'}")

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
