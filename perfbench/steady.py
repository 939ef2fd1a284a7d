#!/usr/bin/env python3
"""Run one benchmark workload over several seeds and report, per metric,
the median and the interquartile spread as a share of the median.

Usage (from the repository root):

    python3 perfbench/steady.py --workload serve_closed --seeds 1-10 \
        [--trace 0] [--out runs.jsonl]

The command and the window length (`run_seconds`) come from
BENCHMARK.json, so each run is the one the benchmark defines. Each run's
result line is appended to --out when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        if run.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(run.stdout + run.stderr)
            sys.exit(f"seed {seed}: exit {run.returncode}")
        result = json.loads(last)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        line = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        else:
            spread = float("nan")
        print(f"{name}: median {med:.6g} spread {100 * spread:.2f}% over {len(vals)} runs")


if __name__ == "__main__":
    main()
