#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each workload, then prints, per
metric, the median and the distance between the first and third quartile
as a share of the median (`statistics.quantiles(values, n=4)`), next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads study-mc serve-mix --seeds 1 2 3 4 5

Run it from the repository root. The benchmark is built on first use.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    manifest = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

    for workload in args.workloads:
        runs = [run(manifest["command"], workload, s, args.seconds, 0) for s in args.seeds]
        print(f"== {workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:<18} median {med:12.4f}  spread {spread:7.4f}  bound {bound}{flag}")
            print(f"  {'':<18} values {' '.join(f'{v:.4g}' for v in values)}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
