#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the quartile distance
as a share of the median, next to a third of the metric's bound from
BENCHMARK.json: a steady benchmark keeps every spread but setup_s below it.

    python3 perfbench/spread.py --workloads sinr,sweep --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "samples": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    spec = run.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    binary = run.build()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    failed = False
    for name in names:
        samples = {m: [] for m in bounds}
        failed_runs = 0
        for seed in parse_seeds(args.seeds):
            t0 = time.monotonic()
            code, line, problems = run.run_workload(
                binary, spec, name, seed, seconds, 0, smoke=False, echo=False)
            if code != 0 or problems:
                print(f"{name} seed {seed}: FAILED {problems}")
                failed_runs += 1
            if line is None:
                continue
            for m, v in json.loads(line)["metrics"].items():
                samples[m].append(v["value"])
            print(f"{name} seed {seed}: {time.monotonic() - t0:.1f} s wall",
                  flush=True)
        summary[name] = {m: summarize(v) for m, v in samples.items() if len(v) >= 2}
        summary[name]["failed_runs"] = failed_runs
        failed = failed or failed_runs > 0
        for m, s in summary[name].items():
            if m == "failed_runs":
                continue
            limit = "" if m == "setup_s" else f" (limit {bounds[m] / 3:.3f})"
            print(f"  {name:<7} {m:<15} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}{limit}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
