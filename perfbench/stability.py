"""Stability report: run the benchmark repeatedly and summarise each metric.

    python3 perfbench/stability.py --runs 10 [--workload dense-solve ...] [--first-seed 1]

Each run uses its own seed (first-seed, first-seed+1, ...).  For every
workload and end-to-end metric it prints the median, the quartiles, the
quartile spread as a share of the median and that spread against the
metric's bound in BENCHMARK.json.  A spread above a third of the bound is
flagged, as is any count (``attempted``, ``failed``) that differs between
runs.  The raw results go to ``perfbench/_work/stability.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    wall = time.perf_counter() - start
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description="repeat benchmark runs and report spreads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report, flagged = {}, 0
    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
                for i in range(args.runs)]
        walls = [wall for _, wall in runs]
        results = [result for result, _ in runs]
        print(f"{workload}: {args.runs} runs, wall per run median {statistics.median(walls):.1f} s,"
              f" max {max(walls):.1f} s")
        counts = {(r["attempted"], r["failed"], r["correct"]) for r in results}
        if len(counts) > 1:
            flagged += 1
            print(f"  FLAG attempted/failed/correct differ between runs: {sorted(counts)}")
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = bound is not None and name != "setup_s" and rel > bound / 3
            flagged += flag
            summary[name] = {"values": values, "q1": q1, "median": q2, "q3": q3, "spread": rel}
            if args.trace == 0 or not name.endswith(".calls"):
                print(f"  {name:34s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                      f"spread {rel:7.2%}" + (f"  bound {bound:.0%}" if bound else "")
                      + ("  FLAG" if flag else ""))
        report[workload] = {"walls": walls, "metrics": summary}
    os.makedirs(os.path.join(ROOT, "perfbench", "_work"), exist_ok=True)
    with open(os.path.join(ROOT, "perfbench", "_work", "stability.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print("stability:", f"{flagged} flagged" if flagged else "ok")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
