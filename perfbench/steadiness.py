#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread against its bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...]

Runs every workload --runs times, each with another seed, at the
BENCHMARK.json run length, and prints one markdown row per workload
and end-to-end metric: the median, the spread (distance between the
first and third quartile, as statistics.quantiles(values, n=4) gives
them, over the median) and the metric's bound. A spread above a third
of its bound is marked; setup_s is exempt from the spread rule but
must still be steady between sets of runs. Exits non-zero if any run
fails its output checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print("| workload | metric | median | spread | bound | spread < bound/3 |")
    print("|---|---|---|---|---|---|")
    failed = False
    for w in workloads:
        values = {}
        for i in range(args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(args.first_seed + i),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed |= out.returncode != 0 or not result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok = "yes" if spread < bounds[name] / 3 else (
                "exempt" if name == "setup_s" else "NO")
            print("| %s | %s | %.6g | %.4f | %g | %s |"
                  % (w, name, med, spread, bounds[name], ok))
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
