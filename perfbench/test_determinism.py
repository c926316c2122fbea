#!/usr/bin/env python3
"""Determinism and seed test of the serving benchmark.

    python3 perfbench/test_determinism.py [--workload NAME ...]

For every workload: two invocations at one seed must print identical
simulation metrics (sim_* and served_share) and both pass their output
checks, and an invocation at a second seed must change them - which
proves the seed argument reaches the arrival generator. Host metrics
(requests_per_cpu_s, setup_s, peak_rss_mb) are measurements and are
not compared. Exits non-zero on any failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["qa-stream", "spec-decode", "agentic-prefix", "disagg-faults"]
SEED, OTHER_SEED = 7, 8


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.1", "--trace",
         "0"],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit("%s seed %d exited %d" % (workload, seed,
                                                   out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d failed its output checks"
                         % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith("sim_") or k == "served_share"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    workloads = ap.parse_args().workload or WORKLOADS
    failures = 0
    for w in workloads:
        first, again, other = run(w, SEED), run(w, SEED), run(w, OTHER_SEED)
        same = first == again
        moved = [k for k in first if first[k] != other[k]]
        ok = same and len(moved) > 0
        failures += not ok
        print("%-15s same seed identical: %-5s second seed moves %d/%d "
              "metrics  %s" % (w, same, len(moved), len(first),
                               "ok" if ok else "FAIL"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
