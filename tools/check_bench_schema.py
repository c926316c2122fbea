#!/usr/bin/env python3
"""Validate a BENCH_microbench.json document's schema keys.

Dependency-free smoke check for CI: after `microbench_simulator
--quick --out FILE`, this script asserts that the document carries
exactly the sections the papi-microbench/3 schema promises, each with
its required keys, including the papi-parallel/1 sub-schema. It does
not judge the performance numbers themselves - it exists so a
refactor that silently drops or renames a JSON field fails the build
rather than producing an unreadable trajectory. The exceptions are
correctness properties: parallel runs bit-identical to serial (plus
> 2x self-speedup at 8 workers on hosts with >= 8 hardware threads),
and the million-request streaming cell serving every request past its
record cap with a measured, flat RSS growth (above 0, below 512 MiB).

Usage: check_bench_schema.py BENCH_microbench.json
"""

import json
import sys

FAILURES = []

SECTIONS = ["schema", "quick", "build", "streaming", "event_queue",
            "dram", "decode", "figure_cell", "parallel"]


def need(obj, path, keys):
    for key in keys:
        if key not in obj:
            FAILURES.append(f"{path}: missing key '{key}'")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1], "r", encoding="utf-8") as f:
        doc = json.load(f)

    need(doc, "$", SECTIONS)
    extra = sorted(set(doc) - set(SECTIONS))
    if extra:
        FAILURES.append(f"$: unexpected section(s) {extra}")
    if doc.get("schema") != "papi-microbench/3":
        FAILURES.append(f"$.schema: unexpected '{doc.get('schema')}'")

    need(doc.get("build", {}), "$.build",
         ["compiler_flags", "simd_width_bits", "native_build"])

    eq = doc.get("event_queue", {})
    need(eq, "$.event_queue", ["events_per_pattern", "patterns"])
    for name in ("replay", "controller", "devices"):
        need(eq.get("patterns", {}).get(name, {}),
             f"$.event_queue.patterns.{name}", ["events_per_sec"])

    for shape in ("stream", "pump"):
        need(doc.get("dram", {}).get(shape, {}), f"$.dram.{shape}",
             ["requests", "wall_seconds", "events", "events_per_sec",
              "requests_per_sec"])

    need(doc.get("decode", {}), "$.decode",
         ["simulated_tokens", "iterations", "wall_seconds",
          "tokens_per_sec"])
    need(doc.get("figure_cell", {}), "$.figure_cell",
         ["cells", "wall_seconds"])

    par = doc.get("parallel", {})
    need(par, "$.parallel",
         ["schema", "model", "arrival", "replicas",
          "hardware_threads", "parallel_matches_serial", "workers",
          "speedup_at_8_workers"])
    if par.get("schema") != "papi-parallel/1":
        FAILURES.append("$.parallel.schema: unexpected "
                        f"'{par.get('schema')}'")
    pworkers = [c.get("workers") for c in par.get("workers", [])]
    if pworkers != [1, 2, 4, 8]:
        FAILURES.append(
            f"$.parallel.workers: unexpected worker set {pworkers}")
    for i, cell in enumerate(par.get("workers", [])):
        need(cell, f"$.parallel.workers[{i}]",
             ["workers", "wall_seconds", "speedup_vs_serial",
              "matches_serial"])
        if cell.get("matches_serial") is not True:
            FAILURES.append(
                f"$.parallel.workers[{i}].matches_serial: every "
                "worker count must reproduce the serial result "
                "byte for byte")
    # The determinism contract is unconditional; the speedup floor
    # only binds when the host can actually run 8 shard advances
    # concurrently (a 1- or 2-core CI runner cannot show scaling,
    # and wall-clock there measures the scheduler, not the design).
    if par.get("parallel_matches_serial") is not True:
        FAILURES.append(
            "$.parallel.parallel_matches_serial: parallel runs must "
            "be bit-identical to the serial schedule")
    hw = par.get("hardware_threads", 0)
    s8 = par.get("speedup_at_8_workers", 0)
    if isinstance(hw, int) and hw >= 8:
        if not isinstance(s8, (int, float)) or s8 <= 2.0:
            FAILURES.append(
                "$.parallel.speedup_at_8_workers: with >= 8 "
                "hardware threads, 8 workers must beat the serial "
                f"schedule by more than 2x (got {s8})")

    stm = doc.get("streaming", {})
    need(stm, "$.streaming",
         ["trace", "rate_rps", "requests", "seed", "replicas",
          "max_rlp", "record_capacity", "requests_served",
          "stats_truncated", "records_retained", "ttft_p99_seconds",
          "mean_latency_seconds", "wall_seconds",
          "requests_per_sec", "rss_before_mb", "rss_peak_mb",
          "rss_growth_mb"])
    if stm.get("requests", 0) < 1_000_000:
        FAILURES.append(
            "$.streaming.requests: the streaming cell must offer at "
            f"least one million requests (got {stm.get('requests')})")
    if stm.get("requests_served", 0) != stm.get("requests", -1):
        FAILURES.append(
            "$.streaming.requests_served: the fault-free streaming "
            "run must serve every offered request")
    if stm.get("stats_truncated") is not True:
        FAILURES.append(
            "$.streaming.stats_truncated: a million requests must "
            "overflow record_capacity, or the bounded-memory path was "
            "never exercised")
    cap = stm.get("record_capacity", 0)
    replicas = stm.get("replicas", 0)
    if isinstance(cap, int) and isinstance(replicas, int) and \
            stm.get("records_retained", -1) > cap * replicas:
        FAILURES.append(
            "$.streaming.records_retained: retained records exceed "
            "record_capacity x replicas - the cap leaked")
    # The constant-memory claim: the cell's RSS high-water growth
    # must be a flat allowance (record caps, in-flight arrivals),
    # not something that scales with a million-request trace
    # (materialized, that trace alone is > 1 GB of records). It must
    # also be measured at all: the cell runs first so its own peak
    # shows above the startup footprint, and a reading of 0 means a
    # larger section ran before it and hid the cell behind its
    # high-water mark.
    growth = stm.get("rss_growth_mb", 1 << 30)
    if not isinstance(growth, (int, float)) or growth >= 512.0:
        FAILURES.append(
            "$.streaming.rss_growth_mb: the million-request "
            "streaming cell must stay under a flat 512 MiB RSS "
            f"growth ceiling (got {growth})")
    elif growth <= 0.0:
        FAILURES.append(
            "$.streaming.rss_growth_mb: the cell's RSS growth must "
            "be measured above the process's startup high-water mark "
            f"(got {growth}; run the cell before every other section)")

    if FAILURES:
        for f_ in FAILURES:
            print(f"FAIL {f_}")
        print(f"{len(FAILURES)} schema failure(s)")
        return 1
    print(f"OK {sys.argv[1]}: papi-microbench/3 schema valid "
          "(incl. streaming and the papi-parallel/1 sub-schema)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
