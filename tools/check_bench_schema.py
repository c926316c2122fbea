#!/usr/bin/env python3
"""Validate a BENCH_microbench.json document's schema keys.

Dependency-free smoke check for CI: after `microbench_simulator
--quick --out FILE`, this script asserts that every section the
papi-microbench/2 schema promises is present with its required keys,
including the papi-policy/1, papi-cluster/1, papi-continuous/1,
papi-disagg/1, papi-faults/1, papi-parallel/1, papi-soa/1, and
papi-prefix/1 sub-schemas. It
does not judge the performance numbers themselves - it exists so a
refactor that silently drops or renames a JSON field fails the build
rather than producing an unreadable trajectory. The exceptions are
ordering invariants the simulation must uphold (continuous beats
static TTFT, disagg beats colocated TTFT, retry beats fail-stop
goodput, request conservation, parallel runs bit-identical to
serial - plus > 2x self-speedup at 8 workers on hosts with >= 8
hardware threads, the SoA serving core reproducing the frozen
reference engine byte for byte while beating it, cache-hit-aware
routing beating round-robin p99 TTFT with a nonzero hit rate on the
multi-turn trace, and the million-request streaming cell staying
under a flat RSS ceiling), which are checked because they are
correctness properties, not performance judgements.

Usage: check_bench_schema.py BENCH_microbench.json
"""

import json
import sys

FAILURES = []


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

    need(doc, "$", ["schema", "quick", "event_queue", "dram",
                    "decode", "serving", "figure_cell", "policy",
                    "cluster", "continuous", "disagg", "faults",
                    "parallel", "soa", "prefix"])
    if doc.get("schema") != "papi-microbench/2":
        FAILURES.append(f"$.schema: unexpected '{doc.get('schema')}'")

    eq = doc.get("event_queue", {})
    need(eq, "$.event_queue", ["events_per_pattern", "patterns"])
    for name in ("replay", "controller", "devices"):
        need(eq.get("patterns", {}).get(name, {}),
             f"$.event_queue.patterns.{name}", ["events_per_sec"])

    for shape in ("stream", "pump"):
        need(doc.get("dram", {}).get(shape, {}), f"$.dram.{shape}",
             ["requests", "wall_seconds", "events", "events_per_sec",
              "requests_per_sec"])

    for sec in ("decode", "serving"):
        need(doc.get(sec, {}), f"$.{sec}",
             ["simulated_tokens", "iterations", "wall_seconds",
              "tokens_per_sec"])

    policy = doc.get("policy", {})
    need(policy, "$.policy",
         ["schema", "model", "arrival", "alpha", "policies",
          "dynamic_speedup_vs_always_gpu",
          "dynamic_speedup_vs_always_pim", "oracle_over_dynamic"])
    for i, cell in enumerate(policy.get("policies", [])):
        need(cell, f"$.policy.policies[{i}]",
             ["dispatch", "makespan_seconds",
              "sim_tokens_per_sec", "mean_latency_seconds",
              "p95_latency_seconds", "reschedules",
              "fc_gpu_iterations", "fc_pim_iterations",
              "energy_joules", "wall_seconds"])

    clus = doc.get("cluster", {})
    need(clus, "$.cluster",
         ["schema", "model", "policy", "tp_degree", "arrival",
          "n1_matches_serving_engine", "scaling"])
    if clus.get("n1_matches_serving_engine") is not True:
        FAILURES.append(
            "$.cluster.n1_matches_serving_engine: the N=1 cluster "
            "must stay bit-identical to ServingEngine")
    for i, cell in enumerate(clus.get("scaling", [])):
        need(cell, f"$.cluster.scaling[{i}]",
             ["platforms", "groups", "makespan_seconds",
              "sim_tokens_per_sec", "ttft_p50_seconds",
              "ttft_p99_seconds", "tpot_p50_seconds",
              "queueing_mean_seconds", "mean_utilization",
              "energy_joules", "wall_seconds"])

    cont = doc.get("continuous", {})
    need(cont, "$.continuous",
         ["schema", "model", "arrival", "prefill_chunk_tokens",
          "kv_pool_tokens", "modes",
          "continuous_ttft_p99_speedup_vs_static",
          "preemption_count"])
    if cont.get("schema") != "papi-continuous/1":
        FAILURES.append("$.continuous.schema: unexpected "
                        f"'{cont.get('schema')}'")
    modes = [c.get("mode") for c in cont.get("modes", [])]
    if modes != ["static", "continuous", "continuous+preemption"]:
        FAILURES.append(f"$.continuous.modes: unexpected set {modes}")
    for i, cell in enumerate(cont.get("modes", [])):
        need(cell, f"$.continuous.modes[{i}]",
             ["mode", "admission", "makespan_seconds",
              "sim_tokens_per_sec", "ttft_p50_seconds",
              "ttft_p99_seconds", "queueing_mean_seconds",
              "preemptions", "preemption_stall_p99_seconds",
              "wall_seconds"])
    speedup = cont.get("continuous_ttft_p99_speedup_vs_static", 0)
    if not isinstance(speedup, (int, float)) or speedup <= 1.0:
        FAILURES.append(
            "$.continuous.continuous_ttft_p99_speedup_vs_static: "
            f"continuous batching must beat static batching on p99 "
            f"TTFT (got {speedup})")
    if not isinstance(cont.get("preemption_count"), int) or \
            cont.get("preemption_count", 0) <= 0:
        FAILURES.append(
            "$.continuous.preemption_count: the preemption mode "
            "must actually preempt under the forced KV pool")

    dis = doc.get("disagg", {})
    need(dis, "$.disagg",
         ["schema", "model", "arrival", "prefill_chunk_tokens",
          "replicas", "prefill_replicas", "decode_replicas",
          "transfer_link", "modes",
          "disagg_ttft_p99_speedup_vs_colocated",
          "disagg_tpot_p99_speedup_vs_colocated",
          "kv_transfer_count"])
    if dis.get("schema") != "papi-disagg/1":
        FAILURES.append("$.disagg.schema: unexpected "
                        f"'{dis.get('schema')}'")
    if dis.get("arrival", {}).get("trace") != "prefill-heavy":
        FAILURES.append("$.disagg.arrival.trace: the comparison "
                        "runs on the prefill-heavy trace")
    dmodes = [c.get("mode") for c in dis.get("modes", [])]
    if dmodes != ["colocated", "disaggregated"]:
        FAILURES.append(f"$.disagg.modes: unexpected set {dmodes}")
    for i, cell in enumerate(dis.get("modes", [])):
        need(cell, f"$.disagg.modes[{i}]",
             ["mode", "makespan_seconds", "sim_tokens_per_sec",
              "ttft_p50_seconds", "ttft_p99_seconds",
              "tpot_p50_seconds", "tpot_p99_seconds",
              "queueing_mean_seconds", "energy_joules",
              "kv_transfers", "kv_transfer_gb",
              "kv_transfer_seconds", "wall_seconds"])
    ttft_win = dis.get("disagg_ttft_p99_speedup_vs_colocated", 0)
    if not isinstance(ttft_win, (int, float)) or ttft_win <= 1.0:
        FAILURES.append(
            "$.disagg.disagg_ttft_p99_speedup_vs_colocated: "
            "disaggregated serving must beat colocated p99 TTFT on "
            f"the committed prefill-heavy trace (got {ttft_win})")
    if not isinstance(dis.get("kv_transfer_count"), int) or \
            dis.get("kv_transfer_count", 0) <= 0:
        FAILURES.append(
            "$.disagg.kv_transfer_count: the disaggregated mode "
            "must actually migrate KV across the link")
    dreqs = dis.get("arrival", {}).get("requests")
    if isinstance(dreqs, int) and \
            dis.get("kv_transfer_count") != dreqs:
        FAILURES.append(
            "$.disagg.kv_transfer_count: every request must cross "
            f"the link exactly once (got "
            f"{dis.get('kv_transfer_count')} transfers for {dreqs} "
            "requests)")
    if dis.get("modes") and \
            dis["modes"][0].get("kv_transfers", -1) != 0:
        FAILURES.append(
            "$.disagg.modes[0].kv_transfers: the colocated baseline "
            "must not migrate KV")

    flt = doc.get("faults", {})
    need(flt, "$.faults",
         ["schema", "model", "arrival", "prefill_replicas",
          "decode_replicas", "plan", "recovery",
          "no_fault_matches_baseline", "modes",
          "retry_goodput_speedup_vs_failstop"])
    if flt.get("schema") != "papi-faults/1":
        FAILURES.append("$.faults.schema: unexpected "
                        f"'{flt.get('schema')}'")
    need(flt.get("plan", {}), "$.faults.plan",
         ["victim_replica", "crash_seconds", "restart_seconds"])
    need(flt.get("recovery", {}), "$.faults.recovery",
         ["max_attempts", "retry_backoff_seconds",
          "deadline_seconds"])
    if flt.get("no_fault_matches_baseline") is not True:
        FAILURES.append(
            "$.faults.no_fault_matches_baseline: arming a crash-"
            "free FaultPlan must stay bit-identical to no injector")
    fmodes = [c.get("mode") for c in flt.get("modes", [])]
    if fmodes != ["no-fault", "fail-stop", "retry", "retry+shed"]:
        FAILURES.append(f"$.faults.modes: unexpected set {fmodes}")
    for i, cell in enumerate(flt.get("modes", [])):
        need(cell, f"$.faults.modes[{i}]",
             ["mode", "requests_offered", "requests_served",
              "failed_requests", "shed_requests",
              "retried_requests", "retry_recomputed_tokens",
              "injected_crashes", "replica_restarts",
              "kv_transfer_fallbacks", "makespan_seconds",
              "goodput_tokens_per_sec", "slo_attainment",
              "ttft_p99_seconds", "wall_seconds"])
        served = cell.get("requests_served", 0)
        failed = cell.get("failed_requests", 0)
        shed = cell.get("shed_requests", 0)
        offered = cell.get("requests_offered", -1)
        if served + failed + shed != offered:
            FAILURES.append(
                f"$.faults.modes[{i}]: request conservation broken "
                f"({served} served + {failed} failed + {shed} shed "
                f"!= {offered} offered)")
        injected = cell.get("injected_crashes", 0)
        if cell.get("mode") == "no-fault" and injected != 0:
            FAILURES.append(
                "$.faults.modes[0].injected_crashes: the no-fault "
                "baseline must not crash")
        if cell.get("mode") != "no-fault" and injected <= 0:
            FAILURES.append(
                f"$.faults.modes[{i}].injected_crashes: the fault "
                "modes must actually execute the planned crash")
    if len(flt.get("modes", [])) == 4:
        if flt["modes"][1].get("failed_requests", 0) <= 0:
            FAILURES.append(
                "$.faults.modes[1].failed_requests: fail-stop must "
                "drop the requests the crash harvests")
        if flt["modes"][2].get("retried_requests", 0) <= 0:
            FAILURES.append(
                "$.faults.modes[2].retried_requests: the retry mode "
                "must actually resubmit lost requests")
        if flt["modes"][3].get("shed_requests", 0) <= 0:
            FAILURES.append(
                "$.faults.modes[3].shed_requests: the retry+shed "
                "mode must actually shed past-deadline requests")
    win = flt.get("retry_goodput_speedup_vs_failstop", 0)
    if not isinstance(win, (int, float)) or win <= 1.0:
        FAILURES.append(
            "$.faults.retry_goodput_speedup_vs_failstop: retry with "
            "failover must convert fail-stop's dropped requests "
            f"into goodput (got {win})")

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

    soa = doc.get("soa", {})
    need(soa, "$.soa",
         ["schema", "model", "workload", "build", "soa",
          "reference", "soa_matches_reference", "speedup"])
    if soa.get("schema") != "papi-soa/1":
        FAILURES.append(f"$.soa.schema: unexpected "
                        f"'{soa.get('schema')}'")
    need(soa.get("workload", {}), "$.soa.workload",
         ["trace", "requests", "episodes", "input_len",
          "output_len", "max_rlp", "spec_length"])
    need(soa.get("build", {}), "$.soa.build",
         ["compiler_flags", "simd_width_bits", "native_build"])
    for side in ("soa", "reference"):
        need(soa.get(side, {}), f"$.soa.{side}",
             ["simulated_tokens", "iterations", "wall_seconds",
              "tokens_per_sec"])
    # Determinism is unconditional: the SoA engine must replay the
    # exact token stream of the frozen pre-SoA reference, quick mode
    # included - a representation change has no license to perturb
    # results.
    if soa.get("soa_matches_reference") is not True:
        FAILURES.append(
            "$.soa.soa_matches_reference: the SoA serving core must "
            "reproduce the frozen reference engine byte for byte")
    if soa.get("soa", {}).get("simulated_tokens") != \
            soa.get("reference", {}).get("simulated_tokens"):
        FAILURES.append(
            "$.soa: both engines must simulate the identical token "
            "stream for the throughput ratio to mean anything")
    # The speedup floor is a correctness property of the PR's claim
    # (the SoA rewrite exists to be faster): any regression below
    # parity fails even in quick mode. The full >= 5x headline is
    # asserted only on the committed non-quick trajectory.
    soa_win = soa.get("speedup", 0)
    if not isinstance(soa_win, (int, float)) or soa_win <= 1.0:
        FAILURES.append(
            "$.soa.speedup: the SoA core must beat the frozen "
            f"reference engine (got {soa_win})")

    pfx = doc.get("prefix", {})
    need(pfx, "$.prefix",
         ["schema", "model", "arrival", "prefill_chunk_tokens",
          "replicas", "policies",
          "cache_hit_aware_ttft_p99_speedup_vs_round_robin",
          "cache_hit_aware_hit_rate", "streaming"])
    if pfx.get("schema") != "papi-prefix/1":
        FAILURES.append(f"$.prefix.schema: unexpected "
                        f"'{pfx.get('schema')}'")
    if pfx.get("arrival", {}).get("trace") != "agentic":
        FAILURES.append("$.prefix.arrival.trace: the routing "
                        "comparison runs on the multi-turn agentic "
                        "trace")
    pnames = [c.get("policy") for c in pfx.get("policies", [])]
    if pnames != ["round-robin", "session-affinity",
                  "cache-hit-aware"]:
        FAILURES.append(f"$.prefix.policies: unexpected set {pnames}")
    for i, cell in enumerate(pfx.get("policies", [])):
        need(cell, f"$.prefix.policies[{i}]",
             ["policy", "makespan_seconds", "ttft_p50_seconds",
              "ttft_p99_seconds", "prefix_lookups", "prefix_hits",
              "hit_rate", "prefix_hit_tokens", "prefix_miss_tokens",
              "prefix_evicted_bytes", "wall_seconds"])
        # The token ledger holds per cell: every keyed prompt token
        # is either a hit or a miss, and hits are real lookups.
        if cell.get("prefix_hits", 0) > cell.get("prefix_lookups", 0):
            FAILURES.append(
                f"$.prefix.policies[{i}]: more hits than lookups")
        if cell.get("policy") != "round-robin" and \
                cell.get("hit_rate", 0) <= 0:
            FAILURES.append(
                f"$.prefix.policies[{i}].hit_rate: the {pnames[i]} "
                "policy must actually hit the cache on the "
                "multi-turn trace")
    # The CacheHitAware policy's reason to exist: following cached
    # bytes must beat scattering a session's turns across replicas.
    cha_win = pfx.get(
        "cache_hit_aware_ttft_p99_speedup_vs_round_robin", 0)
    if not isinstance(cha_win, (int, float)) or cha_win <= 1.0:
        FAILURES.append(
            "$.prefix.cache_hit_aware_ttft_p99_speedup_vs_round_"
            "robin: cache-hit-aware routing must beat round-robin "
            f"p99 TTFT on the agentic trace (got {cha_win})")
    cha_rate = pfx.get("cache_hit_aware_hit_rate", 0)
    if not isinstance(cha_rate, (int, float)) or cha_rate <= 0:
        FAILURES.append(
            "$.prefix.cache_hit_aware_hit_rate: the headline cell "
            f"must have a nonzero hit rate (got {cha_rate})")
    stm = pfx.get("streaming", {})
    need(stm, "$.prefix.streaming",
         ["trace", "rate_rps", "requests", "seed", "replicas",
          "max_rlp", "record_capacity", "requests_served",
          "stats_truncated", "records_retained", "ttft_p99_seconds",
          "mean_latency_seconds", "wall_seconds",
          "requests_per_sec", "rss_before_mb", "rss_peak_mb",
          "rss_growth_mb"])
    if stm.get("requests", 0) < 1_000_000:
        FAILURES.append(
            "$.prefix.streaming.requests: the streaming cell must "
            f"offer at least one million requests "
            f"(got {stm.get('requests')})")
    if stm.get("requests_served", 0) != stm.get("requests", -1):
        FAILURES.append(
            "$.prefix.streaming.requests_served: the fault-free "
            "streaming run must serve every offered request")
    if stm.get("stats_truncated") is not True:
        FAILURES.append(
            "$.prefix.streaming.stats_truncated: a million requests "
            "must overflow record_capacity, or the bounded-memory "
            "path was never exercised")
    cap = stm.get("record_capacity", 0)
    replicas = stm.get("replicas", 0)
    if isinstance(cap, int) and isinstance(replicas, int) and \
            stm.get("records_retained", -1) > cap * replicas:
        FAILURES.append(
            "$.prefix.streaming.records_retained: retained records "
            "exceed record_capacity x replicas - the cap leaked")
    # The constant-memory claim: the cell's RSS high-water growth
    # must be a flat allowance (record caps, in-flight arrivals),
    # not something that scales with a million-request trace
    # (materialized, that trace alone is > 1 GB of records).
    growth = stm.get("rss_growth_mb", 1 << 30)
    if not isinstance(growth, (int, float)) or growth >= 512.0:
        FAILURES.append(
            "$.prefix.streaming.rss_growth_mb: the million-request "
            "streaming cell must stay under a flat 512 MiB RSS "
            f"growth ceiling (got {growth})")

    if FAILURES:
        for f_ in FAILURES:
            print(f"FAIL {f_}")
        print(f"{len(FAILURES)} schema failure(s)")
        return 1
    print(f"OK {sys.argv[1]}: papi-microbench/2 schema valid "
          "(incl. policy, cluster, continuous, disagg, faults, "
          "parallel, soa, prefix sub-schemas)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
