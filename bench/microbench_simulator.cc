/**
 * @file
 * Perf harness for the layers the repository benchmark does not see.
 *
 * perfbench/ (declared in BENCHMARK.json) times whole serving
 * workloads. This program measures what those workloads cannot show
 * on their own - raw event-queue and DRAM controller throughput, the
 * static-batch decode and figure-cell loops, the parallel cluster
 * engine's worker sweep, and the constant-memory million-request
 * stream - and emits one machine-readable JSON document (schema
 * below) so CI can archive per-commit trajectories (BENCH_*.json).
 *
 * The event-queue section times sim::EventQueue on three
 * production-shaped patterns and the dram section times
 * dram::MemController on two request shapes. Both report absolute
 * rates, which compare across commits on one machine only.
 *
 * Usage:
 *   microbench_simulator [--quick] [--out FILE]
 *
 *   --quick         smaller problem sizes (CI smoke mode)
 *   --out FILE      also write the JSON document to FILE
 *
 * JSON schema (papi-microbench/3; docs/BENCHMARKS.md documents every
 * field):
 *   {
 *     "schema": "papi-microbench/3",
 *     "quick": bool,
 *     "build": { "compiler_flags": str,  // PAPI_BENCH_FLAGS
 *                "simd_width_bits": n, "native_build": bool },
 *     "streaming": {                    // runs first, full size always
 *       "trace": str, "rate_rps": x, "requests": n, "seed": n,
 *       "replicas": n, "max_rlp": n, "record_capacity": n,
 *       "requests_served": n, "stats_truncated": bool,
 *       "records_retained": n, "ttft_p99_seconds": x,
 *       "mean_latency_seconds": x, "wall_seconds": s,
 *       "requests_per_sec": x, "rss_before_mb": x,
 *       "rss_peak_mb": x, "rss_growth_mb": x
 *     },
 *     "event_queue": {
 *       "events_per_pattern": N,
 *       "patterns": {
 *         "<replay|controller|devices>": {
 *           "events_per_sec": x         // best of 3
 *         }, ...
 *       }
 *     },
 *     "dram": {
 *       "<stream|pump>": {              // two workload shapes
 *         "requests": n, "wall_seconds": s, "events": n,
 *         "events_per_sec": x, "requests_per_sec": x
 *       }
 *     },
 *     "decode": { "simulated_tokens": n, "iterations": n,
 *                 "wall_seconds": s, "tokens_per_sec": x },
 *     "figure_cell": { "cells": n, "wall_seconds": s },
 *     "parallel": {                     // sub-schema papi-parallel/1
 *       "schema": "papi-parallel/1",
 *       "model": str,
 *       "arrival": { "trace": "general-qa", "rate_rps": x,
 *                    "requests": n, "seed": n, "max_rlp": n },
 *       "replicas": n,
 *       "hardware_threads": n,          // host concurrency
 *       "parallel_matches_serial": bool, // AND over all cells
 *       "workers": [
 *         { "workers": n, "wall_seconds": s, // fastest of 3
 *           "speedup_vs_serial": x,     // serial wall / this wall
 *           "matches_serial": bool }, ... // every repeat
 *       ],
 *       "speedup_at_8_workers": x
 *     }
 *   }
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "cluster/cluster_engine.hh"
#include "core/decode_engine.hh"
#include "core/platform.hh"
#include "core/threshold_calibrator.hh"
#include "dram/controller.hh"
#include "llm/arrival.hh"
#include "llm/trace.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace papi;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Process-lifetime peak RSS in MiB (getrusage; monotonic, so the
 * delta across a run is the memory that run's high-water mark added
 * on top of everything before it). 0.0 where unavailable.
 */
double
peakRssMb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
#else
    return 0.0;
#endif
}

/**
 * Event payload representative of device events: a few words of
 * captured state (32 bytes) and a touch of an accumulator. Well
 * inside EventCallback's inline buffer; past std::function's.
 */
struct Payload
{
    std::uint64_t *acc;
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t c;
};

/**
 * Command-replay pattern (GemvEngine-style): phases that schedule a
 * burst of closely spaced commands from the current time and drain
 * them before the next burst.
 */
double
runReplay(std::uint64_t n)
{
    constexpr std::uint64_t phases = 16;
    const std::uint64_t per_phase = n / phases;
    std::uint64_t acc = 0;
    auto start = Clock::now();
    sim::EventQueue q;
    for (std::uint64_t ph = 0; ph < phases; ++ph) {
        const sim::Tick base = q.now();
        for (std::uint64_t i = 0; i < per_phase; ++i) {
            Payload p{&acc, i, i ^ 0x9e3779b9, i * 3};
            q.schedule(base + i * 8,
                       [p] { *p.acc += p.a + p.b + p.c; });
        }
        q.run();
    }
    double wall = secondsSince(start);
    if (q.executed() != phases * per_phase || acc == 0)
        std::fprintf(stderr, "replay: bad drain\n");
    return static_cast<double>(phases * per_phase) / wall;
}

/**
 * Controller pattern: a fixed population of in-flight requests, each
 * completion scheduling a successor at a random bounded offset
 * (precomputed before the clock starts). Like the production
 * MemController, every completion event carries the request's user
 * callback - a std::function - in its capture, which is exactly the
 * event shape that dominates DRAM-heavy runs.
 */
struct ControllerDriver
{
    sim::EventQueue *q;
    const sim::Tick *offsets;
    std::uint64_t next = 0;
    std::uint64_t total = 0;
    std::uint64_t acc = 0;

    void
    fire(sim::Tick arrival,
         const std::function<void(sim::Tick)> &on_complete)
    {
        on_complete(q->now() - arrival);
        if (next < total) {
            sim::Tick off = offsets[next++];
            ControllerDriver *d = this;
            std::uint64_t *acc_p = &acc;
            std::function<void(sim::Tick)> cb =
                [acc_p](sim::Tick lat) { *acc_p += lat; };
            q->scheduleAfter(
                off, [d, arrival = q->now(),
                      cb = std::move(cb)] { d->fire(arrival, cb); });
        }
    }
};

double
runController(std::uint64_t n)
{
    // In-flight population sized to the modeled platform: 90 HBM
    // devices x 16 pseudo-channel controllers keeping requests in flight.
    constexpr std::uint64_t inflight = 1024;
    sim::Rng rng(12345);
    std::vector<sim::Tick> offsets(n);
    for (auto &t : offsets)
        t = static_cast<sim::Tick>(rng.uniformInt(64, 1 << 15));

    auto start = Clock::now();
    sim::EventQueue q;
    ControllerDriver d{&q, offsets.data()};
    d.total = n > inflight ? n - inflight : 0;
    std::uint64_t *acc_p = &d.acc;
    std::function<void(sim::Tick)> cb = [acc_p](sim::Tick lat) {
        *acc_p += lat;
    };
    for (std::uint64_t i = 0; i < inflight && i < n; ++i) {
        ControllerDriver *dp = &d;
        q.schedule(i, [dp, i, cb] { dp->fire(i, cb); });
    }
    q.run();
    double wall = secondsSince(start);
    if (q.executed() != n)
        std::fprintf(stderr, "controller: bad drain\n");
    return static_cast<double>(n) / wall;
}

/**
 * Device pattern: 1024 clocked devices (the platform models 90 HBM
 * stacks x 16 pseudo-channel sequencers) each re-scheduling
 * themselves at a device-specific period, the way engines drive the
 * queue.
 */
struct DeviceChain
{
    sim::EventQueue *q;
    std::uint64_t left;
    sim::Tick period;
    std::uint64_t acc;

    void
    fire(std::uint64_t salt)
    {
        acc += period + salt;
        if (--left > 0) {
            DeviceChain *c = this;
            Payload p{&acc, period, left, salt};
            q->scheduleAfter(period, [c, p] { c->fire(p.c + 1); });
        }
    }
};

double
runDevices(std::uint64_t n)
{
    constexpr std::uint64_t chains = 1024;
    auto start = Clock::now();
    sim::EventQueue q;
    std::vector<DeviceChain> cs(chains);
    for (std::uint64_t i = 0; i < chains; ++i) {
        cs[i] = DeviceChain{&q, n / chains, 100 + 37 * i, 0};
        DeviceChain *c = &cs[i];
        q.schedule(i, [c] { c->fire(0); });
    }
    q.run();
    double wall = secondsSince(start);
    return static_cast<double>(q.executed()) / wall;
}

/** Results of one DRAM streaming run. */
struct DramResult
{
    std::uint64_t requests = 0;
    double wall = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    double reqsPerSec = 0.0;
};

/**
 * End-to-end DRAM throughput: a request stream through the
 * production path (calendar EventQueue + batched MemController) in
 * two workload shapes:
 *
 *  - "stream": the whole request list enqueued up front (FCFS,
 *    unbounded queue), the shape kernel replays produce. Exercises
 *    the per-command event path.
 *  - "pump": a completion-driven client keeping the 64-deep FR-FCFS
 *    queue full, the shape online serving produces. Exercises
 *    service-event management: its events per request is a
 *    deterministic count that grows if the controller starts
 *    breeding superseded events.
 */
void
benchDram(std::uint64_t n, DramResult &stream_out, DramResult &pump_out)
{
    // The pump shape runs n / 8 requests, the count its committed
    // trajectory was recorded at.
    const std::uint64_t pump_n = n / 8;

    auto finish = [](sim::EventQueue &eq, std::uint64_t done,
                     std::uint64_t want, DramResult &out,
                     Clock::time_point start, const char *label) {
        out.wall = secondsSince(start);
        if (done != want)
            std::fprintf(stderr, "%s: bad drain (%llu)\n", label,
                         static_cast<unsigned long long>(done));
        out.requests = want;
        out.events = eq.executed();
        out.eventsPerSec =
            static_cast<double>(eq.executed()) / out.wall;
        out.reqsPerSec = static_cast<double>(want) / out.wall;
    };

    {
        sim::EventQueue eq;
        dram::MemController ctrl(eq, dram::hbm3Spec(),
                                 dram::SchedulingPolicy::Fcfs,
                                 dram::MappingPolicy::RoCoBaBg, 0);
        ctrl.setRefreshEnabled(false);
        auto start = Clock::now();
        std::uint64_t done = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            dram::MemRequest r;
            r.addr = i * 32;
            r.isWrite = (i % 7 == 0);
            r.onComplete = [&done](sim::Tick) { ++done; };
            ctrl.enqueue(std::move(r));
        }
        eq.run();
        finish(eq, done, n, stream_out, start, "dram stream");
    }
    {
        sim::EventQueue eq;
        dram::MemController ctrl(eq, dram::hbm3Spec(),
                                 dram::SchedulingPolicy::FrFcfs,
                                 dram::MappingPolicy::RoCoBaBg, 64);
        ctrl.setRefreshEnabled(false);
        auto start = Clock::now();
        std::uint64_t next = 0;
        std::uint64_t done = 0;
        std::function<void()> refill = [&] {
            while (next < pump_n) {
                dram::MemRequest r;
                r.addr = next * 32;
                r.isWrite = (next % 7 == 0);
                r.onComplete = [&](sim::Tick) {
                    ++done;
                    refill();
                };
                if (!ctrl.enqueue(std::move(r)))
                    break;
                ++next;
            }
        };
        refill();
        eq.run();
        finish(eq, done, pump_n, pump_out, start, "dram pump");
    }
}

/** Static-batch decode loop throughput in simulated tokens/sec. */
void
benchDecode(std::uint32_t reps, std::uint64_t &tokens,
            std::uint64_t &iters, double &wall)
{
    core::Platform papi_sys(core::makePapiConfig());
    llm::ModelConfig model = llm::llama65b();
    double alpha =
        core::ThresholdCalibrator::calibrate(papi_sys, model).alpha;
    core::DecodeEngine engine(papi_sys);
    llm::SpeculativeConfig spec;
    spec.length = 2;

    tokens = 0;
    iters = 0;
    auto start = Clock::now();
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        llm::TraceGenerator gen(llm::TraceCategory::CreativeWriting,
                                42 + rep);
        llm::Batch batch(gen.generate(64), model);
        core::RunOptions opt;
        opt.alpha = alpha;
        opt.seed = rep + 1;
        core::RunResult r = engine.run(batch, spec, model, opt);
        tokens += r.tokensGenerated;
        iters += r.iterations;
    }
    wall = secondsSince(start);
}

/** Wall-clock of representative figure cells (fig08-style). */
void
benchFigureCells(std::uint32_t &cells, double &wall)
{
    core::Platform base(core::makeA100AttAccConfig());
    core::Platform papi_sys(core::makePapiConfig());
    core::DecodeEngine e_base(base), e_papi(papi_sys);
    llm::ModelConfig model = llm::llama65b();
    double alpha =
        core::ThresholdCalibrator::calibrate(papi_sys, model).alpha;

    cells = 0;
    auto start = Clock::now();
    for (std::uint32_t spec_len : {1u, 2u, 4u}) {
        for (std::uint32_t batch_size : {4u, 16u, 64u}) {
            llm::SpeculativeConfig spec;
            spec.length = spec_len;
            for (auto *engine : {&e_base, &e_papi}) {
                llm::TraceGenerator gen(
                    llm::TraceCategory::CreativeWriting, 42);
                llm::Batch batch(gen.generate(batch_size), model);
                core::RunOptions opt;
                opt.alpha = alpha;
                engine->run(batch, spec, model, opt);
                ++cells;
            }
        }
    }
    wall = secondsSince(start);
}

/** One event-queue pattern's best-of-3 rate. */
struct PatternResult
{
    const char *name;
    double rate = 0.0;
};

/** Inputs and outcomes of the million-request streaming cell. */
struct StreamingBench
{
    double rateRps = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t seed = 0;
    std::uint32_t replicas = 0;
    std::uint32_t maxRlp = 0;
    std::uint64_t recordCapacity = 0;
    cluster::ClusterResult result;
    double wall = 0.0;
    double rssBeforeMb = 0.0;
    double rssPeakMb = 0.0;
};

/**
 * One million GeneralQa requests through ClusterEngine::runStream()
 * - arrivals pulled one at a time from llm::ArrivalProcess::next(),
 * never materialized - with ClusterOptions::recordCapacity bounding
 * per-replica record storage (past the cap, exact streaming counters
 * and P-square estimators carry the aggregates). Peak RSS is sampled
 * before and after: the growth is the cell's memory high-water mark,
 * which must stay flat in request count for the constant-memory
 * claim to hold. The offered rate sits well under the 4-replica
 * capacity so the router's pending queue - the one structure that
 * scales with overload - stays bounded too.
 *
 * main() runs this cell before every other section. The getrusage
 * peak is monotonic, so a cell measured after a larger one (the
 * 64-replica parallel sweep) reads zero growth whatever it
 * allocates.
 */
StreamingBench
benchStreaming()
{
    StreamingBench out;
    out.rateRps = 30.0;
    out.requests = 1'000'000;
    out.seed = 101;
    out.replicas = 4;
    out.maxRlp = 16;
    out.recordCapacity = 32768;

    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;

    cluster::ClusterOptions opt;
    opt.numPlatforms = out.replicas;
    opt.policy = cluster::RouterPolicy::RoundRobin;
    opt.serving.maxRlp = out.maxRlp;
    opt.recordCapacity = out.recordCapacity;

    llm::ArrivalProcess gen(llm::TraceCategory::GeneralQa,
                            out.rateRps, out.seed);
    out.rssBeforeMb = peakRssMb();
    cluster::ClusterEngine engine(cfg, opt);
    auto start = Clock::now();
    out.result = engine.runStream(gen, out.requests, spec, model);
    out.wall = secondsSince(start);
    out.rssPeakMb = peakRssMb();
    return out;
}

/** One worker-count cell of the papi-parallel/1 section. */
struct ParallelCell
{
    unsigned workers = 0;
    double wall = 0.0;
    bool matchesSerial = false;
};

/** Inputs and outcomes of the parallel self-speedup study. */
struct ParallelBench
{
    double rateRps = 0.0;
    std::uint32_t requests = 0;
    std::uint32_t replicas = 0;
    std::uint32_t maxRlp = 0;
    std::uint64_t seed = 0;
    unsigned hardwareThreads = 0;
    bool parallelMatchesSerial = false;
    std::vector<ParallelCell> cells;
};

/** Key cluster aggregates compared bitwise (no tolerance). */
bool
clusterBitwiseEqual(const cluster::ClusterResult &a,
                    const cluster::ClusterResult &b)
{
    return a.makespanSeconds == b.makespanSeconds &&
           a.energyJoules == b.energyJoules &&
           a.tokensGenerated == b.tokensGenerated &&
           a.requestsServed == b.requestsServed &&
           a.ttft.p99 == b.ttft.p99 && a.tpot.p99 == b.tpot.p99 &&
           a.kvTransferSeconds == b.kvTransferSeconds &&
           a.goodputTokensPerSecond == b.goodputTokensPerSecond &&
           a.sloAttainment == b.sloAttainment;
}

/**
 * Self-speedup of the sharded cluster simulation: the same
 * 64-replica round-robin cluster and GeneralQa stream at 1, 2, 4,
 * and 8 worker threads. Round-robin routing with no faults takes
 * the driver's pre-routed fast path (zero window barriers), so
 * this measures the parallel ceiling. Each worker count runs three
 * times, interleaved with the others, and keeps its fastest wall
 * time, as the event-queue patterns do: one run of tens of
 * milliseconds is at the mercy of the host scheduler. Every run
 * after the first serial one is bit-compared against it - the
 * determinism contract tests/parallel_identity_test.cc proves
 * feature by feature, re-checked here at bench scale on every run.
 */
ParallelBench
benchParallel(bool quick)
{
    ParallelBench out;
    out.rateRps = 600.0;
    out.requests = quick ? 384 : 1536;
    out.replicas = 64;
    out.maxRlp = 16;
    out.seed = 13;
    out.hardwareThreads = std::thread::hardware_concurrency();

    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    core::Platform reference(cfg);
    double alpha =
        core::ThresholdCalibrator::calibrate(reference, model).alpha;

    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 out.rateRps, out.seed);
    auto stream = arrivals.generate(out.requests);
    llm::SpeculativeConfig spec;

    cluster::ClusterOptions opt;
    opt.numPlatforms = out.replicas;
    opt.policy = cluster::RouterPolicy::RoundRobin;
    opt.serving.alpha = alpha;
    opt.serving.maxRlp = out.maxRlp;

    for (unsigned workers : {1u, 2u, 4u, 8u})
        out.cells.push_back({workers, 0.0, true});
    cluster::ClusterResult serial;
    bool have_serial = false;
    for (int rep = 0; rep < 3; ++rep) {
        for (ParallelCell &cell : out.cells) {
            opt.workerThreads = cell.workers;
            cluster::ClusterEngine engine(cfg, opt);
            auto start = Clock::now();
            cluster::ClusterResult r = engine.run(stream, spec, model);
            const double wall = secondsSince(start);
            cell.wall = rep == 0 ? wall : std::min(cell.wall, wall);
            if (have_serial) {
                cell.matchesSerial =
                    cell.matchesSerial && clusterBitwiseEqual(serial, r);
            } else {
                serial = std::move(r);
                have_serial = true;
            }
        }
    }
    out.parallelMatchesSerial = true;
    for (const ParallelCell &cell : out.cells)
        out.parallelMatchesSerial =
            out.parallelMatchesSerial && cell.matchesSerial;
    return out;
}

// Build provenance for the top-level build block: the effective
// optimization flags and the widest SIMD ISA the compiler could
// assume, baked in by CMake (PAPI_BENCH_FLAGS / PAPI_NATIVE_BUILD).
#ifndef PAPI_BENCH_FLAGS
#define PAPI_BENCH_FLAGS "unknown"
#endif
#ifndef PAPI_NATIVE_BUILD
#define PAPI_NATIVE_BUILD 0
#endif
#if defined(__AVX512F__)
constexpr unsigned kSimdWidthBits = 512;
#elif defined(__AVX2__)
constexpr unsigned kSimdWidthBits = 256;
#elif defined(__SSE2__) || defined(__x86_64__)
constexpr unsigned kSimdWidthBits = 128;
#else
constexpr unsigned kSimdWidthBits = 64;
#endif

/** Everything one run measured. */
struct Results
{
    bool quick = false;
    StreamingBench streaming;
    std::uint64_t eqEvents = 0;
    std::vector<PatternResult> patterns;
    DramResult dramStream;
    DramResult dramPump;
    std::uint64_t decTokens = 0;
    std::uint64_t decIters = 0;
    double decWall = 0.0;
    std::uint32_t figCells = 0;
    double figWall = 0.0;
    ParallelBench parallel;
};

void
writeJson(std::FILE *f, const Results &res)
{
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"papi-microbench/3\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", res.quick ? "true" : "false");
    std::fprintf(f,
                 "  \"build\": {\"compiler_flags\": \"%s\", "
                 "\"simd_width_bits\": %u, \"native_build\": %s},\n",
                 PAPI_BENCH_FLAGS, kSimdWidthBits,
                 PAPI_NATIVE_BUILD ? "true" : "false");

    const StreamingBench &sb = res.streaming;
    const cluster::ClusterResult &sr = sb.result;
    std::fprintf(f, "  \"streaming\": {\n");
    std::fprintf(f,
                 "    \"trace\": \"general-qa\", "
                 "\"rate_rps\": %.1f, \"requests\": %llu, "
                 "\"seed\": %llu, \"replicas\": %u, "
                 "\"max_rlp\": %u,\n",
                 sb.rateRps,
                 static_cast<unsigned long long>(sb.requests),
                 static_cast<unsigned long long>(sb.seed),
                 sb.replicas, sb.maxRlp);
    std::fprintf(f, "    \"record_capacity\": %llu,\n",
                 static_cast<unsigned long long>(sb.recordCapacity));
    std::fprintf(f,
                 "    \"requests_served\": %llu, "
                 "\"stats_truncated\": %s, "
                 "\"records_retained\": %llu,\n",
                 static_cast<unsigned long long>(sr.requestsServed),
                 sr.statsTruncated ? "true" : "false",
                 static_cast<unsigned long long>(sr.records.size()));
    std::fprintf(f,
                 "    \"ttft_p99_seconds\": %.6f, "
                 "\"mean_latency_seconds\": %.6f,\n",
                 sr.ttft.p99, sr.meanLatencySeconds);
    std::fprintf(f,
                 "    \"wall_seconds\": %.6f, "
                 "\"requests_per_sec\": %.6e,\n",
                 sb.wall,
                 sb.wall > 0.0
                     ? static_cast<double>(sr.requestsServed) / sb.wall
                     : 0.0);
    std::fprintf(f,
                 "    \"rss_before_mb\": %.1f, "
                 "\"rss_peak_mb\": %.1f, "
                 "\"rss_growth_mb\": %.1f\n",
                 sb.rssBeforeMb, sb.rssPeakMb,
                 sb.rssPeakMb - sb.rssBeforeMb);
    std::fprintf(f, "  },\n");

    std::fprintf(f, "  \"event_queue\": {\n");
    std::fprintf(f, "    \"events_per_pattern\": %llu,\n",
                 static_cast<unsigned long long>(res.eqEvents));
    std::fprintf(f, "    \"patterns\": {\n");
    for (std::size_t i = 0; i < res.patterns.size(); ++i)
        std::fprintf(f, "      \"%s\": {\"events_per_sec\": %.6e}%s\n",
                     res.patterns[i].name, res.patterns[i].rate,
                     i + 1 < res.patterns.size() ? "," : "");
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  },\n");
    auto dram_shape = [f](const char *name, const DramResult &r,
                          const char *trailer) {
        std::fprintf(f,
                     "    \"%s\": {\"requests\": %llu, "
                     "\"wall_seconds\": %.6f, \"events\": %llu, "
                     "\"events_per_sec\": %.6e, "
                     "\"requests_per_sec\": %.6e}%s\n",
                     name, static_cast<unsigned long long>(r.requests),
                     r.wall, static_cast<unsigned long long>(r.events),
                     r.eventsPerSec, r.reqsPerSec, trailer);
    };
    std::fprintf(f, "  \"dram\": {\n");
    dram_shape("stream", res.dramStream, ",");
    dram_shape("pump", res.dramPump, "");
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"decode\": {\"simulated_tokens\": %llu, "
                 "\"iterations\": %llu, \"wall_seconds\": %.6f, "
                 "\"tokens_per_sec\": %.6e},\n",
                 static_cast<unsigned long long>(res.decTokens),
                 static_cast<unsigned long long>(res.decIters),
                 res.decWall,
                 static_cast<double>(res.decTokens) / res.decWall);
    std::fprintf(f,
                 "  \"figure_cell\": {\"cells\": %u, "
                 "\"wall_seconds\": %.6f},\n",
                 res.figCells, res.figWall);

    const ParallelBench &xb = res.parallel;
    std::fprintf(f, "  \"parallel\": {\n");
    std::fprintf(f, "    \"schema\": \"papi-parallel/1\",\n");
    std::fprintf(f, "    \"model\": \"llama-65b\",\n");
    std::fprintf(f,
                 "    \"arrival\": {\"trace\": \"general-qa\", "
                 "\"rate_rps\": %.1f, \"requests\": %u, "
                 "\"seed\": %llu, \"max_rlp\": %u},\n",
                 xb.rateRps, xb.requests,
                 static_cast<unsigned long long>(xb.seed),
                 xb.maxRlp);
    std::fprintf(f, "    \"replicas\": %u,\n", xb.replicas);
    std::fprintf(f, "    \"hardware_threads\": %u,\n",
                 xb.hardwareThreads);
    std::fprintf(f, "    \"parallel_matches_serial\": %s,\n",
                 xb.parallelMatchesSerial ? "true" : "false");
    std::fprintf(f, "    \"workers\": [\n");
    const double serial_wall = xb.cells[0].wall;
    for (std::size_t i = 0; i < xb.cells.size(); ++i) {
        const ParallelCell &c = xb.cells[i];
        std::fprintf(f,
                     "      {\"workers\": %u, "
                     "\"wall_seconds\": %.6f, "
                     "\"speedup_vs_serial\": %.3f, "
                     "\"matches_serial\": %s}%s\n",
                     c.workers, c.wall, serial_wall / c.wall,
                     c.matchesSerial ? "true" : "false",
                     i + 1 < xb.cells.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"speedup_at_8_workers\": %.3f\n",
                 serial_wall / xb.cells.back().wall);
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Results res;
    const char *out_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            res.quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--quick] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    const bool quick = res.quick;
    res.eqEvents = quick ? 1u << 16 : 1u << 19;
    const std::uint64_t dram_n = quick ? 2048 : 16384;
    const std::uint32_t decode_reps = quick ? 2 : 8;

    // First, while the RSS high-water mark is still the process's
    // own startup footprint (see benchStreaming).
    res.streaming = benchStreaming();

    // Event-queue patterns: run each three times and keep the best
    // rate (minimizes scheduler noise).
    res.patterns = {{"replay"}, {"controller"}, {"devices"}};
    for (int rep = 0; rep < 3; ++rep) {
        res.patterns[0].rate =
            std::max(res.patterns[0].rate, runReplay(res.eqEvents));
        res.patterns[1].rate = std::max(res.patterns[1].rate,
                                        runController(res.eqEvents));
        res.patterns[2].rate =
            std::max(res.patterns[2].rate, runDevices(res.eqEvents));
    }

    benchDram(dram_n, res.dramStream, res.dramPump);
    benchDecode(decode_reps, res.decTokens, res.decIters, res.decWall);
    benchFigureCells(res.figCells, res.figWall);
    res.parallel = benchParallel(quick);

    writeJson(stdout, res);
    if (out_path) {
        std::FILE *f = std::fopen(out_path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", out_path);
            return 1;
        }
        writeJson(f, res);
        std::fclose(f);
    }
    return 0;
}
