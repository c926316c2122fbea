#include "workload.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/threshold_calibrator.hh"
#include "llm/kv_cache.hh"
#include "sim/fault_plan.hh"
#include "sim/rng.hh"

namespace perfbench {

using namespace papi;

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "qa-stream", "spec-decode", "agentic-prefix", "disagg-faults"};
    return names;
}

namespace {

/** A splitmix64 step: independent seeds (each stream's arrivals, its
 *  fault schedule) drawn from one. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * The disagg-faults schedule: seeded replica crashes with restarts
 * spread over the run, plus evenly spaced fabric windows (alternating
 * partition and 5% degradation) jittered by the same seed.
 */
sim::FaultPlan
faultPlan(std::uint64_t seed, std::uint32_t replicas, double horizon)
{
    sim::FaultPlanParams p;
    p.seed = mixSeed(seed, 1);
    p.numReplicas = replicas;
    // One crash per 20 simulated seconds keeps the fault density of
    // a stream independent of its length.
    p.crashes = static_cast<std::uint32_t>(horizon / 20.0);
    p.horizonSeconds = horizon;
    p.coldStartSeconds = 1.5;
    p.restart = true;
    sim::FaultPlan plan = sim::FaultPlan::generate(p);

    const int kWindows = static_cast<int>(horizon / 30.0);
    constexpr double kWindowSeconds = 1.0;
    sim::Rng rng(mixSeed(seed, 2));
    const double slot = horizon / kWindows;
    for (int i = 0; i < kWindows; ++i) {
        const double start =
            slot * i + rng.uniformReal(0.1 * slot, 0.8 * slot);
        plan.linkFaults.push_back(
            {start, start + kWindowSeconds, i % 2 == 0 ? 0.0 : 0.05});
    }
    plan.validate(replicas);
    return plan;
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    w.seed = seed;
    cluster::ClusterOptions &o = w.options;
    o.workerThreads = 1;
    core::ServingOptions &s = o.serving;
    // Why each workload exists, and what it leaves idle, is recorded
    // in BENCHMARK.json and NOTES.md.
    if (name == "qa-stream") {
        // Small batches: per-event host work dominates. The record
        // cap hands percentiles to the P-square estimators.
        w.category = llm::TraceCategory::GeneralQa;
        w.rateRps = 30.0;
        w.requests = 8000;
        w.streams = 24;
        o.numPlatforms = 4;
        o.policy = cluster::RouterPolicy::RoundRobin;
        o.recordCapacity = 1024;
        s.maxRlp = 16;
    } else if (name == "spec-decode") {
        // Large speculative batches: per-iteration planning dominates.
        // The platform's own KV pool: a pool small enough to preempt
        // made the tail metrics swing with the seed (NOTES.md).
        w.category = llm::TraceCategory::CreativeWriting;
        w.rateRps = 22.0;
        w.requests = 3000;
        w.streams = 24;
        w.specLength = 4;
        o.numPlatforms = 2;
        o.policy = cluster::RouterPolicy::LeastOutstanding;
        s.maxRlp = 128;
        s.prefillChunkTokens = 64;
        s.preemptOnKvPressure = true;
    } else if (name == "agentic-prefix") {
        // The shrunk pool fills with finished sessions' prefixes, so
        // retirements evict as well as insert.
        w.category = llm::TraceCategory::AgenticLoop;
        w.rateRps = 2.0;
        w.requests = 3000;
        w.streams = 16;
        w.kvPoolTokens = 24 * 1024;
        o.numPlatforms = 4;
        o.policy = cluster::RouterPolicy::CacheHitAware;
        s.maxRlp = 16;
        s.prefillChunkTokens = 64;
        s.prefixCacheEnabled = true;
    } else if (name == "disagg-faults") {
        // Coordinator events: migrations, crashes, retries, shedding.
        w.category = llm::TraceCategory::PrefillHeavy;
        w.rateRps = 24.0;
        w.requests = 4000;
        w.streams = 24;
        o.disagg.enabled = true;
        o.disagg.prefillReplicas = 2;
        o.disagg.decodeReplicas = 2;
        o.disagg.prefillPolicy = cluster::RouterPolicy::LeastOutstanding;
        o.recovery.retryBackoffSeconds = 0.05;
        o.recovery.transferTimeoutSeconds = 0.25;
        o.faults = faultPlan(
            seed, 4, static_cast<double>(w.requests) / w.rateRps);
        s.maxRlp = 16;
        s.prefillChunkTokens = 64;
        s.deadlineSeconds = 1.0;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::vector<Workload>
makeStreams(const std::string &name, std::uint64_t seed)
{
    std::vector<Workload> out{makeWorkload(name, mixSeed(seed, 100))};
    for (std::size_t s = 1; s < out.front().streams; ++s)
        out.push_back(makeWorkload(name, mixSeed(seed, 100 + s)));
    for (Workload &w : out)
        w.runSeed = seed;
    return out;
}

Deployment
deploy(const Workload &w)
{
    Deployment d;
    d.config = core::makePapiConfig();
    d.model = llm::llama65b();
    d.spec.length = w.specLength;
    d.options = w.options;
    const core::Platform reference(d.config);
    d.options.serving.alpha =
        core::ThresholdCalibrator::calibrate(reference, d.model).alpha;
    if (w.kvPoolTokens > 0)
        d.options.serving.kvCapacityOverrideBytes =
            llm::kvPoolBytesPerDevice(d.model, w.kvPoolTokens,
                                      d.config.numAttnDevices);
    return d;
}

llm::ArrivalProcess
arrivals(const Workload &w)
{
    return llm::ArrivalProcess(w.category, w.rateRps, w.seed);
}

SimMetrics
simMetrics(const cluster::ClusterResult &r)
{
    SimMetrics m;
    m.ttftP50 = r.ttft.p50;
    m.ttftP99 = r.ttft.p99;
    m.tpotP50 = r.tpot.p50;
    m.tpotP99 = r.tpot.p99;
    m.goodput = r.goodputTokensPerSecond;
    m.joulesPerToken = r.tokensGenerated > 0
                           ? r.energyJoules /
                                 static_cast<double>(r.tokensGenerated)
                           : 0.0;
    m.servedShare = r.requestsOffered > 0
                        ? static_cast<double>(r.requestsServed) /
                              static_cast<double>(r.requestsOffered)
                        : 0.0;
    m.samples = r.requestsServed;
    return m;
}

std::vector<std::string>
checkRun(const Workload &w, const cluster::ClusterResult &r)
{
    std::vector<std::string> failures;
    if (r.requestsOffered != w.requests)
        failures.push_back("offered " +
                           std::to_string(r.requestsOffered) +
                           " != requested " + std::to_string(w.requests));
    if (r.requestsServed + r.failedRequests + r.shedRequests !=
        r.requestsOffered)
        failures.push_back("offered != served + failed + shed");
    const SimMetrics m = simMetrics(r);
    const std::pair<const char *, double> values[] = {
        {"sim_ttft_p50_s", m.ttftP50},
        {"sim_ttft_p99_s", m.ttftP99},
        {"sim_tpot_p50_s", m.tpotP50},
        {"sim_tpot_p99_s", m.tpotP99},
        {"sim_goodput_tok_per_s", m.goodput},
        {"sim_j_per_token", m.joulesPerToken},
        {"served_share", m.servedShare},
    };
    for (const auto &[name, v] : values) {
        if (!std::isfinite(v) || !(v > 0.0))
            failures.push_back(std::string(name) +
                               " is not finite and positive");
    }
    if (w.options.serving.prefixCacheEnabled) {
        llm::ArrivalProcess src = arrivals(w);
        std::uint64_t prompt = 0;
        for (std::uint64_t i = 0; i < w.requests; ++i)
            prompt += src.next().request.inputLen;
        if (r.prefixHitTokens + r.prefixMissTokens != prompt)
            failures.push_back("prefix hit + miss tokens " +
                               std::to_string(r.prefixHitTokens +
                                              r.prefixMissTokens) +
                               " != offered prompt tokens " +
                               std::to_string(prompt));
    }
    return failures;
}

namespace {

bool
same(double a, double b)
{
    // Bitwise: NaN aggregates of empty populations compare equal to
    // themselves, and -0.0 differs from 0.0.
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
same(std::uint64_t a, std::uint64_t b)
{
    return a == b;
}

bool
same(const std::vector<std::uint64_t> &a,
     const std::vector<std::uint64_t> &b)
{
    return a == b;
}

} // namespace

bool
sameServingResult(const core::ServingResult &a,
                  const core::ServingResult &b, std::string &why)
{
#define PERFBENCH_SAME(field)                                          \
    if (!same(a.field, b.field)) {                                     \
        why = #field;                                                  \
        return false;                                                  \
    }
    PERFBENCH_SAME(makespanSeconds)
    PERFBENCH_SAME(energyJoules)
    PERFBENCH_SAME(iterations)
    PERFBENCH_SAME(tokensGenerated)
    PERFBENCH_SAME(admissions)
    PERFBENCH_SAME(reschedules)
    PERFBENCH_SAME(reschedulesToGpu)
    PERFBENCH_SAME(fcOnGpuIterations)
    PERFBENCH_SAME(fcOnPimIterations)
    PERFBENCH_SAME(meanLatencySeconds)
    PERFBENCH_SAME(p95LatencySeconds)
    PERFBENCH_SAME(meanRlp)
    PERFBENCH_SAME(peakKvUtilization)
    PERFBENCH_SAME(preemptions)
    PERFBENCH_SAME(resumes)
    PERFBENCH_SAME(recomputedPrefillTokens)
    PERFBENCH_SAME(evictionStallSeconds)
    PERFBENCH_SAME(swapInducedStallSeconds)
    PERFBENCH_SAME(handoffs)
    PERFBENCH_SAME(prefillHandoffTokens)
    PERFBENCH_SAME(shedRequests)
    PERFBENCH_SAME(prefixLookups)
    PERFBENCH_SAME(prefixHits)
    PERFBENCH_SAME(prefixHitTokens)
    PERFBENCH_SAME(prefixMissTokens)
    PERFBENCH_SAME(prefixEvictedBytes)
    PERFBENCH_SAME(evictionOrder)
#undef PERFBENCH_SAME
    return true;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
