/**
 * @file
 * Work budgets: deterministic work ratios of small fixed-seed
 * versions of the four benchmark workloads (perfbench's qa-stream,
 * spec-decode, agentic-prefix and disagg-faults shapes), each checked
 * against an upper budget recorded when the budget was set.
 *
 * The ratios come from core::WorkCounters, so host load cannot move
 * them: an algorithmic regression in a layer fails here on any
 * machine. Five ratios per workload:
 *  - decode passes per iteration (the rest are steady steps);
 *  - queued events per iteration (driver and queue work);
 *  - plan memo misses per iteration (attention and FC costing);
 *  - GEMV channel calls per replay (the command-stream replay);
 *  - KV blocks allocated per generated token (the KV layer).
 * A change that lowers a ratio tightens its budget here; loosening a
 * budget needs a stated reason in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hh"
#include "core/threshold_calibrator.hh"
#include "llm/arrival.hh"
#include "llm/kv_cache.hh"
#include "llm/model_config.hh"
#include "sim/fault_plan.hh"

namespace {

using namespace papi;

/** One benchmark workload, scaled down, and its budgets. */
struct BudgetCase
{
    const char *name;
    llm::TraceCategory category;
    double rateRps;
    std::uint32_t requests;
    std::uint32_t specLength;
    std::uint64_t kvPoolTokens;
    cluster::ClusterOptions options;
    /** Upper budgets, in the order of Ratios' fields: the measured
     *  ratios rounded up in their second or third digit. The GEMV
     *  replays here read 1,514 channel calls each, the count
     *  GemvReplayWork pins for a cold 16-row replay. Before the
     *  steady step covered prompt-chunk iterations and on-demand KV,
     *  spec-decode took the decode pass on every iteration (1.0
     *  passes per iteration). */
    double passesPerIteration;
    double eventsPerIteration;
    double memoMissesPerIteration;
    double channelCallsPerReplay;
    double blocksPerToken;
};

/** A run's work ratios. */
struct Ratios
{
    double passesPerIteration = 0.0;
    double eventsPerIteration = 0.0;
    double memoMissesPerIteration = 0.0;
    double channelCallsPerReplay = 0.0;
    double blocksPerToken = 0.0;
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
}

/** Run @p c as perfbench deploys it: PAPI replicas, LLaMA-65B, the
 *  calibrated threshold and the optional shrunk KV pool. */
Ratios
run(const BudgetCase &c)
{
    const core::PlatformConfig config = core::makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    cluster::ClusterOptions opt = c.options;
    const core::Platform reference(config);
    opt.serving.alpha =
        core::ThresholdCalibrator::calibrate(reference, model).alpha;
    if (c.kvPoolTokens > 0)
        opt.serving.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
            model, c.kvPoolTokens, config.numAttnDevices);
    llm::SpeculativeConfig spec;
    spec.length = c.specLength;
    llm::ArrivalProcess arrivals(c.category, c.rateRps, 17);
    const cluster::ClusterResult r = cluster::ClusterEngine(config, opt).run(
        arrivals.generate(c.requests), spec, model);
    EXPECT_EQ(r.requestsOffered, c.requests);
    std::uint64_t iterations = 0;
    for (const core::ServingResult &g : r.perGroup)
        iterations += g.iterations;
    const core::WorkCounters &w = r.work;
    EXPECT_EQ(w.steadyAdvances + w.decodePasses, iterations);
    EXPECT_GT(iterations, 0u);
    EXPECT_GT(w.gemvReplays, 0u);
    Ratios out;
    out.passesPerIteration = ratio(w.decodePasses, iterations);
    out.eventsPerIteration = ratio(w.eventsScheduled, iterations);
    out.memoMissesPerIteration = ratio(w.planMemoMisses, iterations);
    out.channelCallsPerReplay = ratio(w.gemvChannelCalls, w.gemvReplays);
    out.blocksPerToken = ratio(w.kvBlocksAllocated, r.tokensGenerated);
    return out;
}

std::vector<BudgetCase>
cases()
{
    std::vector<BudgetCase> out;
    {
        BudgetCase c{"qa-stream", llm::TraceCategory::GeneralQa,
                     30.0, 2000, 1, 0, {},
                     0.044, 1.05, 0.45, 1514.0, 0.130};
        c.options.numPlatforms = 4;
        c.options.policy = cluster::RouterPolicy::RoundRobin;
        c.options.recordCapacity = 1024;
        c.options.serving.maxRlp = 16;
        out.push_back(c);
    }
    {
        BudgetCase c{"spec-decode", llm::TraceCategory::CreativeWriting,
                     22.0, 1000, 4, 0, {},
                     0.20, 1.22, 0.99, 1514.0, 0.071};
        c.options.numPlatforms = 2;
        c.options.policy = cluster::RouterPolicy::LeastOutstanding;
        c.options.serving.maxRlp = 128;
        c.options.serving.prefillChunkTokens = 64;
        c.options.serving.preemptOnKvPressure = true;
        out.push_back(c);
    }
    {
        BudgetCase c{"agentic-prefix", llm::TraceCategory::AgenticLoop,
                     2.0, 400, 1, 24 * 1024, {},
                     0.022, 1.025, 0.245, 1514.0, 1.64};
        c.options.numPlatforms = 4;
        c.options.policy = cluster::RouterPolicy::CacheHitAware;
        c.options.serving.maxRlp = 16;
        c.options.serving.prefillChunkTokens = 64;
        c.options.serving.prefixCacheEnabled = true;
        out.push_back(c);
    }
    {
        BudgetCase c{"disagg-faults", llm::TraceCategory::PrefillHeavy,
                     24.0, 1500, 1, 0, {},
                     0.035, 1.08, 0.39, 1514.0, 1.78};
        cluster::ClusterOptions &o = c.options;
        o.disagg.enabled = true;
        o.disagg.prefillReplicas = 2;
        o.disagg.decodeReplicas = 2;
        o.disagg.prefillPolicy = cluster::RouterPolicy::LeastOutstanding;
        o.recovery.retryBackoffSeconds = 0.05;
        o.recovery.transferTimeoutSeconds = 0.25;
        sim::FaultPlanParams p;
        p.seed = 23;
        p.numReplicas = 4;
        p.crashes = 3;
        p.horizonSeconds = 1500 / 24.0;
        p.coldStartSeconds = 1.5;
        o.faults = sim::FaultPlan::generate(p);
        o.faults.linkFaults.push_back({12.0, 13.0, 0.0});
        o.faults.linkFaults.push_back({40.0, 41.0, 0.05});
        o.faults.validate(4);
        o.serving.maxRlp = 16;
        o.serving.prefillChunkTokens = 64;
        o.serving.deadlineSeconds = 1.0;
        out.push_back(c);
    }
    return out;
}

TEST(WorkBudget, BenchmarkShapesStayWithinBudgets)
{
    for (const BudgetCase &c : cases()) {
        SCOPED_TRACE(c.name);
        const Ratios r = run(c);
        std::printf("%-15s passes/iter %.4f events/iter %.4f "
                    "memo misses/iter %.4f channel calls/replay %.1f "
                    "KV blocks/token %.4f\n",
                    c.name, r.passesPerIteration, r.eventsPerIteration,
                    r.memoMissesPerIteration, r.channelCallsPerReplay,
                    r.blocksPerToken);
        EXPECT_LE(r.passesPerIteration, c.passesPerIteration);
        EXPECT_LE(r.eventsPerIteration, c.eventsPerIteration);
        EXPECT_LE(r.memoMissesPerIteration, c.memoMissesPerIteration);
        EXPECT_LE(r.channelCallsPerReplay, c.channelCallsPerReplay);
        EXPECT_LE(r.blocksPerToken, c.blocksPerToken);
    }
}

} // namespace
