/**
 * @file
 * Differential lockstep test: the SoA serving core vs the executable
 * specification in tests/serving_model.hh.
 *
 * Every config in a seeded grid (chunked prefill x preemption policy
 * x disaggregated roles x static batch x admission policy x
 * deadlines x crashes x tensor-parallel cost) runs the same request
 * stream through both implementations step by step, asserting
 * bit-identical peeked iteration durations, clocks, queues, handoffs
 * and prefix probes at every boundary, and every result, record,
 * breakdown, per-target count and trace row at the end. The
 * spec-decode cases also read ServingSim's KV work counters (with
 * the prefix cache on, its allocation and eviction counters), a
 * general-qa case its decode work counters, and fault-free single
 * and cluster runs the plan memo, GEMV and queue counters.
 * A cell that throws fails with its name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_engine.hh"
#include "cluster/tensor_parallel.hh"
#include "core/serving_engine.hh"
#include "llm/arrival.hh"
#include "llm/model_config.hh"
#include "llm/trace.hh"
#include "serving_lockstep.hh"

namespace {

using namespace papi::core;
using papi::core::test::ServingModel;
namespace llm = papi::llm;

std::vector<llm::TimedRequest>
stream(llm::TraceCategory cat, double rate_rps, std::uint32_t count,
       std::uint64_t seed)
{
    llm::ArrivalProcess arrivals(cat, rate_rps, seed);
    return arrivals.generate(count);
}

struct DiffCase
{
    std::string name;
    ServingOptions opt;
    llm::SpeculativeConfig spec;
    StaticBatchMode mode;
    double rateRps = 100.0;
    std::uint32_t count = 48;
    std::uint64_t streamSeed = 7;
    llm::TraceCategory cat = llm::TraceCategory::GeneralQa;
    /** When nonzero, shrink the KV pool to about this many tokens
     *  per device (so decode growth actually hits capacity). */
    std::uint64_t poolTokens = 0;
    /** When non-empty, the request stream to deliver instead of an
     *  ArrivalProcess draw from cat, rateRps, count and streamSeed. */
    std::vector<llm::TimedRequest> requests;
    /** When non-empty, deliver these prefilled requests through
     *  deliverPrefilled (at their ready time, with their KV tokens)
     *  instead of any fresh stream. */
    std::vector<HandoffRecord> prefilled;
    /** Deliveries of the stream. Episode e arrives shifted to the
     *  clock at the end of episode e - 1, with ids offset by e times
     *  the stream size, so every episode repeats the first one's
     *  batch trajectory and the SoA core can answer its plans from
     *  the plan memo. */
    std::uint32_t episodes = 1;
    /** Tensor-parallel degree of the backend (NVLink); 1 keeps the
     *  trivial cost model. */
    std::uint32_t tpDegree = 1;
    /** When nonzero, crash both sides at the first step boundary
     *  with at least this many parked requests, restart them 50 ms
     *  later, and redeliver the harvest 10 ms after the restart. */
    std::size_t crashAtParked = 0;
};

/** What a lockstep run leaves behind for a case's scenario checks. */
struct DiffOutput
{
    ServingResult result;
    RunBreakdown breakdown;
    std::vector<HandoffRecord> handoffs;
    std::size_t served = 0; ///< Requests retired.
    /** Crash cases: requests harvested, and the parked ones among
     *  them in harvest order. */
    std::size_t lost = 0;
    std::vector<LostRequest> parked;
};

/**
 * Drive ServingSim and the model in lockstep over the case's
 * deliveries and compare everything both expose (void so gtest fatal
 * asserts can return out of it; @p out receives what the cases
 * assert their scenario with).
 */
void
runLockstepImpl(const DiffCase &c, DiffOutput *out)
{
    SCOPED_TRACE(c.name);
    const PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    std::vector<llm::TimedRequest> fresh = c.requests;
    if (fresh.empty() && c.prefilled.empty())
        fresh = stream(c.cat, c.rateRps, c.count, c.streamSeed);
    // The prefix probes cycle through every request delivered.
    std::vector<llm::TimedRequest> probes = fresh;
    for (const HandoffRecord &h : c.prefilled)
        probes.push_back(h.request);

    ServingOptions opt = c.opt;
    if (c.poolTokens > 0)
        opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
            model, c.poolTokens, cfg.numAttnDevices);
    papi::cluster::TensorParallelModel tp;
    tp.degree = c.tpDegree;
    const IterationCostModel cost = tp.iterationCostModel(model);

    ServingSim soa(papi, c.spec, model, opt, cost, {}, c.mode);
    ServingModel ref(papi, c.spec, model, opt, cost, {}, c.mode);
    for (const HandoffRecord &h : c.prefilled) {
        soa.deliverPrefilled(h.request, h.readySeconds, h.kvTokens);
        ref.deliverPrefilled(h.request, h.readySeconds, h.kvTokens);
    }
    std::uint64_t steps = 0;
    bool crashed = false;
    for (std::uint32_t e = 0; e < c.episodes; ++e) {
        // The step loop asserts that both clocks agree.
        const double offset = soa.now();
        const std::uint64_t id_base = std::uint64_t{e} * fresh.size();
        for (const auto &tr : fresh) {
            llm::TimedRequest t = tr;
            t.request.id += id_base;
            t.arrivalSeconds += offset;
            soa.deliver(t);
            ref.deliver(t);
        }
        while (soa.canStep() || ref.canStep()) {
            SCOPED_TRACE("step " + std::to_string(steps));
            ASSERT_NO_FATAL_FAILURE(test::stepBoth(
                soa, ref, probes[steps % probes.size()], out->handoffs));
            ASSERT_LT(++steps, 2'000'000u)
                << "lockstep diverged into a non-terminating run";
            if (c.crashAtParked > 0 && !crashed &&
                soa.preemptedCount() >= c.crashAtParked) {
                crashed = true;
                // The harvest lists the batch, then the parked requests.
                const std::size_t batch = soa.outstanding() -
                                          soa.pendingCount() -
                                          soa.preemptedCount();
                const std::size_t parked = soa.preemptedCount();
                const double when = soa.now();
                const std::vector<LostRequest> lost = soa.crash(when);
                ASSERT_NO_FATAL_FAILURE(
                    test::expectSameLost(lost, ref.crash(when)));
                out->lost = lost.size();
                out->parked.assign(lost.begin() + batch,
                                   lost.begin() + batch + parked);
                const double restart = when + 0.05;
                soa.restartAt(restart);
                ref.restartAt(restart);
                const double retry = restart + 0.01;
                for (const LostRequest &l : lost) {
                    soa.redeliver(l.request, retry);
                    ref.redeliver(l.request, retry);
                }
            }
        }
    }
    test::expectSameFinish(soa, ref, &out->result);
    out->breakdown = soa.breakdown();
    out->served = soa.records().size();
}

DiffOutput
runLockstep(const DiffCase &c)
{
    DiffOutput out;
    // A sim::fatal or sim::panic thrown inside the cell unwinds its
    // SCOPED_TRACE; fail here so the report still names the cell.
    try {
        runLockstepImpl(c, &out);
    } catch (const std::exception &e) {
        ADD_FAILURE() << "cell \"" << c.name << "\" threw: " << e.what();
    }
    return out;
}

// ------------------------------------------------------ the grid

TEST(SoaDiff, TokenLevelPlain)
{
    DiffCase c;
    c.name = "token-level, monolithic prefill";
    c.opt.maxRlp = 16;
    runLockstep(c);
}

TEST(SoaDiff, BatchLevelAdmission)
{
    DiffCase c;
    c.name = "batch-level fill rule";
    c.opt.maxRlp = 8;
    c.opt.admission = AdmissionPolicy::BatchLevel;
    c.opt.batchTimeoutSeconds = 0.05;
    runLockstep(c);
}

TEST(SoaDiff, ChunkedPrefill)
{
    DiffCase c;
    c.name = "chunked prefill";
    c.opt.maxRlp = 16;
    c.opt.prefillChunkTokens = 64;
    runLockstep(c);
}

TEST(SoaDiff, SpeculativeDecode)
{
    DiffCase c;
    c.name = "speculative decoding, token-level";
    c.opt.maxRlp = 16;
    c.spec.length = 4;
    c.spec.acceptanceRate = 0.7;
    runLockstep(c);
}

/** The recompute-preemption cell: long generations against a
 *  ~2k-token pool, so decode growth must hit capacity. */
DiffCase
pressureCase(KvPreemptPolicy policy)
{
    DiffCase c;
    c.opt.maxRlp = 24;
    c.opt.preemptOnKvPressure = true;
    c.opt.preemptPolicy = policy;
    c.cat = llm::TraceCategory::CreativeWriting;
    c.poolTokens = 2048;
    c.opt.maxRlp = 12;
    c.rateRps = 300.0;
    c.count = 24;
    c.streamSeed = 11;
    return c;
}

TEST(SoaDiff, PreemptRecompute)
{
    DiffCase c = pressureCase(KvPreemptPolicy::Recompute);
    c.name = "KV preemption, recompute policy";
    const DiffOutput r = runLockstep(c);
    EXPECT_GT(r.result.preemptions, 0u) << "case exercised no evictions";
}

TEST(SoaDiff, PreemptSwapRestore)
{
    DiffCase c = pressureCase(KvPreemptPolicy::SwapRestore);
    c.name = "KV preemption, swap-restore policy";
    c.opt.kvSwapGBps = 32.0;
    const DiffOutput r = runLockstep(c);
    EXPECT_GT(r.result.preemptions, 0u) << "case exercised no evictions";
}

TEST(SoaDiff, PreemptChunkedRecompute)
{
    DiffCase c = pressureCase(KvPreemptPolicy::Recompute);
    c.name = "chunked prefill + recompute preemption";
    c.opt.prefillChunkTokens = 128;
    const DiffOutput r = runLockstep(c);
    EXPECT_GT(r.result.preemptions, 0u) << "case exercised no evictions";
}

/** The benchmark's spec-decode mode: long creative-writing decodes
 *  with speculation 4, 64-token chunked prefill and on-demand KV at
 *  maxRlp 32. @p pool_tokens 0 keeps the platform's own pool. */
DiffCase
specDecodeCase(std::uint64_t pool_tokens, KvPreemptPolicy policy)
{
    DiffCase c;
    c.cat = llm::TraceCategory::CreativeWriting;
    c.opt.maxRlp = 32;
    c.opt.prefillChunkTokens = 64;
    c.opt.preemptOnKvPressure = true;
    c.opt.preemptPolicy = policy;
    c.spec.length = 4;
    c.spec.acceptanceRate = 0.7;
    c.poolTokens = pool_tokens;
    c.rateRps = 200.0;
    c.count = 64;
    c.streamSeed = 17;
    return c;
}

/** specDecodeCase's stream behind four shared 32-token system
 *  prompts, for the prefix-cache cell. */
std::vector<llm::TimedRequest>
keyedSpecDecodeStream(const DiffCase &c)
{
    std::vector<llm::TimedRequest> reqs =
        stream(c.cat, c.rateRps, c.count, c.streamSeed);
    for (llm::TimedRequest &tr : reqs) {
        llm::Request &r = tr.request;
        r.prefixKey = 1 + r.id % 4;
        r.prefixTokens = std::min<std::uint32_t>(32, r.inputLen);
        r.insertKey = r.prefixKey;
        r.insertTokens = r.prefixTokens;
    }
    return reqs;
}

/** ServingSim grows KV only at block crossings, so each of its grow
 *  calls allocates (the specification grows every decoder). */
void
expectGrowthAtCrossings(const DiffCase &c, const ServingResult &r)
{
    SCOPED_TRACE(c.name);
    EXPECT_GT(r.work.kvGrowCalls, 0u);
    EXPECT_LE(r.work.kvGrowCalls, r.work.kvBlocksGrown);
}

TEST(SoaDiff, SpecDecodeChunkedOnDemand)
{
    {
        DiffCase c = specDecodeCase(0, KvPreemptPolicy::Recompute);
        c.name = "spec-decode, platform pool";
        const DiffOutput r = runLockstep(c);
        EXPECT_EQ(r.result.preemptions, 0u);
        EXPECT_EQ(r.served, c.count);
        expectGrowthAtCrossings(c, r.result);
    }
    // A tight pool evicts, under both preemption policies.
    for (const KvPreemptPolicy policy :
         {KvPreemptPolicy::Recompute, KvPreemptPolicy::SwapRestore}) {
        DiffCase c = specDecodeCase(4096, policy);
        c.name = policy == KvPreemptPolicy::Recompute
                     ? "spec-decode, tight pool, recompute"
                     : "spec-decode, tight pool, swap-restore";
        const DiffOutput r = runLockstep(c);
        EXPECT_GT(r.result.preemptions, 0u) << "case exercised no evictions";
        EXPECT_EQ(r.served, c.count);
        expectGrowthAtCrossings(c, r.result);
    }
    // The prefix cache on, in the tight pool: hits, cache evictions
    // and preemptions all happen.
    {
        DiffCase c = specDecodeCase(4096, KvPreemptPolicy::Recompute);
        c.name = "spec-decode, tight pool, prefix cache";
        c.opt.prefixCacheEnabled = true;
        c.requests = keyedSpecDecodeStream(c);
        const DiffOutput r = runLockstep(c);
        EXPECT_GT(r.result.prefixHits, 0u);
        EXPECT_GT(r.result.prefixEvictedBytes, 0u);
        EXPECT_GT(r.result.preemptions, 0u) << "case exercised no evictions";
        EXPECT_EQ(r.served, c.count);
        expectGrowthAtCrossings(c, r.result);
    }
}

/** @p c's options on LLaMA-65B, with its KV pool shrunk to
 *  c.poolTokens when that is nonzero. */
ServingOptions
poolOptions(const DiffCase &c, const PlatformConfig &cfg)
{
    ServingOptions opt = c.opt;
    if (c.poolTokens > 0)
        opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
            llm::llama65b(), c.poolTokens, cfg.numAttnDevices);
    return opt;
}

/** One ServingSim (no lockstep) over @p reqs with @p c's options. */
ServingResult
runServing(Platform &platform, const DiffCase &c,
           const std::vector<llm::TimedRequest> &reqs)
{
    ServingSim sim(platform, c.spec, llm::llama65b(),
                   poolOptions(c, platform.config()));
    for (const llm::TimedRequest &tr : reqs)
        sim.deliver(tr);
    while (sim.canStep())
        sim.step();
    return sim.finish();
}

/**
 * The KV work counters on the spec-decode config. Every grow call
 * allocates, because growth is called only at block crossings; the
 * exact headroom sum runs only when the O(1) bound cannot settle a
 * check, which never happens in the platform's pool and does in a
 * tight one; and a cluster's counters are its replicas' sum.
 */
TEST(SoaDiff, SpecDecodeWorkCounters)
{
    const PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    const auto run = [&](const DiffCase &c) {
        return runServing(
            papi, c, stream(c.cat, c.rateRps, c.count, c.streamSeed));
    };

    DiffCase roomy = specDecodeCase(0, KvPreemptPolicy::Recompute);
    roomy.name = "platform pool";
    const ServingResult r = run(roomy);
    expectGrowthAtCrossings(roomy, r);
    EXPECT_EQ(r.work.kvExactHeadroomSums, 0u);
    for (const KvPreemptPolicy policy :
         {KvPreemptPolicy::Recompute, KvPreemptPolicy::SwapRestore}) {
        DiffCase tight = specDecodeCase(4096, policy);
        tight.name = policy == KvPreemptPolicy::Recompute
                         ? "tight pool, recompute"
                         : "tight pool, swap-restore";
        const ServingResult t = run(tight);
        expectGrowthAtCrossings(tight, t);
        EXPECT_GT(t.preemptions, 0u) << tight.name;
        EXPECT_GT(t.work.kvExactHeadroomSums, 0u) << tight.name;
    }

    const DiffCase c = specDecodeCase(4096, KvPreemptPolicy::Recompute);
    papi::cluster::ClusterOptions copt;
    copt.numPlatforms = 2;
    copt.serving = poolOptions(c, cfg);
    const papi::cluster::ClusterResult cr =
        papi::cluster::ClusterEngine(cfg, copt)
            .run(stream(c.cat, c.rateRps, c.count, c.streamSeed), c.spec,
                 model);
    WorkCounters sum;
    std::uint64_t iterations = 0;
    for (const ServingResult &g : cr.perGroup) {
        sum += g.work;
        iterations += g.iterations;
    }
    EXPECT_GT(cr.work.kvExactHeadroomSums, 0u);
    EXPECT_EQ(cr.work.kvGrowCalls, sum.kvGrowCalls);
    EXPECT_EQ(cr.work.kvBlocksGrown, sum.kvBlocksGrown);
    EXPECT_EQ(cr.work.kvExactHeadroomSums, sum.kvExactHeadroomSums);
    EXPECT_EQ(cr.work.steadyAdvances, sum.steadyAdvances);
    EXPECT_EQ(cr.work.decodePasses, sum.decodePasses);
    EXPECT_EQ(cr.work.steadyRebuilds, sum.steadyRebuilds);
    EXPECT_EQ(cr.work.steadyAdvances + cr.work.decodePasses, iterations);
}

/**
 * The KV allocation and prefix-eviction counters on the spec-decode
 * config's tight pool behind four shared system prompts (the
 * "prefix cache" lockstep cell). Cached prefixes are evicted, the
 * pool hands out at least the blocks grown (admissions and prefix
 * inserts allocate too), every evicted entry held at least one
 * block, and a cluster's counters are its replicas' sum.
 */
TEST(SoaDiff, PrefixWorkCounters)
{
    const PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    // ServingSim's KV blocks are 16 tokens.
    const std::uint64_t block_bytes = 16 * model.kvBytesPerToken();
    DiffCase c = specDecodeCase(4096, KvPreemptPolicy::Recompute);
    c.opt.prefixCacheEnabled = true;
    const std::vector<llm::TimedRequest> reqs = keyedSpecDecodeStream(c);

    const ServingResult r = runServing(papi, c, reqs);
    EXPECT_GT(r.work.kvPrefixEvictions, 0u);
    EXPECT_GT(r.work.kvBlocksAllocated, r.work.kvBlocksGrown);
    EXPECT_GE(r.prefixEvictedBytes,
              r.work.kvPrefixEvictions * block_bytes);

    papi::cluster::ClusterOptions copt;
    copt.numPlatforms = 2;
    copt.serving = poolOptions(c, cfg);
    const papi::cluster::ClusterResult cr =
        papi::cluster::ClusterEngine(cfg, copt).run(reqs, c.spec, model);
    WorkCounters sum;
    for (const ServingResult &g : cr.perGroup)
        sum += g.work;
    EXPECT_GT(cr.work.kvPrefixEvictions, 0u);
    EXPECT_EQ(cr.work.kvBlocksAllocated, sum.kvBlocksAllocated);
    EXPECT_EQ(cr.work.kvPrefixEvictions, sum.kvPrefixEvictions);
    EXPECT_GE(cr.work.kvBlocksAllocated, cr.work.kvBlocksGrown);
}

/**
 * The decode work counters on a general-qa stream with monolithic
 * prefill and reserved KV (30 req/s, 512 requests, seed 5, maxRlp
 * 16). Every iteration is either the steady step or the
 * per-request decode pass. The decode pass leaves the steady
 * aggregates valid and admissions extend them, so they are rebuilt
 * only after another batch change (a preemption, handoff or crash):
 * here, with none of those, only once, for the first plan. Dropping
 * them after each decode pass rebuilds them 893 times, and after
 * each admission 472 times.
 */
TEST(SoaDiff, DecodeWorkCounters)
{
    Platform papi(makePapiConfig());
    ServingOptions opt;
    opt.maxRlp = 16;
    ServingSim sim(papi, llm::SpeculativeConfig{}, llm::llama65b(), opt);
    for (const llm::TimedRequest &tr :
         stream(llm::TraceCategory::GeneralQa, 30.0, 512, 5))
        sim.deliver(tr);
    while (sim.canStep())
        sim.step();
    const ServingResult r = sim.finish();
    EXPECT_EQ(r.admissions, 512u);
    EXPECT_EQ(r.work.steadyAdvances + r.work.decodePasses, r.iterations);
    EXPECT_GT(r.work.steadyAdvances, 0u);
    EXPECT_GT(r.work.decodePasses, 0u);
    EXPECT_EQ(r.work.steadyRebuilds, 1u);
}

/** @p w with its queue counters (WorkCounters' event, bucket and
 *  window counts) cleared: the replica counters only. */
WorkCounters
replicaCounters(WorkCounters w)
{
    w.eventsScheduled = 0;
    w.eventsExecuted = 0;
    w.eventsOverflowed = 0;
    w.bucketAdvances = 0;
    w.windows = 0;
    return w;
}

/** Every fault-free run probes the plan memo once per dispatched
 *  decode iteration, and drains its queues. */
void
expectMemoAndDrain(const ServingResult &r, const WorkCounters &queues)
{
    EXPECT_EQ(r.work.planMemoHits + r.work.planMemoMisses,
              r.fcOnGpuIterations + r.fcOnPimIterations);
    EXPECT_GT(r.work.planMemoMisses, 0u);
    EXPECT_EQ(queues.eventsExecuted, queues.eventsScheduled);
    EXPECT_GT(queues.eventsExecuted, 0u);
    EXPECT_GT(queues.bucketAdvances, 0u);
    EXPECT_LE(queues.windows, queues.eventsExecuted);
}

/**
 * The plan memo, GEMV, platform memo and queue counters on
 * fault-free configs: a single platform (ServingEngine::run) and
 * clusters shaped like the benchmark's qa-stream (4 round-robin
 * replicas), spec-decode (2 replicas, speculation, chunked prefill,
 * on-demand KV) and agentic-prefix (prefix cache, cache-hit-aware
 * routing). Memo probes equal the dispatched iterations; the queues
 * drain; the GEMV, FC table and prefill memo counters are the
 * platform's work during the run; a
 * cluster's replica counters are its replicas' sum while their
 * queue counters stay 0; and worker threads move no counter.
 */
TEST(SoaDiff, MemoGemvAndQueueWorkCounters)
{
    const PlatformConfig cfg = makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    {
        SCOPED_TRACE("single platform, general-qa");
        Platform papi(cfg);
        const papi::pim::GemvWork before = papi.gemvWork();
        const PlatformMemoWork memo_before = papi.memoWork();
        ServingOptions opt;
        opt.maxRlp = 16;
        const ServingResult r = ServingEngine(papi).run(
            stream(llm::TraceCategory::GeneralQa, 30.0, 256, 5),
            llm::SpeculativeConfig{}, model, opt);
        expectMemoAndDrain(r, r.work);
        // runPredelivered schedules every event on its one shard.
        EXPECT_EQ(r.work.windows, 0u);
        const papi::pim::GemvWork after = papi.gemvWork();
        EXPECT_EQ(r.work.gemvReplays, after.replays - before.replays);
        EXPECT_EQ(r.work.gemvChannelCalls,
                  after.channelCalls - before.channelCalls);
        EXPECT_EQ(r.work.gemvBurstRuns,
                  after.burstRuns - before.burstRuns);
        EXPECT_EQ(r.work.gemvMemoHits, after.memoHits - before.memoHits);
        EXPECT_GT(r.work.gemvReplays, 0u);
        EXPECT_GT(r.work.gemvMemoHits, 0u);
        // The platform's FC table and prefill memo during the run.
        const PlatformMemoWork memo = papi.memoWork();
        EXPECT_EQ(r.work.fcTableFills, memo.fcFills - memo_before.fcFills);
        EXPECT_EQ(r.work.prefillMemoHits,
                  memo.prefillHits - memo_before.prefillHits);
        EXPECT_EQ(r.work.prefillMemoMisses,
                  memo.prefillMisses - memo_before.prefillMisses);
        EXPECT_EQ(r.work.prefillMemoClears, 0u);
        EXPECT_GT(r.work.fcTableFills, 0u);
        EXPECT_GT(r.work.prefillMemoHits, 0u);
        EXPECT_GT(r.work.prefillMemoMisses, 0u);
    }

    struct ClusterCase
    {
        const char *name;
        papi::cluster::ClusterOptions opt;
        llm::SpeculativeConfig spec;
        std::vector<llm::TimedRequest> requests;
    };
    std::vector<ClusterCase> cases;
    {
        ClusterCase c{"qa-stream shape", {}, {}, {}};
        c.opt.numPlatforms = 4;
        c.opt.serving.maxRlp = 16;
        c.requests = stream(llm::TraceCategory::GeneralQa, 30.0, 256, 11);
        cases.push_back(std::move(c));
    }
    {
        const DiffCase d = specDecodeCase(4096, KvPreemptPolicy::Recompute);
        ClusterCase c{"spec-decode shape", {}, d.spec, {}};
        c.opt.numPlatforms = 2;
        c.opt.serving = poolOptions(d, cfg);
        c.requests = stream(d.cat, d.rateRps, d.count, d.streamSeed);
        cases.push_back(std::move(c));
    }
    {
        DiffCase d = specDecodeCase(4096, KvPreemptPolicy::Recompute);
        d.opt.prefixCacheEnabled = true;
        ClusterCase c{"agentic-prefix shape", {}, d.spec, {}};
        c.opt.numPlatforms = 4;
        c.opt.policy = papi::cluster::RouterPolicy::CacheHitAware;
        c.opt.serving = poolOptions(d, cfg);
        c.requests = keyedSpecDecodeStream(d);
        cases.push_back(std::move(c));
    }
    for (const ClusterCase &c : cases) {
        SCOPED_TRACE(c.name);
        papi::cluster::ClusterResult runs[2];
        for (unsigned workers : {1u, 2u}) {
            papi::cluster::ClusterOptions opt = c.opt;
            opt.workerThreads = workers;
            runs[workers - 1] = papi::cluster::ClusterEngine(cfg, opt).run(
                c.requests, c.spec, model);
        }
        const papi::cluster::ClusterResult &cr = runs[0];
        EXPECT_EQ(runs[1].work, cr.work) << "worker threads moved a counter";
        WorkCounters sum;
        for (const ServingResult &g : cr.perGroup) {
            EXPECT_EQ(replicaCounters(g.work), g.work);
            expectMemoAndDrain(g, cr.work);
            sum += g.work;
        }
        EXPECT_EQ(replicaCounters(cr.work), sum);
        EXPECT_GT(cr.work.eventsOverflowed, 0u);
        // Round-robin routing is state independent, so every arrival
        // is pre-routed onto the shards and no global event runs;
        // cache-hit-aware routing delivers each arrival burst in a
        // window of its own.
        if (c.opt.policy == papi::cluster::RouterPolicy::RoundRobin) {
            EXPECT_EQ(cr.work.windows, 0u);
        } else {
            EXPECT_GT(cr.work.windows, 0u);
        }
    }
}

/** The disaggregated prefill-pool cell; its handoffs feed the
 *  decode-pool cell. */
DiffCase
prefillRoleCase()
{
    DiffCase c;
    c.name = "disaggregated prefill pool, chunked";
    c.opt.maxRlp = 16;
    c.opt.role = ServingRole::Prefill;
    c.opt.prefillChunkTokens = 256;
    return c;
}

TEST(SoaDiff, PrefillRole)
{
    const DiffOutput r = runLockstep(prefillRoleCase());
    EXPECT_GT(r.result.handoffs, 0u) << "case exercised no handoffs";
}

TEST(SoaDiff, DecodeRole)
{
    const DiffOutput prefill = runLockstep(prefillRoleCase());
    ASSERT_GT(prefill.handoffs.size(), 0u);
    for (const bool on_demand : {false, true}) {
        DiffCase c;
        c.name = on_demand ? "decode pool, on-demand KV"
                           : "decode pool, reserved KV";
        c.opt.maxRlp = 16;
        c.opt.role = ServingRole::Decode;
        c.opt.preemptOnKvPressure = on_demand;
        c.poolTokens = on_demand ? 8192 : 0;
        c.prefilled = prefill.handoffs;
        const DiffOutput r = runLockstep(c);
        // Every migrated request was admitted and decoded here, with
        // no prefill charged.
        EXPECT_EQ(r.result.admissions, prefill.handoffs.size());
        EXPECT_GT(r.result.tokensGenerated, 0u);
        EXPECT_EQ(r.breakdown.prefillSeconds, 0.0);
    }
    // Migrated KV may exceed the context (deliverPrefilled allows
    // it). With monolithic prefill, on-demand KV grows only once the
    // context passes what a request holds, so such a request's KV
    // does not move with the decoders and the steady step must not
    // shift it.
    DiffCase c;
    c.name = "decode pool, on-demand KV, migrated KV above context";
    c.opt.maxRlp = 16;
    c.opt.role = ServingRole::Decode;
    c.opt.preemptOnKvPressure = true;
    c.poolTokens = 8192;
    c.prefilled = prefill.handoffs;
    for (HandoffRecord &h : c.prefilled)
        h.kvTokens += 40;
    const DiffOutput r = runLockstep(c);
    EXPECT_EQ(r.result.admissions, prefill.handoffs.size());
    EXPECT_GT(r.result.tokensGenerated, 0u);
}

TEST(SoaDiff, DeadlineShedding)
{
    DiffCase c;
    c.name = "SLO deadline shedding";
    c.opt.maxRlp = 4;
    c.opt.deadlineSeconds = 0.8;
    c.rateRps = 300.0;
    c.count = 64;
    const DiffOutput r = runLockstep(c);
    EXPECT_GT(r.result.shedRequests, 0u) << "case exercised no shedding";
}

TEST(SoaDiff, StaticBatch)
{
    DiffCase c;
    c.name = "static batch (decode engine semantics)";
    c.opt.maxRlp = 16;
    c.opt.admission = AdmissionPolicy::BatchLevel;
    c.mode.enabled = true;
    c.mode.includePrefill = true;
    c.mode.recordTrace = true;
    c.rateRps = 1e9; // everything effectively arrives together
    c.count = 16;
    runLockstep(c);
}

TEST(SoaDiff, CrashWithParkedRequests)
{
    // Crash once three preempted requests are parked, then restart
    // and retry the harvest. The harvest lists parked requests in
    // eviction order, which here differs from their resume order
    // (oldest arrival first).
    for (const KvPreemptPolicy policy :
         {KvPreemptPolicy::Recompute, KvPreemptPolicy::SwapRestore}) {
        DiffCase c = pressureCase(policy);
        c.name = policy == KvPreemptPolicy::Recompute
                     ? "crash with parked requests, recompute"
                     : "crash with parked requests, swap-restore";
        c.crashAtParked = 3;
        const DiffOutput r = runLockstep(c);
        ASSERT_GE(r.parked.size(), 3u) << "case never crashed";
        EXPECT_FALSE(std::is_sorted(
            r.parked.begin(), r.parked.end(),
            [](const LostRequest &x, const LostRequest &y) {
                return std::pair(x.request.arrivalSeconds,
                                 x.request.request.id) <
                       std::pair(y.request.arrivalSeconds,
                                 y.request.request.id);
            }))
            << "the parked requests were evicted in resume order";
        EXPECT_GT(r.lost, r.parked.size());
        // Every request retires once, the retried ones included.
        EXPECT_EQ(r.served, c.count);
    }
}

TEST(SoaDiff, TensorParallelMonolithic)
{
    DiffCase c;
    c.name = "tensor-parallel degree 4 over NVLink, monolithic";
    c.opt.maxRlp = 16;
    c.tpDegree = 4;
    const DiffOutput r = runLockstep(c);
    DiffCase single = c;
    single.tpDegree = 1;
    const DiffOutput s = runLockstep(single);
    // The group divides kernel time and pays all-reduces, which the
    // breakdown books as communication.
    EXPECT_NE(r.result.makespanSeconds, s.result.makespanSeconds);
    EXPECT_GT(r.breakdown.commSeconds, s.breakdown.commSeconds);
}

TEST(SoaDiff, MaxBatchUniformDecodeEpisodes)
{
    // 512 uniform requests (64 prompt + 688 output tokens, the
    // largest single admission wave whose worst-case KV fits the
    // 60-device Attn-PIM fleet) all arriving at once, maxRlp 512,
    // one token per iteration, delivered twice. The second episode
    // repeats the first one's batch shapes, so the SoA core answers
    // its plans from the plan memo and runs the O(1) steady-state
    // advance through a full-width batch; every other case caps the
    // batch at 16 requests or fewer.
    DiffCase c;
    c.name = "max-batch uniform decode, two episodes";
    c.opt.maxRlp = 512;
    c.opt.alpha = 24.0;
    c.spec.length = 1;
    c.episodes = 2;
    llm::TraceGenerator gen(llm::TraceCategory::Uniform, 1);
    std::uint64_t id = 1;
    for (const llm::Request &r : gen.generateUniform(512, 64, 688)) {
        llm::TimedRequest tr;
        tr.request = r;
        tr.request.id = id++;
        tr.arrivalSeconds = 0.0;
        c.requests.push_back(tr);
    }
    const DiffOutput r = runLockstep(c);
    EXPECT_EQ(r.result.tokensGenerated, 2u * 512u * 688u);
    EXPECT_EQ(r.result.admissions, 2u * 512u);
}

TEST(SoaDiff, SeededGridFuzz)
{
    // A small randomized-by-seed grid on top of the directed cases:
    // every combination re-runs with three different arrival seeds
    // and mixed workload categories.
    const std::uint64_t seeds[] = {11, 23, 61};
    const llm::TraceCategory cats[] = {
        llm::TraceCategory::GeneralQa,
        llm::TraceCategory::PrefillHeavy,
    };
    const std::uint32_t chunks[] = {0, 96};
    for (std::uint64_t seed : seeds) {
        for (auto cat : cats) {
            for (std::uint32_t chunk : chunks) {
                DiffCase c;
                c.name = "fuzz seed=" + std::to_string(seed) +
                         " cat=" +
                         std::to_string(static_cast<int>(cat)) +
                         " chunk=" + std::to_string(chunk);
                c.opt.maxRlp = 12;
                c.opt.prefillChunkTokens = chunk;
                c.streamSeed = seed;
                c.cat = cat;
                c.count = 40;
                c.rateRps = 150.0;
                runLockstep(c);

                // Preempting variant of the same cell.
                DiffCase p = c;
                p.name += " preempt";
                p.opt.preemptOnKvPressure = true;
                p.opt.preemptPolicy =
                    (seed % 2) ? KvPreemptPolicy::Recompute
                               : KvPreemptPolicy::SwapRestore;
                // PrefillHeavy prompts alone can exceed a 2k
                // pool; 8k keeps single requests admissible while
                // still forcing evictions at RLP 12.
                p.poolTokens = 8192;
                p.opt.maxRlp = 12;
                runLockstep(p);
            }
        }
    }
}

} // namespace
