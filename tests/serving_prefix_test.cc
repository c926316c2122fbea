/**
 * @file
 * Differential and ledger tests for shared prefix caching in the
 * serving engine:
 *
 *  - With the cache DISABLED, a keyed multi-turn trace runs the
 *    engine in lockstep with the executable specification
 *    (tests/serving_model.hh), bit for bit, and the prefix counters
 *    stay zero - the shared-prefix request fields are inert.
 *  - With the cache ENABLED, keyed traces run in the same lockstep
 *    under reserved and on-demand KV, with monolithic and chunked
 *    prefill, with hits and cache evictions in every cell.
 *  - With the cache ENABLED but no keyed requests in the stream, the
 *    run is byte-identical to the disabled run.
 *  - The token ledger: per request and per run,
 *    prefixHitTokens + prefixMissTokens == admitted prompt tokens.
 *  - Disaggregated prefill handoffs shrink by exactly the hit
 *    blocks (same per-request kvTokens, fewer kvBlocks/kvBytes).
 *  - A Decode-role replica, whose cache stays empty, counts no
 *    lookup for a request it recomputes; its prompt is all misses.
 *  - Under KV pressure, cached blocks are evicted (accounted in
 *    prefixEvictedBytes) before requests are preempted.
 *  - Two chunked-prefill KV accounting rules (when peak utilization
 *    is sampled, and the order of per-request growth under
 *    preemption) are pinned bitwise.
 */

#include <gtest/gtest.h>

#include <exception>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "core/serving_engine.hh"
#include "llm/arrival.hh"
#include "llm/kv_cache.hh"
#include "llm/model_config.hh"
#include "llm/trace.hh"
#include "serving_lockstep.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;

std::vector<llm::TimedRequest>
stream(llm::TraceCategory cat, double rate_rps, std::uint32_t count,
       std::uint64_t seed)
{
    llm::ArrivalProcess arrivals(cat, rate_rps, seed);
    return arrivals.generate(count);
}

/** Exact (bitwise for doubles) equality of two serving results. */
void
expectResultsEqual(const ServingResult &a, const ServingResult &b)
{
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    EXPECT_EQ(a.admissions, b.admissions);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.p95LatencySeconds, b.p95LatencySeconds);
    EXPECT_EQ(a.meanRlp, b.meanRlp);
    EXPECT_EQ(a.peakKvUtilization, b.peakKvUtilization);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.handoffs, b.handoffs);
    EXPECT_EQ(a.evictionOrder, b.evictionOrder);
}

struct RunOutput
{
    ServingResult result;
    std::vector<RequestRecord> records;
    std::vector<HandoffRecord> handoffs;
    RunBreakdown breakdown;
};

/** Deliver @p reqs into a fresh ServingSim and run it dry. */
RunOutput
runSim(const ServingOptions &opt,
       const std::vector<llm::TimedRequest> &reqs)
{
    const PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;

    ServingSim sim(papi, spec, model, opt);
    for (const auto &tr : reqs)
        sim.deliver(tr);
    RunOutput out;
    while (sim.canStep()) {
        sim.step();
        if (sim.hasHandoffs()) {
            auto hs = sim.takeHandoffs();
            out.handoffs.insert(out.handoffs.end(), hs.begin(),
                                hs.end());
        }
    }
    out.result = sim.finish();
    out.records = sim.records();
    out.breakdown = sim.breakdown();
    return out;
}

/**
 * Drive ServingSim and the model in lockstep over @p reqs, compare
 * everything both expose, and return ServingSim's side (void so gtest
 * fatal asserts can return out of it).
 */
void
lockstepImpl(const ServingOptions &opt,
             const std::vector<llm::TimedRequest> &reqs, RunOutput *out)
{
    const PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;

    ServingSim soa(papi, spec, model, opt);
    test::ServingModel ref(papi, spec, model, opt);
    for (const auto &tr : reqs) {
        soa.deliver(tr);
        ref.deliver(tr);
    }
    std::uint64_t steps = 0;
    while (soa.canStep() || ref.canStep()) {
        SCOPED_TRACE("step " + std::to_string(steps));
        ASSERT_NO_FATAL_FAILURE(test::stepBoth(
            soa, ref, reqs[steps % reqs.size()], out->handoffs));
        ASSERT_LT(++steps, 2'000'000u);
    }
    test::expectSameFinish(soa, ref, &out->result);
    out->records = soa.records();
    out->breakdown = soa.breakdown();
}

RunOutput
lockstep(const ServingOptions &opt,
         const std::vector<llm::TimedRequest> &reqs)
{
    RunOutput out;
    // A sim::fatal or sim::panic thrown inside the run would fail the
    // test body outside the caller's SCOPED_TRACE; failing here keeps
    // the trace, so the report names the cell.
    try {
        lockstepImpl(opt, reqs, &out);
    } catch (const std::exception &e) {
        ADD_FAILURE() << "lockstep threw: " << e.what();
    }
    return out;
}

/**
 * Cache disabled: a keyed agentic trace runs in bitwise lockstep with
 * the specification, and no prefix counter moves - the prefix fields
 * on Request are dead weight until the flag flips.
 */
TEST(ServingPrefix, CacheOffLockstepWithReferenceOnKeyedTrace)
{
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 100.0, 48, 13);
    for (std::uint32_t chunk : {0u, 64u}) {
        SCOPED_TRACE("chunk=" + std::to_string(chunk));
        ServingOptions opt;
        opt.maxRlp = 16;
        opt.prefillChunkTokens = chunk;
        const ServingResult r = lockstep(opt, reqs).result;
        EXPECT_EQ(r.prefixLookups, 0u);
        EXPECT_EQ(r.prefixHitTokens, 0u);
        EXPECT_EQ(r.prefixMissTokens, 0u);
        EXPECT_EQ(r.prefixEvictedBytes, 0u);
    }
}

/**
 * Cache enabled on a small pool: keyed traces in the same lockstep
 * under reserved and on-demand KV, monolithic and chunked prefill.
 * Every cell must hit the cache and evict from it, so the LRU order,
 * the hit-span arithmetic and evict-before-preempt are all compared
 * bit for bit.
 */
TEST(ServingPrefix, CacheOnLockstepWithModel)
{
    const PlatformConfig cfg = makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    struct Trace
    {
        llm::TraceCategory cat;
        double rateRps;
        std::uint32_t count;
        std::uint64_t seed;
        std::uint64_t poolTokens;
        std::uint32_t maxRlp;
        KvPreemptPolicy policy;
    };
    // The last row is ChunkedKvAccountingPins (b)'s input.
    const Trace traces[] = {
        {llm::TraceCategory::SharedQa, 100.0, 48, 13, 2048, 16,
         KvPreemptPolicy::Recompute},
        {llm::TraceCategory::AgenticLoop, 20.0, 48, 13, 4096, 16,
         KvPreemptPolicy::Recompute},
        // Pins the monolithic on-demand order (every retiree
        // releases before a survivor grows): growing each survivor
        // before later requests retire fails at "on-demand chunk=0".
        {llm::TraceCategory::SharedQa, 100.0, 64, 5, 2048, 24,
         KvPreemptPolicy::Recompute},
        {llm::TraceCategory::SharedQa, 300.0, 60, 2, 2048, 12,
         KvPreemptPolicy::SwapRestore},
    };
    std::uint64_t preemptions = 0;
    for (std::size_t row = 0; row < std::size(traces); ++row) {
        const Trace &t = traces[row];
        const auto reqs = stream(t.cat, t.rateRps, t.count, t.seed);
        for (const bool on_demand : {false, true}) {
            for (const std::uint32_t chunk : {0u, 64u}) {
                std::ostringstream label;
                label << "row " << row << " ("
                      << llm::traceCategoryName(t.cat) << " "
                      << t.rateRps << " req/s seed " << t.seed
                      << " pool " << t.poolTokens << " maxRlp "
                      << t.maxRlp << " "
                      << (t.policy == KvPreemptPolicy::Recompute
                              ? "recompute"
                              : "swap-restore")
                      << ")"
                      << (on_demand ? " on-demand" : " reserved")
                      << " chunk=" << chunk;
                SCOPED_TRACE(label.str());
                ServingOptions opt;
                opt.maxRlp = t.maxRlp;
                opt.prefillChunkTokens = chunk;
                opt.prefixCacheEnabled = true;
                opt.preemptOnKvPressure = on_demand;
                opt.preemptPolicy = t.policy;
                opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
                    model, t.poolTokens, cfg.numAttnDevices);
                const ServingResult r = lockstep(opt, reqs).result;
                EXPECT_GT(r.prefixHits, 0u);
                EXPECT_GT(r.prefixEvictedBytes, 0u);
                preemptions += r.preemptions;
            }
        }
    }
    EXPECT_GT(preemptions, 0u) << "no on-demand cell preempted";
}

/**
 * Cache enabled over a stream with no prefix keys: byte-identical
 * to the disabled engine (the flag alone must not perturb timing).
 */
TEST(ServingPrefix, CacheOnWithoutKeysIsByteIdentical)
{
    const auto reqs =
        stream(llm::TraceCategory::GeneralQa, 100.0, 40, 21);
    ServingOptions off;
    off.maxRlp = 16;
    off.prefillChunkTokens = 96;
    ServingOptions on = off;
    on.prefixCacheEnabled = true;

    const RunOutput a = runSim(off, reqs);
    const RunOutput b = runSim(on, reqs);
    expectResultsEqual(a.result, b.result);
    EXPECT_EQ(a.breakdown.prefillSeconds, b.breakdown.prefillSeconds);
    EXPECT_EQ(b.result.prefixLookups, 0u);
    EXPECT_EQ(b.result.prefixHits, 0u);
}

/**
 * The token ledger: every admitted prompt token is accounted as
 * either hit (prefill cost skipped) or miss (prefilled the long
 * way), per record and per run, in both prefill paths.
 */
TEST(ServingPrefix, HitPlusMissEqualsPromptTokens)
{
    // Slow arrivals: a session's next turn must land after the
    // previous one retired, or there is nothing in cache to hit.
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 2.0, 56, 17);
    std::map<std::uint64_t, std::uint32_t> input_len;
    for (const auto &tr : reqs)
        input_len[tr.request.id] = tr.request.inputLen;

    for (std::uint32_t chunk : {0u, 64u}) {
        SCOPED_TRACE("chunk=" + std::to_string(chunk));
        ServingOptions opt;
        opt.maxRlp = 16;
        opt.prefillChunkTokens = chunk;
        opt.prefixCacheEnabled = true;

        const RunOutput out = runSim(opt, reqs);
        ASSERT_EQ(out.records.size(), reqs.size());
        std::uint64_t hit = 0, miss = 0, prompt = 0;
        for (const auto &rec : out.records) {
            EXPECT_EQ(rec.prefixHitTokens + rec.prefixMissTokens,
                      input_len.at(rec.id))
                << "request " << rec.id;
            hit += rec.prefixHitTokens;
            miss += rec.prefixMissTokens;
            prompt += input_len.at(rec.id);
        }
        EXPECT_EQ(out.result.prefixHitTokens, hit);
        EXPECT_EQ(out.result.prefixMissTokens, miss);
        EXPECT_EQ(hit + miss, prompt);
        // The agentic trace reuses each turn's context: the cache
        // must actually fire, and hits must cut prefill time.
        EXPECT_GT(out.result.prefixHits, 0u);
        EXPECT_GT(out.result.prefixHitTokens, 0u);
        EXPECT_LT(out.result.prefixHits, out.result.prefixLookups + 1);

        ServingOptions off = opt;
        off.prefixCacheEnabled = false;
        const RunOutput base = runSim(off, reqs);
        EXPECT_LT(out.breakdown.prefillSeconds,
                  base.breakdown.prefillSeconds);
    }
}

/**
 * Disaggregated prefill pool: a handoff's transfer footprint drops
 * by exactly the whole blocks served from cache, while the logical
 * context (kvTokens, what the decode pool must reserve) is
 * unchanged request by request.
 */
TEST(ServingPrefix, HandoffShrinksByHitBlocks)
{
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 150.0, 48, 29);
    ServingOptions opt;
    opt.maxRlp = 16;
    opt.role = ServingRole::Prefill;
    opt.prefillChunkTokens = 128;

    const RunOutput base = runSim(opt, reqs);
    ServingOptions on = opt;
    on.prefixCacheEnabled = true;
    const RunOutput cached = runSim(on, reqs);

    ASSERT_EQ(base.handoffs.size(), reqs.size());
    ASSERT_EQ(cached.handoffs.size(), reqs.size());
    EXPECT_GT(cached.result.prefixHitTokens, 0u);

    const llm::ModelConfig model = llm::llama65b();
    llm::KvCacheManager geom(model, 1, 1ULL << 32, 16);
    std::map<std::uint64_t, const HandoffRecord *> by_id;
    for (const auto &h : base.handoffs)
        by_id[h.request.request.id] = &h;
    std::uint64_t shrunk = 0;
    for (const auto &h : cached.handoffs) {
        const HandoffRecord &b = *by_id.at(h.request.request.id);
        // Same materialized context either way...
        EXPECT_EQ(h.kvTokens, b.kvTokens);
        // ...but cached whole blocks never cross the fabric.
        EXPECT_LE(h.kvBlocks, b.kvBlocks);
        EXPECT_EQ(b.kvBytes - h.kvBytes,
                  (b.kvBlocks - h.kvBlocks) * geom.blockBytes());
        if (h.kvBlocks < b.kvBlocks)
            ++shrunk;
    }
    EXPECT_GT(shrunk, 0u) << "no handoff was served from cache";
}

/**
 * A handoff carries the request's session and prefix identity. A
 * Decode-role replica that crashes, and one that recomputes a request
 * after its transfer fell back, hand the retry layer the five fields
 * the request arrived with, so session affinity and prefix reuse
 * survive the retry.
 */
TEST(ServingPrefix, HandoffKeepsSessionAndPrefixIdentity)
{
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 150.0, 24, 29);
    ServingOptions opt;
    opt.maxRlp = 16;
    opt.role = ServingRole::Prefill;
    opt.prefillChunkTokens = 128;
    opt.prefixCacheEnabled = true;
    const RunOutput prefill = runSim(opt, reqs);
    ASSERT_EQ(prefill.handoffs.size(), reqs.size());

    std::map<std::uint64_t, const llm::TimedRequest *> arrived;
    for (const auto &tr : reqs)
        arrived[tr.request.id] = &tr;
    const auto expect_identity = [&](const llm::TimedRequest &got) {
        SCOPED_TRACE("request " + std::to_string(got.request.id));
        const llm::TimedRequest &want = *arrived.at(got.request.id);
        EXPECT_EQ(got.sessionId, want.sessionId);
        EXPECT_EQ(got.request.prefixKey, want.request.prefixKey);
        EXPECT_EQ(got.request.prefixTokens, want.request.prefixTokens);
        EXPECT_EQ(got.request.insertKey, want.request.insertKey);
        EXPECT_EQ(got.request.insertTokens, want.request.insertTokens);
    };
    std::uint64_t keyed = 0;
    for (const HandoffRecord &h : prefill.handoffs) {
        expect_identity(h.request);
        keyed += h.request.request.prefixKey != 0 ? 1 : 0;
    }
    EXPECT_GT(keyed, 0u) << "the trace carried no prefix keys";

    const PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    for (const bool fallback : {false, true}) {
        SCOPED_TRACE(fallback ? "transfer fallback, recomputed"
                              : "migrated KV");
        ServingOptions dopt;
        dopt.maxRlp = 8;
        dopt.role = ServingRole::Decode;
        dopt.prefixCacheEnabled = true;
        ServingSim decode(papi, {}, model, dopt);
        for (const HandoffRecord &h : prefill.handoffs) {
            if (fallback)
                decode.redeliver(h.request, h.readySeconds);
            else
                decode.deliverPrefilled(h.request, h.readySeconds,
                                        h.kvTokens);
        }
        for (int i = 0; i < 4 && decode.canStep(); ++i)
            decode.step();
        ASSERT_TRUE(decode.hasActive());
        const std::vector<LostRequest> lost = decode.crash(decode.now());
        ASSERT_EQ(lost.size(), reqs.size() - decode.records().size());
        for (const LostRequest &l : lost)
            expect_identity(l.request);
    }
}

/**
 * A Decode-role replica never publishes prefixes, so its cache stays
 * empty, and a request it recomputes after a transfer fell back is a
 * miss without a probe: no lookup is counted, and its whole prompt
 * still counts as miss tokens, since it is prefilled at full cost.
 * The same decode pool, fed the keyed trace directly, runs in
 * lockstep with the specification.
 */
TEST(ServingPrefix, DecodeRoleRecomputeSkipsPrefixProbe)
{
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 150.0, 48, 29);
    ServingOptions opt;
    opt.maxRlp = 16;
    opt.role = ServingRole::Prefill;
    opt.prefillChunkTokens = 128;
    opt.prefixCacheEnabled = true;
    const RunOutput prefill = runSim(opt, reqs);
    ASSERT_EQ(prefill.handoffs.size(), reqs.size());

    ServingOptions dopt;
    dopt.maxRlp = 8;
    dopt.role = ServingRole::Decode;
    dopt.prefixCacheEnabled = true;
    const Platform papi(makePapiConfig());
    ServingSim decode(papi, {}, llm::llama65b(), dopt);
    for (const HandoffRecord &h : prefill.handoffs)
        decode.redeliver(h.request, h.readySeconds);
    while (decode.canStep())
        decode.step();
    const ServingResult r = decode.finish();
    std::uint64_t prompt_tokens = 0;
    for (const auto &tr : reqs)
        prompt_tokens += tr.request.inputLen;
    EXPECT_EQ(decode.records().size(), reqs.size());
    EXPECT_EQ(r.prefixLookups, 0u);
    EXPECT_EQ(r.prefixHits, 0u);
    EXPECT_EQ(r.prefixHitTokens, 0u);
    EXPECT_EQ(r.prefixMissTokens, 25747u);
    EXPECT_EQ(r.prefixMissTokens, prompt_tokens);

    const RunOutput direct = lockstep(dopt, reqs);
    EXPECT_EQ(direct.result.prefixLookups, 0u);
    EXPECT_EQ(direct.result.prefixMissTokens, prompt_tokens);
}

/**
 * Evict-before-preempt: under KV pressure the engine reclaims
 * cached prefix blocks (visible as prefixEvictedBytes) and the run
 * completes deterministically.
 */
TEST(ServingPrefix, PressureEvictsCacheDeterministically)
{
    const PlatformConfig cfg = makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    const auto reqs =
        stream(llm::TraceCategory::AgenticLoop, 300.0, 40, 31);

    ServingOptions opt;
    opt.maxRlp = 12;
    opt.prefixCacheEnabled = true;
    opt.preemptOnKvPressure = true;
    opt.preemptPolicy = KvPreemptPolicy::Recompute;
    opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
        model, 4096, cfg.numAttnDevices);

    const RunOutput a = runSim(opt, reqs);
    EXPECT_EQ(a.records.size(), reqs.size());
    EXPECT_GT(a.result.prefixEvictedBytes, 0u)
        << "pool never pressured the cache";
    // Fixed seed, fixed stream: bitwise reproducible.
    const RunOutput b = runSim(opt, reqs);
    expectResultsEqual(a.result, b.result);
    EXPECT_EQ(a.result.prefixEvictedBytes,
              b.result.prefixEvictedBytes);
}

/** A recorded ServingResult, every field (doubles bitwise). */
struct ResultGolden
{
    double makespan, energy;
    std::uint64_t iters, tokens, admits, resched, reschedGpu, fcGpu,
        fcPim;
    double meanLat, p95Lat, meanRlp, peakKv;
    std::uint64_t preemptions, resumes, recomputed;
    double evictionStall, swapStall;
    std::uint64_t handoffs, handoffTokens, shed, lookups, hits,
        hitTokens, missTokens, evictedBytes;
    std::vector<std::uint64_t> evictionOrder;
};

void
expectGolden(const ServingResult &r, const ResultGolden &g)
{
    EXPECT_EQ(r.makespanSeconds, g.makespan);
    EXPECT_EQ(r.energyJoules, g.energy);
    EXPECT_EQ(r.iterations, g.iters);
    EXPECT_EQ(r.tokensGenerated, g.tokens);
    EXPECT_EQ(r.admissions, g.admits);
    EXPECT_EQ(r.reschedules, g.resched);
    EXPECT_EQ(r.reschedulesToGpu, g.reschedGpu);
    EXPECT_EQ(r.fcOnGpuIterations, g.fcGpu);
    EXPECT_EQ(r.fcOnPimIterations, g.fcPim);
    EXPECT_EQ(r.meanLatencySeconds, g.meanLat);
    EXPECT_EQ(r.p95LatencySeconds, g.p95Lat);
    EXPECT_EQ(r.meanRlp, g.meanRlp);
    EXPECT_EQ(r.peakKvUtilization, g.peakKv);
    EXPECT_EQ(r.preemptions, g.preemptions);
    EXPECT_EQ(r.resumes, g.resumes);
    EXPECT_EQ(r.recomputedPrefillTokens, g.recomputed);
    EXPECT_EQ(r.evictionStallSeconds, g.evictionStall);
    EXPECT_EQ(r.swapInducedStallSeconds, g.swapStall);
    EXPECT_EQ(r.handoffs, g.handoffs);
    EXPECT_EQ(r.prefillHandoffTokens, g.handoffTokens);
    EXPECT_EQ(r.shedRequests, g.shed);
    EXPECT_EQ(r.prefixLookups, g.lookups);
    EXPECT_EQ(r.prefixHits, g.hits);
    EXPECT_EQ(r.prefixHitTokens, g.hitTokens);
    EXPECT_EQ(r.prefixMissTokens, g.missTokens);
    EXPECT_EQ(r.prefixEvictedBytes, g.evictedBytes);
    EXPECT_EQ(r.evictionOrder, g.evictionOrder);
}

/**
 * Chunked-prefill KV accounting, pinned bitwise on a
 * shared-system-prompt trace with the prefix cache on and a small
 * pool: (a) a peak reached at an admission, which only the sample
 * taken before the advance sees, and (b) the per-request growth
 * order under preemption. A change to either that ServingSim and the
 * specification make alike passes the lockstep tests but moves these
 * results.
 */
TEST(ServingPrefix, ChunkedKvAccountingPins)
{
    const PlatformConfig cfg = makePapiConfig();
    const llm::ModelConfig model = llm::llama65b();
    ServingOptions base;
    base.maxRlp = 12;
    base.prefixCacheEnabled = true;

    // (a) Admission here fills the pool to 1.0, and retirements free
    // blocks before the post-advance sample, so only the sample taken
    // before the advance sees the peak (the post-advance sample alone
    // reads 0.99166...).
    {
        SCOPED_TRACE("peak KV sampled before the advance");
        ServingOptions opt = base;
        opt.prefillChunkTokens = 128;
        opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
            model, 4096, cfg.numAttnDevices);
        const RunOutput out = runSim(
            opt, stream(llm::TraceCategory::SharedQa, 300.0, 60, 1));
        expectGolden(out.result,
                     {4.5916443537333311, 6233.0293534702214, 590,
                      5882, 60, 0, 0, 0, 589, 2.3329538858071204,
                      4.1763887253664995, 10.769010882137231,
                      1.0, 0, 0, 0, 0.0, 0.0, 0, 0, 0,
                      60, 48, 3072, 6323, 335544320, {}});
    }

    // (b) Chunked on-demand runs grow KV request by request inside
    // the decode loop, so a survivor's growth can reclaim cached
    // prefix blocks before a later request in the batch retires.
    // Releasing every retiree first and then growing the survivors
    // in bulk evicts different blocks (5200936960 bytes).
    {
        SCOPED_TRACE("per-request KV growth under preemption");
        ServingOptions opt = base;
        opt.prefillChunkTokens = 64;
        opt.preemptOnKvPressure = true;
        opt.preemptPolicy = KvPreemptPolicy::SwapRestore;
        opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
            model, 2048, cfg.numAttnDevices);
        const RunOutput out = runSim(
            opt, stream(llm::TraceCategory::SharedQa, 300.0, 60, 2));
        expectGolden(
            out.result,
            {5.5796368971926293, 7408.7024948867602, 796, 5309, 60, 0,
             0, 0, 794, 2.7249453546587983, 5.053814100103609,
             6.8829094705019216, 1.0, 34, 34, 0, 4.1340728616297095,
             2.9189324799999996, 0, 0, 0, 60, 44, 2816, 6339,
             5368709120, {11, 17, 16, 16, 17, 16, 19, 22, 21, 20, 23,
                          28, 28, 28, 30, 29, 30, 32, 33, 38, 39, 41,
                          44, 43, 42, 44, 50, 49, 48, 55, 54, 55, 57,
                          57}});
    }
}

} // namespace
