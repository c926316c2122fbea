/**
 * @file
 * Streaming million-request machinery at cluster scope:
 *
 *  - ArrivalProcess::next() is byte-for-byte the vector generate()
 *    for every trace category (the pull-based form is the same RNG
 *    stream).
 *  - ClusterEngine::runStream() over a generator equals run() over
 *    the materialized vector, bit for bit.
 *  - recordCapacity below the overflow point is byte-identical to
 *    the unbounded run; past it, exact counters and P-square
 *    percentiles take over (statsTruncated) while request/token
 *    conservation still holds exactly.
 *  - Cache-hit-aware routing concentrates session turns where their
 *    prefix lives: more hit tokens than round-robin spraying, and a
 *    shorter TTFT tail when turns arrive slowly enough to hit.
 *  - assignSessions' turns_per_session mode deals sessions
 *    round-robin with no randomness; the default mode stays pinned.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster_engine.hh"
#include "core/serving_engine.hh"
#include "llm/arrival.hh"

namespace {

using namespace papi::cluster;
namespace llm = papi::llm;
namespace core = papi::core;

void
expectPercentilesEqual(const LatencyPercentiles &a,
                       const LatencyPercentiles &b)
{
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
}

/** Bitwise equality of the aggregate cluster outcome. */
void
expectClusterEqual(const ClusterResult &a, const ClusterResult &b)
{
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.requestsServed, b.requestsServed);
    EXPECT_EQ(a.requestsOffered, b.requestsOffered);
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    expectPercentilesEqual(a.ttft, b.ttft);
    expectPercentilesEqual(a.tpot, b.tpot);
    expectPercentilesEqual(a.latency, b.latency);
    expectPercentilesEqual(a.queueing, b.queueing);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.meanQueueingSeconds, b.meanQueueingSeconds);
    EXPECT_EQ(a.prefixLookups, b.prefixLookups);
    EXPECT_EQ(a.prefixHitTokens, b.prefixHitTokens);
    EXPECT_EQ(a.statsTruncated, b.statsTruncated);
    EXPECT_EQ(a.records.size(), b.records.size());
}

TEST(ArrivalStream, NextMatchesGenerateForEveryCategory)
{
    for (llm::TraceCategory cat :
         {llm::TraceCategory::GeneralQa,
          llm::TraceCategory::AgenticLoop,
          llm::TraceCategory::LongContextRag,
          llm::TraceCategory::SharedQa}) {
        SCOPED_TRACE(static_cast<int>(cat));
        llm::ArrivalProcess vec_form(cat, 80.0, 123);
        llm::ArrivalProcess pull_form(cat, 80.0, 123);
        const auto vec = vec_form.generate(64);
        for (std::size_t i = 0; i < vec.size(); ++i) {
            const llm::TimedRequest t = pull_form.next();
            EXPECT_EQ(t.arrivalSeconds, vec[i].arrivalSeconds);
            EXPECT_EQ(t.sessionId, vec[i].sessionId);
            EXPECT_EQ(t.request.id, vec[i].request.id);
            EXPECT_EQ(t.request.inputLen, vec[i].request.inputLen);
            EXPECT_EQ(t.request.outputLen, vec[i].request.outputLen);
            EXPECT_EQ(t.request.prefixKey, vec[i].request.prefixKey);
            EXPECT_EQ(t.request.prefixTokens,
                      vec[i].request.prefixTokens);
            EXPECT_EQ(t.request.insertKey, vec[i].request.insertKey);
            EXPECT_EQ(t.request.insertTokens,
                      vec[i].request.insertTokens);
        }
        // Arrival times are non-decreasing by construction.
        llm::TimedRequest prev = pull_form.next();
        for (int i = 0; i < 16; ++i) {
            const llm::TimedRequest t = pull_form.next();
            EXPECT_GE(t.arrivalSeconds, prev.arrivalSeconds);
            prev = t;
        }
    }
}

TEST(ClusterStream, RunStreamMatchesRunBitwise)
{
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;

    ClusterOptions opt;
    opt.numPlatforms = 4;
    opt.serving.maxRlp = 16;
    opt.serving.prefixCacheEnabled = true;
    opt.policy = RouterPolicy::SessionAffinity;

    llm::ArrivalProcess vec_form(llm::TraceCategory::AgenticLoop,
                                 120.0, 77);
    const auto reqs = vec_form.generate(96);
    ClusterResult from_vec =
        ClusterEngine(cfg, opt).run(reqs, spec, model);

    llm::ArrivalProcess pull_form(llm::TraceCategory::AgenticLoop,
                                  120.0, 77);
    ClusterResult from_gen = ClusterEngine(cfg, opt)
                                 .runStream(pull_form, 96, spec,
                                            model);
    expectClusterEqual(from_vec, from_gen);
    EXPECT_EQ(from_gen.requestsServed, 96u);
    EXPECT_FALSE(from_gen.statsTruncated);
}

TEST(ClusterStream, RecordCapacityBelowOverflowIsByteIdentical)
{
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 100.0, 55);
    const auto reqs = arrivals.generate(48);

    ClusterOptions opt;
    opt.numPlatforms = 2;
    opt.serving.maxRlp = 16;
    ClusterResult unbounded =
        ClusterEngine(cfg, opt).run(reqs, spec, model);

    // A cap no replica reaches changes nothing, bit for bit.
    opt.recordCapacity = 4096;
    ClusterResult capped =
        ClusterEngine(cfg, opt).run(reqs, spec, model);
    expectClusterEqual(unbounded, capped);
    EXPECT_FALSE(capped.statsTruncated);
}

TEST(ClusterStream, TruncatedStatsConserveWorkAndApproximate)
{
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 100.0, 55);
    const auto reqs = arrivals.generate(128);

    ClusterOptions opt;
    opt.numPlatforms = 2;
    opt.serving.maxRlp = 16;
    ClusterResult exact =
        ClusterEngine(cfg, opt).run(reqs, spec, model);

    opt.recordCapacity = 8;
    ClusterResult trunc =
        ClusterEngine(cfg, opt).run(reqs, spec, model);

    EXPECT_TRUE(trunc.statsTruncated);
    // Conservation is exact even past the record cap.
    EXPECT_EQ(trunc.requestsServed, 128u);
    EXPECT_EQ(trunc.requestsOffered, 128u);
    EXPECT_EQ(trunc.tokensGenerated, exact.tokensGenerated);
    EXPECT_EQ(trunc.makespanSeconds, exact.makespanSeconds);
    EXPECT_EQ(trunc.energyJoules, exact.energyJoules);
    // Records hold only each replica's capped prefix.
    EXPECT_LE(trunc.records.size(), 2u * 8u);
    // Means come from exact streaming sums: equal up to summation
    // order; percentiles come from P-square: close, finite, ordered.
    EXPECT_NEAR(trunc.meanLatencySeconds, exact.meanLatencySeconds,
                1e-9 * std::abs(exact.meanLatencySeconds));
    EXPECT_TRUE(std::isfinite(trunc.latency.p99));
    EXPECT_LE(trunc.latency.p50, trunc.latency.p99);
    EXPECT_NEAR(trunc.latency.p50, exact.latency.p50,
                0.25 * exact.latency.p50 + 1e-12);
    // The simulation itself is identical; only reporting is capped.
    ASSERT_EQ(trunc.perGroup.size(), exact.perGroup.size());
    for (std::size_t g = 0; g < exact.perGroup.size(); ++g) {
        EXPECT_EQ(trunc.perGroup[g].makespanSeconds,
                  exact.perGroup[g].makespanSeconds);
        EXPECT_EQ(trunc.perGroup[g].tokensGenerated,
                  exact.perGroup[g].tokensGenerated);
    }
}

TEST(ClusterStream, CacheHitAwareRoutingBeatsRoundRobinOnHits)
{
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    llm::ArrivalProcess arrivals(llm::TraceCategory::AgenticLoop,
                                 150.0, 91);
    const auto reqs = arrivals.generate(112);

    auto run_policy = [&](RouterPolicy policy) {
        ClusterOptions opt;
        opt.numPlatforms = 4;
        opt.policy = policy;
        opt.serving.maxRlp = 16;
        opt.serving.prefixCacheEnabled = true;
        return ClusterEngine(cfg, opt).run(reqs, spec, model);
    };

    const ClusterResult rr = run_policy(RouterPolicy::RoundRobin);
    const ClusterResult cha =
        run_policy(RouterPolicy::CacheHitAware);

    EXPECT_EQ(cha.requestsServed, reqs.size());
    EXPECT_GT(cha.prefixLookups, 0u);
    EXPECT_GT(cha.prefixHits, 0u);
    // 7 active sessions across 4 replicas: round-robin sprays the
    // turns of one session across replicas, so probing for the
    // cached prefix must recover strictly more hit tokens.
    EXPECT_GT(cha.prefixHitTokens, rr.prefixHitTokens);
    // The ledger survives aggregation across replicas.
    EXPECT_EQ(cha.prefixHitTokens + cha.prefixMissTokens,
              rr.prefixHitTokens + rr.prefixMissTokens);
    // Deterministic: re-running reproduces the routing exactly.
    const ClusterResult again =
        run_policy(RouterPolicy::CacheHitAware);
    expectClusterEqual(cha, again);
    EXPECT_EQ(cha.prefixHits, again.prefixHits);
}

TEST(ClusterStream, CacheHitAwareRoutingBeatsRoundRobinOnTtftTail)
{
    // 168 agentic turns at 2 req/s on four replicas with the prefix
    // cache on and 64-token prefill chunks. The rate is slow on
    // purpose: a turn can hit only after its session's previous turn
    // retired and published its context. Round-robin scatters a
    // session's turns away from that context, while cache-hit-aware
    // routing follows the cached bytes, so the TTFT tail isolates
    // routing quality rather than load imbalance.
    core::PlatformConfig cfg = core::makePapiConfig();
    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig spec;
    llm::ArrivalProcess arrivals(llm::TraceCategory::AgenticLoop, 2.0,
                                 97);
    const auto reqs = arrivals.generate(168);

    auto run_policy = [&](RouterPolicy policy) {
        ClusterOptions opt;
        opt.numPlatforms = 4;
        opt.policy = policy;
        opt.serving.maxRlp = 16;
        opt.serving.prefillChunkTokens = 64;
        opt.serving.prefixCacheEnabled = true;
        return ClusterEngine(cfg, opt).run(reqs, spec, model);
    };
    const ClusterResult rr = run_policy(RouterPolicy::RoundRobin);
    const ClusterResult sa = run_policy(RouterPolicy::SessionAffinity);
    const ClusterResult cha =
        run_policy(RouterPolicy::CacheHitAware);

    for (const ClusterResult *r : {&rr, &sa, &cha}) {
        EXPECT_EQ(r->requestsServed, reqs.size());
        EXPECT_LE(r->prefixHits, r->prefixLookups);
    }
    EXPECT_GT(sa.prefixHits, 0u);
    EXPECT_GT(cha.prefixHits, 0u);
    EXPECT_LT(cha.ttft.p99, rr.ttft.p99);
}

TEST(AssignSessions, TurnsModeDealsRoundRobinDeterministically)
{
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 50.0, 3);
    auto reqs = arrivals.generate(12);
    llm::assignSessions(reqs, /*num_sessions=*/3, /*seed=*/9,
                        /*turns_per_session=*/4);
    // 3 live slots, 4 turns each, dealt 1,2,3,1,2,3,...: every
    // session is exactly 4 interleaved turns, no randomness.
    const std::uint64_t expect[12] = {1, 2, 3, 1, 2, 3,
                                      1, 2, 3, 1, 2, 3};
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(reqs[i].sessionId, expect[i]) << "i=" << i;

    // Retired slots reseed with fresh ids (4, 5, ...).
    auto longer = arrivals.generate(18);
    llm::assignSessions(longer, 3, 9, 4);
    EXPECT_EQ(longer[12].sessionId, 4u);
    EXPECT_EQ(longer[13].sessionId, 5u);
    EXPECT_EQ(longer[14].sessionId, 6u);
    EXPECT_EQ(longer[15].sessionId, 4u);

    // Default mode (turns_per_session == 0): random attribution,
    // pinned to the seed, ids in [1, num_sessions].
    auto a = arrivals.generate(32);
    auto b = a;
    llm::assignSessions(a, 5, 17);
    llm::assignSessions(b, 5, 17);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].sessionId, b[i].sessionId);
        EXPECT_GE(a[i].sessionId, 1u);
        EXPECT_LE(a[i].sessionId, 5u);
    }
}

} // namespace
