/**
 * @file
 * Tests for mixed-continuous-batching serving, MoE workload
 * modelling, and config-driven platform construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/batch_state.hh"
#include "core/config_loader.hh"
#include "core/serving_engine.hh"
#include "core/threshold_calibrator.hh"
#include "llm/moe.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;
using papi::sim::FatalError;

class ServingTest : public ::testing::Test
{
  protected:
    static std::vector<llm::TimedRequest>
    stream(double rate_rps, std::uint32_t count,
           std::uint64_t seed = 5)
    {
        llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                     rate_rps, seed);
        return arrivals.generate(count);
    }

    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig serial;
};

TEST_F(ServingTest, AllRequestsServed)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    auto reqs = stream(50.0, 32);
    ServingResult r = engine.run(reqs, serial, model);
    std::uint64_t expected_tokens = 0;
    for (const auto &t : reqs)
        expected_tokens += t.request.outputLen;
    EXPECT_EQ(r.tokensGenerated, expected_tokens);
    EXPECT_EQ(r.admissions, 32u);
    EXPECT_GT(r.makespanSeconds, 0.0);
    EXPECT_GT(r.meanLatencySeconds, 0.0);
    EXPECT_GE(r.p95LatencySeconds, r.meanLatencySeconds);
}

TEST_F(ServingTest, RlpRisesAndFallsProducingBothSwitchDirections)
{
    // The whole point of continuous batching for PAPI: admissions
    // push RLP x TLP above alpha (FC -> GPU) and drains pull it
    // below (FC -> PIM). A bursty stream must produce reschedules in
    // both directions.
    Platform papi(makePapiConfig());
    double alpha = ThresholdCalibrator::calibrate(papi, model).alpha;
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.alpha = alpha;
    opt.maxRlp = static_cast<std::uint32_t>(alpha) * 3;
    auto reqs = stream(500.0, 96); // heavy burst
    ServingResult r = engine.run(reqs, serial, model, opt);
    EXPECT_GT(r.reschedules, 1u);
    EXPECT_GT(r.reschedulesToGpu, 0u);
    EXPECT_GT(r.reschedules, r.reschedulesToGpu); // also GPU -> PIM
    EXPECT_GT(r.fcOnGpuIterations, 0u);
    EXPECT_GT(r.fcOnPimIterations, 0u);
}

TEST_F(ServingTest, MaxRlpCapsConcurrency)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.maxRlp = 4;
    auto reqs = stream(1000.0, 24); // all arrive ~immediately
    ServingResult r = engine.run(reqs, serial, model, opt);
    EXPECT_LE(r.meanRlp, 4.0 + 1e-9);
    EXPECT_EQ(r.admissions, 24u);
}

TEST_F(ServingTest, HigherLoadRaisesLatency)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.maxRlp = 8;
    ServingResult light = engine.run(stream(2.0, 24), serial, model,
                                     opt);
    ServingResult heavy = engine.run(stream(200.0, 24), serial,
                                     model, opt);
    EXPECT_GT(heavy.meanLatencySeconds, light.meanLatencySeconds);
    EXPECT_GT(heavy.meanRlp, light.meanRlp);
}

TEST_F(ServingTest, PapiBeatsStaticBaselineUnderMixedLoad)
{
    Platform papi(makePapiConfig());
    Platform base(makeA100AttAccConfig());
    double alpha = ThresholdCalibrator::calibrate(papi, model).alpha;
    ServingOptions opt;
    opt.alpha = alpha;
    opt.maxRlp = 64;
    auto reqs = stream(30.0, 48);
    ServingResult r_papi = ServingEngine(papi).run(reqs, serial,
                                                   model, opt);
    ServingResult r_base = ServingEngine(base).run(reqs, serial,
                                                   model, opt);
    EXPECT_LT(r_papi.makespanSeconds, r_base.makespanSeconds);
    EXPECT_LT(r_papi.meanLatencySeconds,
              r_base.meanLatencySeconds * 1.02);
}

TEST_F(ServingTest, InvalidInputsAreFatal)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    EXPECT_THROW(engine.run({}, serial, model), FatalError);

    auto reqs = stream(10.0, 4);
    std::swap(reqs[0], reqs[3]); // unsorted arrivals
    EXPECT_THROW(engine.run(reqs, serial, model), FatalError);

    ServingOptions opt;
    opt.maxRlp = 0;
    auto ok = stream(10.0, 4);
    EXPECT_THROW(engine.run(ok, serial, model, opt), FatalError);
}

TEST_F(ServingTest, BatchLevelAdmitsOnlyIntoEmptyBatch)
{
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.admission = AdmissionPolicy::BatchLevel;
    opt.maxRlp = 8;
    auto reqs = stream(100.0, 24);
    ServingResult r = engine.run(reqs, serial, model, opt);
    std::uint64_t expected_tokens = 0;
    for (const auto &t : reqs)
        expected_tokens += t.request.outputLen;
    EXPECT_EQ(r.tokensGenerated, expected_tokens);
    // Admissions happen in batch-sized bursts, so the mean RLP can
    // only decay within each batch - it never exceeds the cap.
    EXPECT_LE(r.meanRlp, 8.0 + 1e-9);
}

TEST_F(ServingTest, TokenLevelBeatsBatchLevelUnderLoad)
{
    // Continuous batching refills the batch as requests finish;
    // batch-level scheduling idles capacity during the drain (the
    // paper's Section 2.2.1 motivation for mixed continuous
    // batching).
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    auto reqs = stream(100.0, 48);

    ServingOptions token_opt;
    token_opt.maxRlp = 16;
    ServingOptions batch_opt = token_opt;
    batch_opt.admission = AdmissionPolicy::BatchLevel;

    ServingResult token = engine.run(reqs, serial, model, token_opt);
    ServingResult batch = engine.run(reqs, serial, model, batch_opt);
    EXPECT_LT(token.makespanSeconds, batch.makespanSeconds);
    EXPECT_GT(token.meanRlp, batch.meanRlp);
}

TEST_F(ServingTest, BatchTimeoutBoundsFirstStart)
{
    // With a sparse stream and a long timeout, batch-level
    // scheduling delays the first request by ~the timeout.
    Platform papi(makePapiConfig());
    ServingEngine engine(papi);
    ServingOptions opt;
    opt.admission = AdmissionPolicy::BatchLevel;
    opt.maxRlp = 32;
    opt.batchTimeoutSeconds = 2.0;
    auto reqs = stream(4.0, 8); // ~0.25 s apart: never fills 32
    ServingResult slow = engine.run(reqs, serial, model, opt);
    opt.batchTimeoutSeconds = 0.0;
    ServingResult fast = engine.run(reqs, serial, model, opt);
    EXPECT_GT(slow.meanLatencySeconds, fast.meanLatencySeconds);
}

/**
 * finish() is idempotent: a second call returns the same bits, on an
 * unbounded run, on a run capped above its request count and on one
 * whose record buffer overflowed. The latency mean sums in retirement
 * order; sorting the samples in place would make a second call sum
 * them in sorted order and move the mean's last bits.
 */
TEST_F(ServingTest, FinishTwiceReturnsTheSameBits)
{
    Platform papi(makePapiConfig());
    for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
        const auto reqs = stream(100.0, 48, seed);
        for (const std::uint64_t cap : {0, 4096, 16}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", cap " +
                         std::to_string(cap));
            ServingOptions opt;
            opt.maxRlp = 16;
            opt.recordCapacity = cap;
            ServingSim sim(papi, serial, model, opt);
            for (const auto &tr : reqs)
                sim.deliver(tr);
            while (sim.canStep())
                sim.step();
            const ServingResult a = sim.finish();
            const ServingResult b = sim.finish();
            EXPECT_EQ(sim.streamStats().overflowed, cap == 16);
            EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
            EXPECT_EQ(a.p95LatencySeconds, b.p95LatencySeconds);
            EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
            EXPECT_EQ(a.energyJoules, b.energyJoules);
            EXPECT_EQ(a.meanRlp, b.meanRlp);
            EXPECT_EQ(a.peakKvUtilization, b.peakKvUtilization);
            EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
            EXPECT_EQ(a.iterations, b.iterations);
        }
    }
}

/** A snapshot whose every field is distinct from every other
 *  snapshot's @p k, so a misaligned column shows. */
ActiveSnapshot
distinctSnapshot(std::uint32_t k)
{
    ActiveSnapshot s;
    s.request.id = 1000 + k;
    s.request.inputLen = 2000 + k;
    s.request.outputLen = 3000 + k;
    s.request.generated = 4000 + k;
    s.request.prefixKey = 5000 + k;
    s.request.prefixTokens = 6000 + k;
    s.request.insertKey = 7000 + k;
    s.request.insertTokens = 8000 + k;
    s.arrivalSeconds = 0.5 + k;
    s.admissionSeconds = 1.5 + k;
    s.firstTokenSeconds = 2.5 + k;
    s.firstTokenSeen = k % 2 == 1;
    s.prefillRemaining = 9000 + k;
    s.kvTokens = 10000 + k;
    s.admitSeq = k;
    s.preemptions = 11000 + k;
    s.stallSeconds = 3.5 + k;
    s.sessionId = 12000 + k;
    s.kvBlocks = 13000 + k;
    s.kvSlot = 14000 + k;
    s.prefixHitTokens = 15000 + k;
    return s;
}

/** Every column of @p b at @p i equals snapshot @p s. */
void
expectElement(const BatchState &b, std::size_t i, const ActiveSnapshot &s)
{
    const ActiveSnapshot g = b.snapshot(i);
    EXPECT_EQ(g.request.id, s.request.id);
    EXPECT_EQ(g.request.inputLen, s.request.inputLen);
    EXPECT_EQ(g.request.outputLen, s.request.outputLen);
    EXPECT_EQ(g.request.generated, s.request.generated);
    EXPECT_EQ(g.request.prefixKey, s.request.prefixKey);
    EXPECT_EQ(g.request.prefixTokens, s.request.prefixTokens);
    EXPECT_EQ(g.request.insertKey, s.request.insertKey);
    EXPECT_EQ(g.request.insertTokens, s.request.insertTokens);
    EXPECT_EQ(g.arrivalSeconds, s.arrivalSeconds);
    EXPECT_EQ(g.admissionSeconds, s.admissionSeconds);
    EXPECT_EQ(g.firstTokenSeconds, s.firstTokenSeconds);
    EXPECT_EQ(g.firstTokenSeen, s.firstTokenSeen);
    EXPECT_EQ(g.prefillRemaining, s.prefillRemaining);
    EXPECT_EQ(g.kvTokens, s.kvTokens);
    EXPECT_EQ(g.admitSeq, s.admitSeq);
    EXPECT_EQ(g.preemptions, s.preemptions);
    EXPECT_EQ(g.stallSeconds, s.stallSeconds);
    EXPECT_EQ(g.sessionId, s.sessionId);
    EXPECT_EQ(g.kvBlocks, s.kvBlocks);
    EXPECT_EQ(g.kvSlot, s.kvSlot);
    EXPECT_EQ(g.prefixHitTokens, s.prefixHitTokens);
}

/**
 * BatchState::eraseSorted against a per-element model (a vector of
 * snapshots filtered in order): seeded random retiree sets over batch
 * sizes 1 to 40, plus the edge sets - the first index, the last
 * index, adjacent runs, every index and none. Every column of every
 * survivor must land in order, and every column must shrink.
 */
TEST(BatchState, EraseSortedMatchesPerElementModel)
{
    papi::sim::Rng rng(29);
    std::uint64_t cases = 0;
    for (std::uint32_t n = 1; n <= 40; ++n) {
        std::vector<std::vector<std::uint32_t>> sets = {
            {0}, {n - 1}, {}, {}};
        for (std::uint32_t i = 0; i < n; ++i)
            sets[2].push_back(i); // every index
        if (n >= 4)
            sets.push_back({0, 1, n - 2, n - 1}); // adjacent at both ends
        for (const double p : {0.1, 0.5, 0.9}) {
            for (int rep = 0; rep < 4; ++rep) {
                std::vector<std::uint32_t> set;
                for (std::uint32_t i = 0; i < n; ++i) {
                    if (rng.bernoulli(p))
                        set.push_back(i);
                }
                sets.push_back(set);
            }
        }
        for (const std::vector<std::uint32_t> &set : sets) {
            SCOPED_TRACE("n " + std::to_string(n) + " erasing " +
                         std::to_string(set.size()));
            BatchState b;
            std::vector<ActiveSnapshot> model;
            for (std::uint32_t k = 0; k < n; ++k) {
                b.push(distinctSnapshot(k));
                model.push_back(distinctSnapshot(k));
            }
            b.eraseSorted(set);
            std::vector<ActiveSnapshot> kept;
            for (std::uint32_t k = 0; k < n; ++k) {
                if (!std::binary_search(set.begin(), set.end(), k))
                    kept.push_back(model[k]);
            }
            ASSERT_EQ(b.size(), kept.size());
            EXPECT_EQ(b.stallSeconds.size(), kept.size());
            EXPECT_EQ(b.firstTokenSeen.size(), kept.size());
            for (std::size_t i = 0; i < kept.size(); ++i)
                expectElement(b, i, kept[i]);
            ++cases;
        }
    }
    EXPECT_GT(cases, 600u);
}

TEST(Arrival, PoissonStreamIsSortedAndDeterministic)
{
    llm::ArrivalProcess a(llm::TraceCategory::GeneralQa, 100.0, 3);
    llm::ArrivalProcess b(llm::TraceCategory::GeneralQa, 100.0, 3);
    auto ra = a.generate(200);
    auto rb = b.generate(200);
    double mean_gap = ra.back().arrivalSeconds /
                      static_cast<double>(ra.size());
    EXPECT_NEAR(mean_gap, 0.01, 0.004); // ~1/rate
    for (std::size_t i = 1; i < ra.size(); ++i)
        EXPECT_GE(ra[i].arrivalSeconds, ra[i - 1].arrivalSeconds);
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_DOUBLE_EQ(ra[i].arrivalSeconds, rb[i].arrivalSeconds);
    EXPECT_THROW(llm::ArrivalProcess(llm::TraceCategory::GeneralQa,
                                     0.0, 1),
                 FatalError);
}

TEST(Moe, ExpectedActiveExpertsBehaviour)
{
    llm::ModelConfig m = llm::mixtral8x22b();
    // One token touches exactly top-k experts (in expectation).
    EXPECT_NEAR(llm::expectedActiveExperts(m, 1), 2.0, 1e-9);
    // Coverage grows monotonically and saturates at E.
    double prev = 0.0;
    for (std::uint32_t t : {1u, 2u, 4u, 16u, 64u, 256u}) {
        double a = llm::expectedActiveExperts(m, t);
        EXPECT_GT(a, prev);
        EXPECT_LE(a, 8.0 + 1e-9);
        prev = a;
    }
    EXPECT_NEAR(llm::expectedActiveExperts(m, 256), 8.0, 1e-9);
    // Dense models report a single "expert".
    EXPECT_DOUBLE_EQ(llm::expectedActiveExperts(llm::llama65b(), 8),
                     1.0);
}

TEST(Moe, FfnReuseBelowDenseReuse)
{
    llm::ModelConfig m = llm::mixtral8x22b();
    for (std::uint32_t t : {4u, 16u, 64u}) {
        double reuse = llm::moeFfnReuse(m, t);
        EXPECT_GT(reuse, 0.9);
        EXPECT_LT(reuse, static_cast<double>(t));
    }
}

TEST(Moe, IntensityEstimateBelowDenseEstimate)
{
    // The Section 6.5 argument: expert sparsity keeps MoE FC
    // memory-bound to much larger batches.
    llm::ModelConfig m = llm::mixtral8x22b();
    for (std::uint32_t rlp : {8u, 32u, 128u}) {
        double moe = llm::moeFcIntensityEstimate(m, rlp, 1);
        double dense = static_cast<double>(rlp);
        EXPECT_LT(moe, dense) << "rlp=" << rlp;
    }
    // Dense model falls back to RLP x TLP exactly.
    EXPECT_DOUBLE_EQ(
        llm::moeFcIntensityEstimate(llm::llama65b(), 16, 2), 32.0);
}

TEST(Moe, ParameterCountsAndWork)
{
    llm::ModelConfig m = llm::mixtral8x22b();
    // ~140 B total parameters, ~8x more FFN than a dense model.
    EXPECT_NEAR(m.totalParams() / 1e9, 141.0, 15.0);
    llm::KernelWork w1 = llm::fcTotalWork(m, 1);
    llm::KernelWork w64 = llm::fcTotalWork(m, 64);
    // One token streams only top-k experts' worth of FFN weights.
    EXPECT_LT(w1.weightBytes, m.totalFcBytes() * 0.45);
    // A large batch touches every expert.
    EXPECT_NEAR(w64.weightBytes,
                static_cast<double>(m.totalFcBytes()),
                m.totalFcBytes() * 0.02);
    // FLOPs scale with tokens x top-k, not with expert count.
    EXPECT_NEAR(w64.flops / w1.flops, 64.0, 0.5);
}

TEST(Moe, PimFcLatencyReflectsSparsity)
{
    // At a batch size where a dense model of equal resident size
    // would be deeply compute-bound on FC-PIM, the MoE model's
    // per-expert reuse stays near the balance point.
    Platform papi(makePapiConfig());
    llm::ModelConfig moe = llm::mixtral8x22b();
    const TargetId pim = papi.targetId("fc-pim");
    KernelExec lo = papi.fcExec(moe, 8, pim);
    KernelExec hi = papi.fcExec(moe, 64, pim);
    // 8x the tokens costs far less than 8x the time: expert
    // coverage saturates and reuse-per-expert grows instead.
    EXPECT_LT(hi.seconds, lo.seconds * 4.0);
}

TEST(ConfigLoader, NamedPlatformsResolve)
{
    EXPECT_EQ(platformConfigByName("papi").name, "papi");
    EXPECT_EQ(platformConfigByName("attacc-only").name,
              "attacc-only");
    EXPECT_THROW(platformConfigByName("nonsense"), FatalError);
}

TEST(ConfigLoader, OverridesApply)
{
    papi::sim::Config c;
    c.set("platform", std::string("papi"));
    c.set("num_gpus", std::int64_t{4});
    c.set("num_attn_devices", std::int64_t{30});
    c.set("attn_fabric", std::string("cxl2"));
    c.set("fc_pim.fpus_per_group", std::int64_t{2});
    PlatformConfig cfg = platformFromConfig(c);
    EXPECT_EQ(cfg.numGpus, 4u);
    EXPECT_EQ(cfg.numAttnDevices, 30u);
    EXPECT_EQ(cfg.topology.attnFabric.name, "cxl2");
    EXPECT_EQ(cfg.fcDeviceConfig.xPyBLabel(), "2P1B");
    // Untouched fields keep factory defaults.
    EXPECT_EQ(cfg.numFcDevices, 30u);
}

TEST(ConfigLoader, RetiredPolicyKeyIsFatalWithDispatchSpelling)
{
    // A config line from before fc_dispatch must not quietly run the
    // default policy: it is fatal, and the message spells each old
    // value as the fc_dispatch policy it used to select.
    const struct
    {
        const char *old;
        const char *spelling;
    } retired[] = {
        {"always-gpu", "static:gpu"},
        {"always-pim", "static:fc-pim"},
        {"dynamic", "threshold:fc-pim->gpu"},
        {"oracle", "oracle:gpu,fc-pim"},
    };
    for (const auto &r : retired) {
        papi::sim::Config c;
        c.set("fc_policy", std::string(r.old));
        std::string msg;
        try {
            platformFromConfig(c);
        } catch (const FatalError &e) {
            msg = e.what();
        }
        EXPECT_NE(msg.find("fc_dispatch"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'" + std::string(r.old) + "'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(std::string(r.old) + " -> " + r.spelling),
                  std::string::npos)
            << msg;
        // The advice is a policy the PAPI platform accepts.
        PlatformConfig cfg = makePapiConfig();
        cfg.fcDispatch = dispatchPolicyFromName(r.spelling);
        EXPECT_NO_THROW(Platform{cfg}) << r.spelling;
    }
}

TEST(ConfigLoader, DispatchPolicyStringsRoundTrip)
{
    // Every printable DispatchPolicy form parses back identically,
    // including for every policy a platform can resolve.
    std::vector<DispatchPolicy> policies = {
        staticDispatch("gpu"),
        staticDispatch("fc-pim"),
        staticDispatch("attn-pim"),
        thresholdDispatch("fc-pim", "gpu"),
        thresholdDispatch("gpu", "fc-pim"),
        oracleDispatch({"gpu", "fc-pim"}),
        oracleDispatch({"gpu", "fc-pim", "attn-pim"}),
    };
    for (const auto &p : policies) {
        DispatchPolicy back =
            dispatchPolicyFromName(dispatchPolicyName(p));
        EXPECT_EQ(back.rule, p.rule) << dispatchPolicyName(p);
        EXPECT_EQ(back.targets, p.targets) << dispatchPolicyName(p);
    }

    EXPECT_THROW(dispatchPolicyFromName("static"), FatalError);
    EXPECT_THROW(dispatchPolicyFromName("threshold:gpu"), FatalError);
    EXPECT_THROW(dispatchPolicyFromName("oracle:gpu,,fc-pim"),
                 FatalError);
    EXPECT_THROW(dispatchPolicyFromName("banana:gpu"), FatalError);
    EXPECT_THROW(dispatchPolicyFromName("static:gpu,fc-pim"),
                 FatalError);
}

TEST(ConfigLoader, DispatchKeysApply)
{
    papi::sim::Config c;
    c.set("platform", std::string("papi"));
    c.set("fc_dispatch", std::string("oracle:gpu,fc-pim"));
    PlatformConfig cfg = platformFromConfig(c);
    EXPECT_EQ(cfg.fcDispatch.rule, DispatchRule::Oracle);
    Platform p(cfg);
    EXPECT_EQ(dispatchPolicyName(p.dispatchPolicy(Phase::Fc)),
              "oracle:gpu,fc-pim");

    papi::sim::Config bad;
    bad.set("fc_dispatch", std::string("nonsense"));
    EXPECT_THROW(platformFromConfig(bad), FatalError);

    // An unknown target name in a well-formed policy survives
    // parsing but fails platform construction.
    papi::sim::Config unknown;
    unknown.set("fc_dispatch", std::string("static:tpu"));
    PlatformConfig cfg2 = platformFromConfig(unknown);
    EXPECT_THROW(Platform{cfg2}, FatalError);
}

TEST(ConfigLoader, OutOfRangeCountsAreFatalAndNameTheKey)
{
    // A plain cast used to wrap num_gpus = -1 to 4,294,967,295 GPUs.
    const char *counts[] = {
        "num_gpus",          "num_fc_devices",
        "num_attn_devices",  "fc_fabric_links",
        "attn_fabric_links", "fc_pim.fpus_per_group",
        "fc_pim.banks_per_group", "attn_pim.fpus_per_group",
        "attn_pim.banks_per_group",
    };
    for (const char *key : counts) {
        for (std::int64_t bad : {std::int64_t{-1}, std::int64_t{1} << 32}) {
            papi::sim::Config c;
            c.set(key, bad);
            std::string msg;
            try {
                platformFromConfig(c);
            } catch (const FatalError &e) {
                msg = e.what();
            }
            EXPECT_NE(msg.find(key), std::string::npos)
                << key << " = " << bad << ": " << msg;
        }
        // The loader accepts the whole uint32 range; zero and huge
        // counts are left to Platform's own checks.
        papi::sim::Config top;
        top.set(key, std::int64_t{0xffffffff});
        EXPECT_NO_THROW(platformFromConfig(top)) << key;
    }
}

TEST(ConfigLoader, GpuRatesMustBeFiniteAndPositive)
{
    // gpu.peak_tflops = 0 used to die later as an unencodable
    // infinite time, and a negative bandwidth ran to completion.
    for (const char *key : {"gpu.peak_tflops", "gpu.mem_bandwidth_gbs"}) {
        for (const char *bad : {"0", "-1", "inf", "nan"}) {
            papi::sim::Config c;
            c.set(key, std::string(bad));
            std::string msg;
            try {
                platformFromConfig(c);
            } catch (const FatalError &e) {
                msg = e.what();
            }
            EXPECT_NE(msg.find(key), std::string::npos)
                << key << " = " << bad << ": " << msg;
        }
        papi::sim::Config ok;
        ok.set(key, 1.5);
        EXPECT_NO_THROW(platformFromConfig(ok)) << key;
    }
}

TEST(ConfigLoader, BadLinkIsFatal)
{
    papi::sim::Config d;
    d.set("attn_fabric", std::string("carrier-pigeon"));
    EXPECT_THROW(platformFromConfig(d), FatalError);
}

TEST(ConfigLoader, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "papi_cfg_test.cfg";
    {
        std::ofstream out(path);
        out << "# a comment line\n";
        out << "platform=pim-only-papi\n";
        out << "num_attn_devices=90   # trailing comment\n";
        out << "\n";
    }
    papi::sim::Config c = loadConfigFile(path);
    PlatformConfig cfg = platformFromConfig(c);
    EXPECT_EQ(cfg.name, "pim-only-papi");
    EXPECT_EQ(cfg.numAttnDevices, 90u);
    std::remove(path.c_str());

    EXPECT_THROW(loadConfigFile("/nonexistent/papi.cfg"),
                 FatalError);
}

TEST(ConfigLoader, MalformedLineIsFatal)
{
    std::string path = ::testing::TempDir() + "papi_cfg_bad.cfg";
    {
        std::ofstream out(path);
        out << "this line has no equals sign\n";
    }
    EXPECT_THROW(loadConfigFile(path), FatalError);
    std::remove(path.c_str());
}

} // namespace
