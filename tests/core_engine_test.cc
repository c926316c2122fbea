/**
 * @file
 * Tests for the end-to-end decode engine and metrics helpers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/decode_engine.hh"
#include "core/metrics.hh"
#include "core/platform.hh"
#include "core/threshold_calibrator.hh"
#include "llm/trace.hh"
#include "sim/logging.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;
using papi::sim::FatalError;

class EngineTest : public ::testing::Test
{
  protected:
    static llm::Batch
    makeBatch(std::uint32_t size, std::uint32_t in_len,
              std::uint32_t out_len, const llm::ModelConfig &model)
    {
        llm::TraceGenerator gen(llm::TraceCategory::Uniform, 1);
        return llm::Batch(gen.generateUniform(size, in_len, out_len),
                          model);
    }

    llm::ModelConfig model = llm::llama65b();
    llm::SpeculativeConfig serial; // length = 1
};

TEST_F(EngineTest, GeneratesExactlyTheRequestedTokens)
{
    Platform papi(makePapiConfig());
    DecodeEngine engine(papi);
    llm::Batch batch = makeBatch(8, 64, 32, model);
    RunResult r = engine.run(batch, serial, model);
    EXPECT_EQ(r.tokensGenerated, 8u * 32u);
    EXPECT_EQ(r.iterations, 32u);
    EXPECT_GT(r.seconds(), 0.0);
    EXPECT_GT(r.energyJoules, 0.0);
}

TEST_F(EngineTest, SpeculationReducesIterations)
{
    Platform papi(makePapiConfig());
    DecodeEngine engine(papi);
    llm::SpeculativeConfig spec4;
    spec4.length = 4;
    llm::Batch b1 = makeBatch(8, 64, 64, model);
    llm::Batch b4 = makeBatch(8, 64, 64, model);
    RunResult r1 = engine.run(b1, serial, model);
    RunResult r4 = engine.run(b4, spec4, model);
    EXPECT_EQ(r4.iterations * 4, r1.iterations);
    EXPECT_EQ(r1.tokensGenerated, r4.tokensGenerated);
    EXPECT_LT(r4.seconds(), r1.seconds());
}

TEST_F(EngineTest, StaticPoliciesNeverSwitch)
{
    Platform base(makeA100AttAccConfig());
    DecodeEngine engine(base);
    llm::Batch batch = makeBatch(16, 64, 16, model);
    RunResult r = engine.run(batch, serial, model);
    EXPECT_EQ(r.fcOnPimIterations, 0u);
    EXPECT_EQ(r.fcOnGpuIterations, r.iterations);
    EXPECT_EQ(r.reschedules, 0u);

    Platform pim(makeAttAccOnlyConfig());
    DecodeEngine engine2(pim);
    llm::Batch batch2 = makeBatch(16, 64, 16, model);
    RunResult r2 = engine2.run(batch2, serial, model);
    EXPECT_EQ(r2.fcOnGpuIterations, 0u);
    EXPECT_EQ(r2.fcOnPimIterations, r2.iterations);
}

TEST_F(EngineTest, DynamicPolicySwitchesOnRlpDecay)
{
    // A batch whose RLP starts above alpha and decays below it must
    // produce exactly one GPU->PIM reschedule (Fig. 5(d) behaviour).
    Platform papi(makePapiConfig());
    double alpha =
        ThresholdCalibrator::calibrate(papi, model).alpha;

    // Varied output lengths so RLP decays gradually.
    std::vector<llm::Request> reqs;
    std::uint32_t batch_size =
        static_cast<std::uint32_t>(alpha) * 2;
    for (std::uint32_t i = 0; i < batch_size; ++i)
        reqs.push_back(llm::Request{i, 64, 8 + i, 0});
    llm::Batch batch(reqs, model);

    RunOptions opt;
    opt.alpha = alpha;
    opt.recordTrace = true;
    DecodeEngine engine(papi);
    RunResult r = engine.run(batch, serial, model, opt);

    EXPECT_GT(r.fcOnGpuIterations, 0u);
    EXPECT_GT(r.fcOnPimIterations, 0u);
    EXPECT_EQ(r.reschedules, 1u);

    // Trace: GPU iterations first (high RLP), then PIM.
    const auto &trace = engine.trace();
    ASSERT_EQ(trace.size(), r.iterations);
    const TargetId pim = papi.targetId("fc-pim");
    bool seen_pim = false;
    for (const auto &t : trace) {
        if (t.targetId == pim)
            seen_pim = true;
        else
            EXPECT_FALSE(seen_pim) << "GPU after PIM at iteration "
                                   << t.iteration;
    }
}

TEST_F(EngineTest, OraclePolicyNeverLosesToStaticTargets)
{
    PlatformConfig cfg = makePapiConfig();
    cfg.fcDispatch = dispatchPolicyFromName("oracle:gpu,fc-pim");
    Platform oracle(cfg);
    Platform papi(makePapiConfig());
    double alpha = ThresholdCalibrator::calibrate(papi, model).alpha;

    for (std::uint32_t batch_size : {4u, 32u, 64u}) {
        llm::Batch b_oracle = makeBatch(batch_size, 64, 24, model);
        RunResult r_oracle =
            DecodeEngine(oracle).run(b_oracle, serial, model);

        RunOptions opt;
        opt.alpha = alpha;
        llm::Batch b_papi = makeBatch(batch_size, 64, 24, model);
        RunResult r_papi =
            DecodeEngine(papi).run(b_papi, serial, model, opt);

        // The AI-threshold heuristic should track the oracle closely.
        EXPECT_LE(r_oracle.seconds(), r_papi.seconds() * 1.001)
            << "batch=" << batch_size;
        EXPECT_LE(r_papi.seconds(), r_oracle.seconds() * 1.10)
            << "batch=" << batch_size;
    }
}

TEST_F(EngineTest, PrefillCanBeExcluded)
{
    Platform papi(makePapiConfig());
    DecodeEngine engine(papi);
    RunOptions with, without;
    without.includePrefill = false;
    llm::Batch b1 = makeBatch(8, 256, 16, model);
    llm::Batch b2 = makeBatch(8, 256, 16, model);
    RunResult r_with = engine.run(b1, serial, model, with);
    RunResult r_without = engine.run(b2, serial, model, without);
    EXPECT_GT(r_with.time.prefillSeconds, 0.0);
    EXPECT_DOUBLE_EQ(r_without.time.prefillSeconds, 0.0);
    EXPECT_GT(r_with.seconds(), r_without.seconds());
}

TEST_F(EngineTest, BreakdownSumsToTotal)
{
    Platform papi(makePapiConfig());
    DecodeEngine engine(papi);
    llm::Batch batch = makeBatch(8, 64, 16, model);
    RunResult r = engine.run(batch, serial, model);
    EXPECT_NEAR(r.seconds(),
                r.time.prefillSeconds + r.time.fcSeconds +
                    r.time.attnSeconds + r.time.commSeconds +
                    r.time.otherSeconds,
                1e-12);
    EXPECT_GT(r.time.fcSeconds, 0.0);
    EXPECT_GT(r.time.attnSeconds, 0.0);
    EXPECT_GT(r.time.commSeconds, 0.0);
    EXPECT_GT(r.time.otherSeconds, 0.0);
}

TEST_F(EngineTest, PartialAcceptanceSlowsGeneration)
{
    Platform papi(makePapiConfig());
    DecodeEngine engine(papi);
    llm::SpeculativeConfig ideal, lossy;
    ideal.length = 4;
    lossy.length = 4;
    lossy.acceptanceRate = 0.6;
    llm::Batch b1 = makeBatch(8, 64, 64, model);
    llm::Batch b2 = makeBatch(8, 64, 64, model);
    RunResult r_ideal = engine.run(b1, ideal, model);
    RunResult r_lossy = engine.run(b2, lossy, model);
    EXPECT_GT(r_lossy.iterations, r_ideal.iterations);
    EXPECT_EQ(r_lossy.tokensGenerated, r_ideal.tokensGenerated);
}

TEST_F(EngineTest, DeterministicAcrossRuns)
{
    Platform papi(makePapiConfig());
    DecodeEngine engine(papi);
    llm::SpeculativeConfig spec;
    spec.length = 4;
    spec.acceptanceRate = 0.8;
    llm::Batch b1 = makeBatch(8, 64, 32, model);
    llm::Batch b2 = makeBatch(8, 64, 32, model);
    RunResult r1 = engine.run(b1, spec, model);
    RunResult r2 = engine.run(b2, spec, model);
    EXPECT_DOUBLE_EQ(r1.seconds(), r2.seconds());
    EXPECT_EQ(r1.iterations, r2.iterations);
    EXPECT_DOUBLE_EQ(r1.energyJoules, r2.energyJoules);
}

TEST_F(EngineTest, PhaseOverlapShortensRunsAndKeepsAccounting)
{
    PlatformConfig serial_cfg = makePapiConfig();
    PlatformConfig overlap_cfg = makePapiConfig();
    overlap_cfg.phaseOverlapFraction = 1.0;
    Platform serial_p(serial_cfg), overlap_p(overlap_cfg);

    RunOptions opt;
    opt.includePrefill = false;
    llm::Batch b1 = makeBatch(16, 128, 512, model);
    llm::Batch b2 = makeBatch(16, 128, 512, model);
    RunResult r_serial =
        DecodeEngine(serial_p).run(b1, serial, model, opt);
    RunResult r_overlap =
        DecodeEngine(overlap_p).run(b2, serial, model, opt);

    EXPECT_LT(r_overlap.seconds(), r_serial.seconds());
    // Never faster than dropping the entire shorter phase.
    EXPECT_GT(r_overlap.seconds(),
              r_serial.seconds() - r_serial.time.attnSeconds -
                  r_serial.time.commSeconds);
    // Breakdown still sums to the total under overlap.
    EXPECT_NEAR(r_overlap.seconds(),
                r_overlap.time.prefillSeconds +
                    r_overlap.time.fcSeconds +
                    r_overlap.time.attnSeconds +
                    r_overlap.time.commSeconds +
                    r_overlap.time.otherSeconds,
                1e-12);
    // Energy is unchanged by overlap (same work, less wall clock,
    // modulo the tiny "other"-power term).
    EXPECT_NEAR(r_overlap.energyJoules, r_serial.energyJoules,
                r_serial.energyJoules * 0.01);
}

TEST(Metrics, SpeedupAndEfficiency)
{
    RunResult base, cand;
    base.time.fcSeconds = 2.0;
    base.energyJoules = 10.0;
    base.tokensGenerated = 100;
    cand.time.fcSeconds = 1.0;
    cand.energyJoules = 4.0;
    cand.tokensGenerated = 100;
    EXPECT_DOUBLE_EQ(speedup(base, cand), 2.0);
    EXPECT_DOUBLE_EQ(energyEfficiency(base, cand), 2.5);
}

TEST(Metrics, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_THROW(geomean({1.0, -1.0}), FatalError);
}

TEST(Metrics, EmptyAggregationsYieldNaNNotFatal)
{
    // Regression: a pool/replica that completes zero requests must
    // aggregate to NaN (skipped on stat export), not abort the run.
    EXPECT_TRUE(std::isnan(geomean({})));
    EXPECT_TRUE(std::isnan(percentileSorted({}, 0.5)));
    EXPECT_TRUE(std::isnan(percentileSorted({}, 0.99)));
    const std::vector<double> one{3.0};
    EXPECT_DOUBLE_EQ(percentileSorted(one, 0.99), 3.0);
}

TEST(Metrics, Formatters)
{
    EXPECT_EQ(formatSeconds(2.5), "2.500 s");
    EXPECT_EQ(formatSeconds(0.0025), "2.500 ms");
    EXPECT_EQ(formatSeconds(2.5e-6), "2.500 us");
    EXPECT_EQ(formatJoules(2.0), "2.000 J");
    EXPECT_EQ(formatJoules(0.002), "2.000 mJ");
}

} // namespace
