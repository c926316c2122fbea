/**
 * @file
 * Property sweeps across the full platform x workload grid, plus
 * calibrator edge cases. These assert structural invariants of the
 * models (conservation, monotonicity, boundedness) rather than
 * specific values.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/decode_engine.hh"
#include "core/platform.hh"
#include "core/threshold_calibrator.hh"
#include "llm/trace.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;

PlatformConfig
configByKey(const std::string &key)
{
    if (key == "papi")
        return makePapiConfig();
    if (key == "a100+attacc")
        return makeA100AttAccConfig();
    if (key == "a100+hbm-pim")
        return makeA100HbmPimConfig();
    if (key == "attacc-only")
        return makeAttAccOnlyConfig();
    return makePimOnlyPapiConfig();
}

/** (platform, batch, spec) grid. */
class GridTest
    : public ::testing::TestWithParam<
          std::tuple<const char *, std::uint32_t, std::uint32_t>>
{
  protected:
    RunResult
    run()
    {
        Platform platform(configByKey(std::get<0>(GetParam())));
        llm::TraceGenerator gen(llm::TraceCategory::GeneralQa, 11);
        llm::Batch batch(gen.generate(std::get<1>(GetParam())),
                         model);
        llm::SpeculativeConfig spec;
        spec.length = std::get<2>(GetParam());
        RunOptions opt;
        opt.alpha = 24.0;
        DecodeEngine engine(platform);
        return engine.run(batch, spec, model, opt);
    }

    llm::ModelConfig model = llm::llama65b();
};

TEST_P(GridTest, StructuralInvariantsHold)
{
    RunResult r = run();

    // Time conservation and positivity.
    EXPECT_GT(r.seconds(), 0.0);
    EXPECT_NEAR(r.seconds(),
                r.time.prefillSeconds + r.time.fcSeconds +
                    r.time.attnSeconds + r.time.commSeconds +
                    r.time.otherSeconds,
                1e-12);
    EXPECT_GE(r.time.prefillSeconds, 0.0);
    EXPECT_GT(r.time.fcSeconds, 0.0);
    EXPECT_GT(r.time.attnSeconds, 0.0);
    EXPECT_GT(r.time.commSeconds, 0.0);

    // Iteration accounting.
    EXPECT_EQ(r.fcOnGpuIterations + r.fcOnPimIterations,
              r.iterations);
    EXPECT_GT(r.iterations, 0u);
    EXPECT_GT(r.tokensGenerated, 0u);
    // With full acceptance, tokens <= iterations * batch * spec.
    EXPECT_LE(r.tokensGenerated,
              r.iterations * std::get<1>(GetParam()) *
                  std::get<2>(GetParam()));

    // Energy sanity.
    EXPECT_GT(r.energyJoules, 0.0);
    EXPECT_TRUE(std::isfinite(r.energyJoules));
    // Implied average power within physical bounds for a ~10 kW rack.
    double power = r.energyJoules / r.seconds();
    EXPECT_GT(power, 50.0);
    EXPECT_LT(power, 20000.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, GridTest,
    ::testing::Combine(::testing::Values("papi", "a100+attacc",
                                         "a100+hbm-pim",
                                         "attacc-only",
                                         "pim-only-papi"),
                       ::testing::Values(4u, 32u),
                       ::testing::Values(1u, 4u)));

TEST(GridProperty, DecodeTimeMonotoneInOutputLength)
{
    Platform papi(makePapiConfig());
    llm::ModelConfig model = llm::llama65b();
    DecodeEngine engine(papi);
    double prev = 0.0;
    for (std::uint32_t out : {16u, 64u, 256u}) {
        llm::TraceGenerator gen(llm::TraceCategory::Uniform, 1);
        llm::Batch batch(gen.generateUniform(8, 64, out), model);
        llm::SpeculativeConfig spec;
        RunOptions opt;
        opt.includePrefill = false;
        RunResult r = engine.run(batch, spec, model, opt);
        EXPECT_GT(r.seconds(), prev) << "out=" << out;
        prev = r.seconds();
    }
}

TEST(GridProperty, LargerModelsTakeLonger)
{
    Platform papi(makePapiConfig());
    DecodeEngine engine(papi);
    double prev = 0.0;
    for (const auto &model :
         {llm::llama65b(), llm::gpt3_66b(), llm::gpt3_175b()}) {
        llm::TraceGenerator gen(llm::TraceCategory::Uniform, 1);
        llm::Batch batch(gen.generateUniform(8, 64, 32), model);
        llm::SpeculativeConfig spec;
        RunOptions opt;
        opt.includePrefill = false;
        RunResult r = engine.run(batch, spec, model, opt);
        // 66B ~ 65B is allowed to tie; 175B must clearly dominate.
        EXPECT_GT(r.seconds(), prev * 0.95) << model.name;
        prev = r.seconds();
    }
}

TEST(GridProperty, MoreFcDevicesNeverSlower)
{
    llm::ModelConfig model = llm::llama65b();
    double prev = 1e18;
    for (std::uint32_t devices : {15u, 30u, 60u}) {
        PlatformConfig cfg = makePimOnlyPapiConfig();
        cfg.numFcDevices = devices;
        Platform platform(cfg);
        double t =
            platform.fcExec(model, 4, platform.targetId("fc-pim"))
                .seconds;
        EXPECT_LT(t, prev) << "devices=" << devices;
        prev = t;
    }
}

TEST(GridProperty, MoreAttnDevicesNeverSlower)
{
    llm::ModelConfig model = llm::llama65b();
    std::vector<std::uint32_t> ctx(32, 1024);
    double prev = 1e18;
    for (std::uint32_t devices : {15u, 30u, 60u}) {
        PlatformConfig cfg = makePapiConfig();
        cfg.numAttnDevices = devices;
        Platform platform(cfg);
        KernelExec e = platform.attnExec(model, ctx, 1);
        double gemv = e.seconds - e.commSeconds;
        EXPECT_LE(gemv, prev * 1.001) << "devices=" << devices;
        prev = gemv;
    }
}

TEST(CalibratorEdge, FeeblePimYieldsSubUnityAlpha)
{
    // A PAPI variant with a single weak FC-PIM device: the GPU wins
    // even at tokens = 1, so alpha must mark everything
    // compute-bound (0 < alpha < 1).
    PlatformConfig cfg = makePapiConfig();
    cfg.numFcDevices = 1;
    cfg.fcDeviceConfig.pseudoChannels = 16; // keep capacity adequate
    Platform platform(cfg);
    // Use a model that fits one device: OPT-30B is 59 GB... too big;
    // shrink layer count instead.
    llm::ModelConfig model = llm::opt30b();
    model.numLayers = 12; // ~15 GB of weights
    CalibrationResult cal =
        ThresholdCalibrator::calibrate(platform, model);
    EXPECT_LT(cal.alpha, 1.0);
    EXPECT_GT(cal.alpha, 0.0);
}

TEST(CalibratorEdge, FeebleGpuSaturatesAlpha)
{
    // A PAPI variant with one toy GPU: FC-PIM wins over the whole
    // sweep range and alpha saturates at max_tokens.
    PlatformConfig cfg = makePapiConfig();
    cfg.numGpus = 1;
    cfg.gpuSpec.peakTflopsFp16 = 1.0;
    cfg.gpuSpec.memBandwidthGBs = 50.0;
    Platform platform(cfg);
    CalibrationResult cal = ThresholdCalibrator::calibrate(
        platform, llm::llama65b(), /*max_tokens=*/64);
    EXPECT_DOUBLE_EQ(cal.alpha, 64.0);
}

TEST(CalibratorEdge, AlphaScalesWithGpuCount)
{
    // Fewer GPUs shift the crossover toward PIM (higher alpha is
    // not implied, but the crossover must move monotonically).
    llm::ModelConfig model = llm::llama65b();
    PlatformConfig few = makePapiConfig();
    few.numGpus = 2;
    few.numFcDevices = 12; // ~GPU:PIM device ratio, fits 130 GB
    PlatformConfig many = makePapiConfig();
    double alpha_few =
        ThresholdCalibrator::calibrate(Platform(few), model).alpha;
    double alpha_many =
        ThresholdCalibrator::calibrate(Platform(many), model).alpha;
    // Equal per-GPU PIM, so crossovers match within a factor ~2.
    EXPECT_GT(alpha_few, alpha_many * 0.4);
    EXPECT_LT(alpha_few, alpha_many * 2.5);
}

} // namespace
