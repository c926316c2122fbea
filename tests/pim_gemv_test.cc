/**
 * @file
 * Tests for PIM configurations, the area model, and the cycle-level
 * GEMV engine - the mechanisms behind the paper's Sections 6.1/6.2.
 */

#include <gtest/gtest.h>

#include "pim/area_model.hh"
#include "pim/gemv_engine.hh"
#include "pim/pim_config.hh"
#include "sim/logging.hh"

namespace {

using namespace papi::pim;
using papi::sim::FatalError;

TEST(PimConfig, PresetLabelsAndShapes)
{
    EXPECT_EQ(attAccConfig().xPyBLabel(), "1P1B");
    EXPECT_EQ(hbmPimConfig().xPyBLabel(), "1P2B");
    EXPECT_EQ(fcPimConfig().xPyBLabel(), "4P1B");
    EXPECT_EQ(attnPimConfig().xPyBLabel(), "1P2B");
}

TEST(PimConfig, CapacitiesMatchPaper)
{
    // AttAcc / HBM-PIM / Attn-PIM devices: 16 GB. FC-PIM: 12 GB.
    EXPECT_EQ(attAccConfig().capacityBytes(), 16ULL << 30);
    EXPECT_EQ(hbmPimConfig().capacityBytes(), 16ULL << 30);
    EXPECT_EQ(attnPimConfig().capacityBytes(), 16ULL << 30);
    EXPECT_EQ(fcPimConfig().capacityBytes(), 12ULL << 30);
}

TEST(PimConfig, FpuCountsFollowXPyB)
{
    // 1P1B on 128 banks -> 128 FPUs; 1P2B -> 64; 4P1B on 96 -> 384.
    EXPECT_DOUBLE_EQ(attAccConfig().totalFpus(), 128.0);
    EXPECT_DOUBLE_EQ(hbmPimConfig().totalFpus(), 64.0);
    EXPECT_DOUBLE_EQ(fcPimConfig().totalFpus(), 384.0);
    EXPECT_DOUBLE_EQ(attnPimConfig().totalFpus(), 64.0);
}

TEST(PimConfig, FpuPeakFlops)
{
    FpuSpec fpu;
    // 16 lanes x 2 FLOPs x 666 MHz = 21.3 GFLOP/s.
    EXPECT_NEAR(fpu.peakFlops(), 21.3e9, 0.1e9);
}

TEST(AreaModel, PaperEquationThreeReproduced)
{
    AreaModel area;
    // m (n A_FPU + A_bank) <= 121 with n=4 -> m <= 97 (paper: "the
    // maximum number of memory banks must be smaller than 97").
    EXPECT_EQ(area.maxBanksPerDie(4.0), 97u);
    EXPECT_TRUE(area.fits(96, 4.0));
    EXPECT_FALSE(area.fits(98, 4.0));
}

TEST(AreaModel, FewerFpusAllowMoreBanks)
{
    AreaModel area;
    EXPECT_GT(area.maxBanksPerDie(0.5), area.maxBanksPerDie(1.0));
    EXPECT_GT(area.maxBanksPerDie(1.0), area.maxBanksPerDie(4.0));
    // A compute-free die fits floor(121 / 0.83) = 145 banks.
    EXPECT_EQ(area.maxBanksPerDie(0.0), 145u);
}

TEST(AreaModel, UsedAreaIsLinear)
{
    AreaModel area;
    EXPECT_NEAR(area.usedArea(96, 4.0), 96 * (4 * 0.1025 + 0.83),
                1e-9);
    EXPECT_THROW(area.usedArea(1, -1.0), FatalError);
    EXPECT_THROW(AreaModel(0.0, 0.1, 121.0), FatalError);
}

class GemvEngineTest : public ::testing::Test
{
  protected:
    static GemvResult
    run(const PimConfig &cfg, std::uint64_t bytes, std::uint32_t reuse)
    {
        GemvEngine engine(cfg);
        return engine.run(bytes, reuse);
    }
};

TEST_F(GemvEngineTest, ZeroBytesIsFree)
{
    GemvResult r = run(attAccConfig(), 0, 1);
    EXPECT_EQ(r.ticks, 0u);
    EXPECT_EQ(r.activations, 0u);
}

TEST_F(GemvEngineTest, StreamsAllBytes)
{
    const std::uint64_t bytes = 16 * 1024;
    GemvResult r = run(attAccConfig(), bytes, 1);
    EXPECT_EQ(r.streamedBytes, bytes * attAccConfig().dramSpec.org
                                           .banks());
    EXPECT_EQ(r.activations, 16u * attAccConfig().dramSpec.org.banks());
}

TEST_F(GemvEngineTest, FlopsScaleWithReuse)
{
    const std::uint64_t bytes = 8 * 1024;
    GemvResult r1 = run(attAccConfig(), bytes, 1);
    GemvResult r4 = run(attAccConfig(), bytes, 4);
    EXPECT_NEAR(r4.flops, 4.0 * r1.flops, 1.0);
}

TEST_F(GemvEngineTest, TimingAboveAnalyticLowerBound)
{
    GemvEngine engine(fcPimConfig());
    for (std::uint32_t reuse : {1u, 2u, 8u, 32u, 128u}) {
        auto r = engine.run(32 * 1024, reuse);
        EXPECT_GE(r.ticks, engine.analyticLowerBound(32 * 1024, reuse))
            << "reuse=" << reuse;
        // ...but within 2x of it (row overheads only).
        EXPECT_LE(r.ticks,
                  2 * engine.analyticLowerBound(32 * 1024, reuse) +
                      100000)
            << "reuse=" << reuse;
    }
}

TEST_F(GemvEngineTest, MemoryBoundBelowBalancePoint)
{
    // 4P1B: compute matches the streaming cadence around
    // reuse ~= 4 x tCCD_S / tFpuCycle ~= 8; well below that the
    // kernel must be memory-bound and its latency reuse-independent.
    GemvResult r1 = run(fcPimConfig(), 48 * 1024, 1);
    GemvResult r4 = run(fcPimConfig(), 48 * 1024, 4);
    EXPECT_FALSE(r1.computeBound);
    EXPECT_NEAR(static_cast<double>(r4.ticks),
                static_cast<double>(r1.ticks),
                0.05 * static_cast<double>(r1.ticks));
}

TEST_F(GemvEngineTest, ComputeBoundAboveBalancePoint)
{
    GemvResult lo = run(fcPimConfig(), 48 * 1024, 8);
    GemvResult hi = run(fcPimConfig(), 48 * 1024, 64);
    EXPECT_TRUE(hi.computeBound);
    // Beyond the balance point latency grows ~linearly with reuse.
    double ratio = static_cast<double>(hi.ticks) /
                   static_cast<double>(lo.ticks);
    EXPECT_GT(ratio, 4.0);
    EXPECT_LT(ratio, 10.0);
}

TEST_F(GemvEngineTest, MoreFpusPushBalancePointOut)
{
    // At reuse 16, 1P1B is deep into compute-bound territory while
    // 4P1B has 4x the FPU throughput.
    GemvResult attacc = run(attAccConfig(), 48 * 1024, 16);
    GemvResult fcpim = run(fcPimConfig(), 48 * 1024, 16);
    double ratio = static_cast<double>(attacc.ticks) /
                   static_cast<double>(fcpim.ticks);
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 5.0);
}

TEST_F(GemvEngineTest, HalfFpuPerBankIsTwiceSlowerWhenComputeBound)
{
    // 1P2B vs 1P1B on the same bytes at reuse 4: both compute-bound,
    // 1P2B has half the FPU-per-bank throughput.
    GemvResult full = run(attAccConfig(), 48 * 1024, 4);
    GemvResult half = run(hbmPimConfig(), 48 * 1024, 4);
    double ratio = static_cast<double>(half.ticks) /
                   static_cast<double>(full.ticks);
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.4);
}

TEST_F(GemvEngineTest, LinearScalingForLargeShards)
{
    GemvEngine engine(attAccConfig());
    auto small = engine.run(48 * 1024, 2);   // exact path
    auto large = engine.run(480 * 1024, 2);  // scaled path
    double ratio = static_cast<double>(large.ticks) /
                   static_cast<double>(small.ticks);
    EXPECT_NEAR(ratio, 10.0, 0.2);
    EXPECT_EQ(large.activations, 480u *
              attAccConfig().dramSpec.org.banks());
}

TEST_F(GemvEngineTest, PartialTailRowHandled)
{
    GemvEngine engine(attAccConfig());
    // 1.5 rows per bank.
    auto r = engine.run(1536, 1);
    EXPECT_EQ(r.activations, 2u * attAccConfig().dramSpec.org.banks());
    EXPECT_EQ(r.streamedBytes,
              1536u * attAccConfig().dramSpec.org.banks());
}

TEST_F(GemvEngineTest, ResultsAreDeterministic)
{
    GemvEngine a(fcPimConfig());
    GemvEngine b(fcPimConfig());
    auto ra = a.run(37 * 1024 + 96, 7);
    auto rb = b.run(37 * 1024 + 96, 7);
    EXPECT_EQ(ra.ticks, rb.ticks);
    EXPECT_EQ(ra.activations, rb.activations);
    EXPECT_EQ(ra.streamedBytes, rb.streamedBytes);
}

TEST_F(GemvEngineTest, MemoKeepsHugeComputeTimesApart)
{
    // Per-column FPU times above 2^32 ticks (about 4.3 ms) must keep
    // their own memo entries: a warm engine answers every shape
    // exactly as a cold engine does, whatever ran before.
    const PimConfig cfg = attAccConfig();
    GemvEngine warm(cfg);
    ASSERT_GT(warm.computeTicksPerColumn(3000000), 1ULL << 32);
    for (std::uint32_t reuse : {3000000u, 4000000u, 3000001u, 5u}) {
        GemvResult hit = warm.run(1024, reuse);
        GemvResult cold = run(cfg, 1024, reuse);
        EXPECT_EQ(hit.ticks, cold.ticks) << "reuse=" << reuse;
        EXPECT_EQ(hit.activations, cold.activations) << "reuse=" << reuse;
        EXPECT_EQ(hit.streamedBytes, cold.streamedBytes)
            << "reuse=" << reuse;
        EXPECT_EQ(hit.flops, cold.flops) << "reuse=" << reuse;
        EXPECT_EQ(hit.fpuBusyFrac, cold.fpuBusyFrac) << "reuse=" << reuse;
        EXPECT_EQ(hit.computeBound, cold.computeBound)
            << "reuse=" << reuse;
    }
    EXPECT_EQ(warm.run(1024, 4000000).ticks, 192256057538ULL);
}

TEST_F(GemvEngineTest, ZeroReuseIsFatal)
{
    GemvEngine engine(attAccConfig());
    EXPECT_THROW(engine.run(1024, 0), FatalError);
    EXPECT_THROW(engine.computeTicksPerColumn(0), FatalError);
}

/** Property sweep: latency is monotone non-decreasing in reuse. */
class GemvMonotonicity
    : public ::testing::TestWithParam<const char *>
{
  protected:
    static PimConfig
    configFor(const std::string &name)
    {
        if (name == "attacc")
            return attAccConfig();
        if (name == "hbm-pim")
            return hbmPimConfig();
        if (name == "fc-pim")
            return fcPimConfig();
        return attnPimConfig();
    }
};

TEST_P(GemvMonotonicity, LatencyMonotoneInReuse)
{
    GemvEngine engine(configFor(GetParam()));
    std::uint64_t prev = 0;
    for (std::uint32_t reuse = 1; reuse <= 256; reuse *= 2) {
        auto r = engine.run(24 * 1024, reuse);
        EXPECT_GE(r.ticks, prev) << "reuse=" << reuse;
        prev = r.ticks;
    }
}

TEST_P(GemvMonotonicity, LatencyMonotoneInBytes)
{
    GemvEngine engine(configFor(GetParam()));
    std::uint64_t prev = 0;
    for (std::uint64_t kb = 1; kb <= 256; kb *= 4) {
        auto r = engine.run(kb * 1024, 4);
        EXPECT_GT(r.ticks, prev) << "kb=" << kb;
        prev = r.ticks;
    }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, GemvMonotonicity,
                         ::testing::Values("attacc", "hbm-pim",
                                           "fc-pim", "attn-pim"));

} // namespace
