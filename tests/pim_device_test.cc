/**
 * @file
 * Tests for data partitioning, the attention engine, and the
 * device-level kernel API.
 */

#include <gtest/gtest.h>

#include "pim/attention_engine.hh"
#include "pim/data_layout.hh"
#include "pim/pim_device.hh"
#include "sim/logging.hh"

namespace {

using namespace papi::pim;
using papi::sim::FatalError;

TEST(DataLayout, WeightsBalanceAcrossBanks)
{
    DataLayout layout(attAccConfig());
    const std::uint64_t total = 1ULL << 30; // 1 GiB
    Partition p = layout.partitionWeights(total, 4);
    EXPECT_EQ(p.devices, 4u);
    EXPECT_EQ(p.totalBanks, 4u * 128u);
    EXPECT_EQ(p.bytesPerBank, total / (4 * 128));
    EXPECT_NEAR(p.imbalance, 1.0, 1e-6);
}

TEST(DataLayout, CapacityOverflowIsFatal)
{
    DataLayout layout(attAccConfig()); // 16 GB per device
    EXPECT_THROW(layout.partitionWeights(40ULL << 30, 2), FatalError);
    EXPECT_NO_THROW(layout.partitionWeights(30ULL << 30, 2));
}

TEST(DataLayout, KvHeadsRoundRobinOverDevices)
{
    DataLayout layout(attnPimConfig());
    // 96 heads over 60 devices: busiest device carries 2 heads.
    Partition p = layout.partitionKvCache(1 << 20, 96, 60);
    EXPECT_EQ(p.bytesPerBank,
              (2ULL << 20) / attnPimConfig().totalBanks());
    EXPECT_GT(p.imbalance, 1.0); // 2 vs 96/60 = 1.6 mean
}

TEST(DataLayout, KvExactDivisionIsBalanced)
{
    DataLayout layout(attnPimConfig());
    Partition p = layout.partitionKvCache(1 << 20, 60, 60);
    EXPECT_NEAR(p.imbalance, 1.0, 1e-9);
}

TEST(DataLayout, ZeroDevicesIsFatal)
{
    DataLayout layout(attAccConfig());
    EXPECT_THROW(layout.partitionWeights(1024, 0), FatalError);
    EXPECT_THROW(layout.partitionKvCache(1024, 8, 0), FatalError);
}

TEST(AttentionEngine, ScalesLinearlyWithKvBytes)
{
    AttentionEngine engine(attnPimConfig());
    AttentionResult small = engine.run(64 * 1024, 1, 1000);
    AttentionResult large = engine.run(256 * 1024, 1, 1000);
    EXPECT_NEAR(large.gemvSeconds / small.gemvSeconds, 4.0, 0.3);
}

TEST(AttentionEngine, SoftmaxChargedSeparately)
{
    AttentionEngine engine(attnPimConfig());
    AttentionResult none = engine.run(64 * 1024, 1, 0);
    AttentionResult some = engine.run(64 * 1024, 1, 10'000'000);
    EXPECT_GT(some.softmaxSeconds, 0.0);
    EXPECT_NEAR(some.seconds - none.seconds, some.softmaxSeconds,
                1e-9);
}

TEST(AttentionEngine, AttnPimSlowerThanAttAccOnAttention)
{
    // Paper Fig. 12: attention runs ~1.7x slower on 1P2B Attn-PIM
    // than on 1P1B AttAcc because the shared FPU halves throughput.
    AttentionEngine attacc(attAccConfig());
    AttentionEngine attn(attnPimConfig());
    double t_attacc = attacc.run(48 * 1024, 1, 0).gemvSeconds;
    double t_attn = attn.run(48 * 1024, 1, 0).gemvSeconds;
    double ratio = t_attn / t_attacc;
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 2.2);
}

TEST(AttentionEngine, ZeroKvIsFree)
{
    AttentionEngine engine(attnPimConfig());
    AttentionResult r = engine.run(0, 4, 0);
    EXPECT_DOUBLE_EQ(r.seconds, 0.0);
}

TEST(AttentionEngine, ZeroTlpIsFatal)
{
    AttentionEngine engine(attnPimConfig());
    EXPECT_THROW(engine.run(1024, 0, 0), FatalError);
}

TEST(PimDevice, FcGemvFasterWithMoreDevices)
{
    PimDevice dev(fcPimConfig());
    const std::uint64_t weights = 64ULL << 30;
    auto r10 = dev.fcGemv(weights, 4, 10);
    auto r30 = dev.fcGemv(weights, 4, 30);
    EXPECT_NEAR(r10.seconds / r30.seconds, 3.0, 0.2);
}

TEST(PimDevice, FcGemvEnergyIndependentOfDeviceCount)
{
    // Energy follows total bytes streamed, not how they spread.
    PimDevice dev(fcPimConfig());
    const std::uint64_t weights = 64ULL << 30;
    auto r10 = dev.fcGemv(weights, 4, 10);
    auto r30 = dev.fcGemv(weights, 4, 30);
    EXPECT_NEAR(r10.energy.total() / r30.energy.total(), 1.0, 0.05);
}

TEST(PimDevice, FcGemvComputeBoundAtHighReuse)
{
    PimDevice dev(fcPimConfig());
    auto lo = dev.fcGemv(12ULL << 30, 2, 30);
    auto hi = dev.fcGemv(12ULL << 30, 128, 30);
    EXPECT_FALSE(lo.computeBound);
    EXPECT_TRUE(hi.computeBound);
    EXPECT_GT(hi.seconds, lo.seconds * 5.0);
}

TEST(PimDevice, AttentionTimeGrowsWithKv)
{
    PimDevice dev(attnPimConfig());
    auto small = dev.attention(1ULL << 30, 64, 1, 1 << 20, 60);
    auto large = dev.attention(4ULL << 30, 64, 1, 1 << 20, 60);
    EXPECT_GT(large.seconds, small.seconds * 2.0);
}

TEST(PimDevice, ZeroDevicesIsFatal)
{
    PimDevice dev(fcPimConfig());
    EXPECT_THROW(dev.fcGemv(1024, 1, 0), FatalError);
    EXPECT_THROW(dev.attention(1024, 8, 1, 0, 0), FatalError);
}

TEST(PimDevice, EnergyBreakdownSumsToTotal)
{
    PimDevice dev(fcPimConfig());
    auto r = dev.fcGemv(12ULL << 30, 8, 30);
    EXPECT_NEAR(r.energy.total(),
                r.energy.dramAccess + r.energy.transfer +
                    r.energy.compute,
                1e-9);
    EXPECT_GT(r.energy.dramAccess, 0.0);
    EXPECT_GT(r.energy.transfer, 0.0);
    EXPECT_GT(r.energy.compute, 0.0);
}

} // namespace
