/**
 * @file
 * Tests for platform composition and kernel-phase execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/platform.hh"
#include "llm/model_config.hh"
#include "llm/moe.hh"
#include "sim/logging.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;
using papi::sim::FatalError;

TEST(PlatformFactories, FcDispatchPolicies)
{
    const struct
    {
        PlatformConfig config;
        const char *fcDispatch;
        bool hasGpu;
    } factories[] = {
        {makePapiConfig(), "threshold:fc-pim->gpu", true},
        {makeA100AttAccConfig(), "static:gpu", true},
        {makeA100HbmPimConfig(), "static:gpu", true},
        {makeAttAccOnlyConfig(), "static:fc-pim", false},
        {makePimOnlyPapiConfig(), "static:fc-pim", false},
    };
    for (const auto &f : factories) {
        Platform p(f.config);
        EXPECT_EQ(dispatchPolicyName(p.dispatchPolicy(Phase::Fc)),
                  f.fcDispatch)
            << f.config.name;
        EXPECT_EQ(p.hasGpu(), f.hasGpu) << f.config.name;
    }

    // An unset FC policy resolves to PAPI's threshold rule.
    PlatformConfig unset = makePapiConfig();
    unset.fcDispatch = {};
    EXPECT_EQ(dispatchPolicyName(
                  Platform(unset).dispatchPolicy(Phase::Fc)),
              "threshold:fc-pim->gpu");
}

TEST(PlatformFactories, NinetyHbmDevicesEverywhere)
{
    // Paper Section 7.1: every system has 90 HBM devices, 30 for FC
    // weights and 60 for attention.
    for (const auto &cfg :
         {makePapiConfig(), makeA100AttAccConfig(),
          makeA100HbmPimConfig(), makeAttAccOnlyConfig(),
          makePimOnlyPapiConfig()}) {
        EXPECT_EQ(cfg.numFcDevices, 30u) << cfg.name;
        EXPECT_EQ(cfg.numAttnDevices, 60u) << cfg.name;
    }
}

TEST(PlatformFactories, PapiUsesHybridPim)
{
    PlatformConfig papi = makePapiConfig();
    EXPECT_EQ(papi.fcDeviceConfig.xPyBLabel(), "4P1B");
    EXPECT_EQ(papi.attnDeviceConfig.xPyBLabel(), "1P2B");
    EXPECT_EQ(papi.fcDeviceConfig.capacityBytes(), 12ULL << 30);
}

TEST(Platform, GpulessPlatformRejectsGpuPolicies)
{
    PlatformConfig bad = makeAttAccOnlyConfig();
    bad.fcDispatch = dispatchPolicyFromName("static:gpu");
    EXPECT_THROW(Platform{bad}, FatalError);
}

TEST(Platform, ValidateFitRejectsOversizedModels)
{
    Platform papi(makePapiConfig());
    llm::ModelConfig m = llm::gpt3_175b();
    EXPECT_NO_THROW(papi.validateFit(m, 1ULL << 30));
    // 30 x 12 GB = 360 GB of FC capacity; a 500 GB model must fail.
    llm::ModelConfig huge = m;
    huge.numLayers = 140;
    EXPECT_THROW(papi.validateFit(huge, 1ULL << 30), FatalError);
    // KV capacity is 60 x 16 GB = 960 GB.
    EXPECT_THROW(papi.validateFit(m, 1000ULL << 30), FatalError);
}

TEST(Platform, FcOnPimBeatsGpuAtLowParallelismOnly)
{
    // The premise of the whole paper (Fig. 4): PIM wins the FC
    // kernel at low batch/speculation, the GPU wins at high.
    Platform papi(makePapiConfig());
    llm::ModelConfig m = llm::gpt3_66b();
    const TargetId gpu = papi.targetId("gpu");
    const TargetId pim = papi.targetId("fc-pim");
    double pim_lo = papi.fcExec(m, 2, pim).seconds;
    double gpu_lo = papi.fcExec(m, 2, gpu).seconds;
    EXPECT_LT(pim_lo, gpu_lo);
    double pim_hi = papi.fcExec(m, 256, pim).seconds;
    double gpu_hi = papi.fcExec(m, 256, gpu).seconds;
    EXPECT_LT(gpu_hi, pim_hi);
}

TEST(Platform, FcOnGpuLatencyFlatWhileMemoryBound)
{
    Platform papi(makePapiConfig());
    llm::ModelConfig m = llm::gpt3_66b();
    const TargetId gpu = papi.targetId("gpu");
    double t1 = papi.fcExec(m, 1, gpu).seconds;
    double t64 = papi.fcExec(m, 64, gpu).seconds;
    // Below the roofline ridge (~161), time barely moves.
    EXPECT_LT(t64 / t1, 1.2);
}

TEST(Platform, FcExecRejectsUnsupportedTargets)
{
    Platform baseline(makeA100AttAccConfig());
    llm::ModelConfig m = llm::gpt3_66b();
    // The baseline's FC stacks are plain memory - no PIM execution.
    EXPECT_THROW(baseline.targetId("fc-pim"), FatalError);
    EXPECT_THROW(baseline.fcExec(m, 4, baseline.targetId("attn-pim")),
                 FatalError);
    EXPECT_THROW(baseline.fcExec(m, 0, baseline.targetId("gpu")),
                 FatalError);
}

TEST(Platform, AttentionScalesWithContextAndRequests)
{
    Platform papi(makePapiConfig());
    llm::ModelConfig m = llm::llama65b();
    std::vector<std::uint32_t> short_ctx(4, 128);
    std::vector<std::uint32_t> long_ctx(4, 1024);
    std::vector<std::uint32_t> many_ctx(32, 128);
    // Compare the KV-streaming component; the per-layer fabric
    // latency is a constant floor independent of context size.
    auto gemv_seconds = [&](const std::vector<std::uint32_t> &ctx) {
        KernelExec e = papi.attnExec(m, ctx, 1);
        return e.seconds - e.commSeconds;
    };
    double t_short = gemv_seconds(short_ctx);
    double t_long = gemv_seconds(long_ctx);
    double t_many = gemv_seconds(many_ctx);
    EXPECT_GT(t_long, t_short * 3.0);
    EXPECT_GT(t_many, t_short * 3.0);
    EXPECT_THROW(papi.attnExec(m, {}, 1), FatalError);
}

/**
 * ServingSim's plan memo is keyed on (RLP, tokens, context sum),
 * which is sound only if attention cost depends on the context
 * vector through its sum and count alone. Every vector is costed on
 * a fresh platform, so no memo can answer one shape with another's
 * value: even, one-long-rest-short, and scattered vectors of equal
 * sum and count must cost bitwise the same on every factory
 * platform's attention targets.
 */
TEST(Platform, AttentionDependsOnContextsOnlyThroughSumAndCount)
{
    const llm::ModelConfig m = llm::llama65b();
    std::uint64_t lcg = 0xD1B54A32D192ED03ull;
    auto rnd = [&lcg](std::uint32_t bound) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>((lcg >> 33) % bound);
    };
    const std::vector<std::vector<std::uint32_t>> evens = {
        std::vector<std::uint32_t>(2, 500),
        std::vector<std::uint32_t>(3, 1366),
        std::vector<std::uint32_t>(8, 1001),
        std::vector<std::uint32_t>(16, 2048),
        std::vector<std::uint32_t>(64, 300),
    };
    auto bits = [](const KernelExec &e) {
        return std::vector<std::uint64_t>{
            std::bit_cast<std::uint64_t>(e.seconds),
            std::bit_cast<std::uint64_t>(e.commSeconds),
            std::bit_cast<std::uint64_t>(e.energyJoules),
            std::bit_cast<std::uint64_t>(e.commJoules),
            e.computeBound ? 1u : 0u};
    };
    const PlatformConfig configs[] = {
        makePapiConfig(), makeA100AttAccConfig(),
        makeA100HbmPimConfig(), makeAttAccOnlyConfig(),
        makePimOnlyPapiConfig()};
    for (const PlatformConfig &cfg : configs) {
        const std::vector<TargetId> targets =
            Platform(cfg).targets().supporting(Phase::Attention);
        ASSERT_FALSE(targets.empty()) << cfg.name;
        for (const std::vector<std::uint32_t> &even : evens) {
            const std::size_t n = even.size();
            const std::uint32_t sum = even[0] * n;
            // One long context, the rest a single token each.
            std::vector<std::uint32_t> skewed(n, 1);
            skewed[0] = sum - static_cast<std::uint32_t>(n - 1);
            // Scattered: move random amounts between neighbours.
            std::vector<std::uint32_t> scattered = even;
            for (std::size_t i = 0; i + 1 < n; ++i) {
                const std::uint32_t d = rnd(scattered[i]);
                scattered[i] -= d;
                scattered[i + 1] += d;
            }
            for (TargetId id : targets) {
                for (std::uint32_t tlp : {1u, 4u}) {
                    const auto ref =
                        bits(Platform(cfg).attnExec(m, even, tlp, id));
                    for (const auto *ctx : {&skewed, &scattered}) {
                        EXPECT_EQ(bits(Platform(cfg).attnExec(
                                      m, *ctx, tlp, id)),
                                  ref)
                            << cfg.name << " target " << id << " n "
                            << n << " sum " << sum << " tlp " << tlp;
                    }
                }
            }
        }
    }
}

/** Every field of a KernelExec, doubles as their bit patterns. */
std::vector<std::uint64_t>
execBits(const KernelExec &e)
{
    return {std::bit_cast<std::uint64_t>(e.seconds),
            std::bit_cast<std::uint64_t>(e.commSeconds),
            std::bit_cast<std::uint64_t>(e.energyJoules),
            std::bit_cast<std::uint64_t>(e.commJoules),
            e.computeBound ? 1u : 0u};
}

/**
 * The FC memo is one dense table per (model, target), found by
 * comparing the model's shape fields. Three models of different
 * shape, plus an 8-bit llama65b that differs from it in one field
 * only, are interleaved on one platform, on every FC target, and
 * 512 tokens is asked before 64 so a table grows while the others
 * are in use. Every answer, first ask or repeat, must equal bitwise
 * a cold call on a fresh platform.
 */
TEST(Platform, FcTableKeepsModelsApart)
{
    llm::ModelConfig llama_int8 = llm::llama65b();
    llama_int8.name = "llama-65b-int8";
    llama_int8.bytesPerParam = 1;
    const llm::ModelConfig models[] = {llm::llama65b(), llm::opt30b(),
                                       llm::mixtral8x22b(), llama_int8};
    const std::uint32_t tokens[] = {1, 7, 512, 64};
    for (const PlatformConfig &cfg :
         {makePapiConfig(), makePimOnlyPapiConfig()}) {
        const Platform shared(cfg);
        const std::vector<TargetId> targets =
            shared.targets().supporting(Phase::Fc);
        ASSERT_FALSE(targets.empty()) << cfg.name;
        for (int pass = 0; pass < 2; ++pass) {
            for (std::uint32_t tok : tokens) {
                for (const llm::ModelConfig &m : models) {
                    for (TargetId id : targets) {
                        EXPECT_EQ(
                            execBits(shared.fcExec(m, tok, id)),
                            execBits(Platform(cfg).fcExec(m, tok, id)))
                            << cfg.name << " " << m.name << " target "
                            << id << " tokens " << tok << " pass "
                            << pass;
                    }
                }
            }
        }
    }
}

/**
 * prefillChunkExec keys its memo on aggregates computed straight from
 * the prior/chunk columns, building length vectors only to compute a
 * miss. It must still equal, bitwise, the definition: the prefill of
 * the "after" batch (prior + chunk of each request with a nonzero
 * chunk) minus that of the "before" batch (its nonzero priors), both
 * on the target the prefill dispatcher picks for "after", computed
 * on a fresh platform from explicitly built vectors. Seeded random
 * columns include zero chunks, zero priors and an all-zero chunk;
 * every case runs twice on the platform under test, so the second
 * answer comes from its memo. The oracle prefill policy covers the
 * branch that shows the dispatcher the lengths.
 */
TEST(Platform, PrefillChunkKeysMatchExplicitBatches)
{
    const llm::ModelConfig m = llm::llama65b();
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    auto rnd = [&lcg](std::uint32_t bound) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>((lcg >> 33) % bound);
    };
    struct Case
    {
        std::vector<std::uint32_t> prior, chunk;
    };
    std::vector<Case> cases;
    cases.push_back({{0, 0, 0}, {64, 32, 1}}); // fresh prompts
    cases.push_back({{128, 256}, {0, 0}});     // all-zero chunk
    cases.push_back({{}, {}});                 // empty batch
    // Batches that share a sum, or a sum and a count, and differ in
    // the rest: a key missing an aggregate would answer one with
    // another's cost. A chunk-less request's prior must not count.
    cases.push_back({{50, 150}, {50, 150}});  // after {100, 300}
    cases.push_back({{100, 100}, {100, 100}}); // after {200, 200}
    cases.push_back({{0, 0}, {200, 200}});     // before empty
    cases.push_back({{200}, {200}});           // after {400}
    cases.push_back({{300, 200}, {0, 200}});   // prior 300 idle
    for (int c = 0; c < 40; ++c) {
        const std::size_t n = 1 + rnd(16);
        Case k;
        for (std::size_t i = 0; i < n; ++i) {
            k.prior.push_back(rnd(3) == 0 ? 0 : rnd(2048));
            k.chunk.push_back(rnd(4) == 0 ? 0 : 1 + rnd(256));
        }
        cases.push_back(std::move(k));
    }

    PlatformConfig oracle = makePapiConfig();
    oracle.name = "papi-oracle-prefill";
    oracle.prefillDispatch = dispatchPolicyFromName("oracle:gpu,fc-pim");
    for (const PlatformConfig &cfg :
         {makePapiConfig(), makePimOnlyPapiConfig(), oracle}) {
        const Platform tested(cfg);
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t c = 0; c < cases.size(); ++c) {
                const Case &k = cases[c];
                std::vector<std::uint32_t> after, before;
                for (std::size_t i = 0; i < k.prior.size(); ++i) {
                    if (k.chunk[i] == 0)
                        continue;
                    after.push_back(k.prior[i] + k.chunk[i]);
                    if (k.prior[i] > 0)
                        before.push_back(k.prior[i]);
                }
                KernelExec want;
                if (!after.empty()) {
                    const Platform fresh(cfg);
                    const TargetId target =
                        fresh.dispatcher(Phase::Prefill)
                            .selectPrefill(m, after)
                            .target;
                    want = fresh.prefillExec(m, after, target);
                    if (!before.empty()) {
                        const KernelExec prior =
                            fresh.prefillExec(m, before, target);
                        want.seconds =
                            std::max(want.seconds - prior.seconds, 0.0);
                        want.commSeconds = std::max(
                            want.commSeconds - prior.commSeconds, 0.0);
                        want.energyJoules = std::max(
                            want.energyJoules - prior.energyJoules, 0.0);
                        want.commJoules = std::max(
                            want.commJoules - prior.commJoules, 0.0);
                    }
                }
                EXPECT_EQ(
                    execBits(tested.prefillChunkExec(m, k.prior, k.chunk)),
                    execBits(want))
                    << cfg.name << " case " << c << " pass " << pass;
            }
        }
    }
}

TEST(Platform, HbmPimAttentionSlowerThanAttAcc)
{
    // The only difference between the two baselines is the attention
    // device (1P2B vs 1P1B), so HBM-PIM attention must be slower.
    Platform attacc(makeA100AttAccConfig());
    Platform hbmpim(makeA100HbmPimConfig());
    llm::ModelConfig m = llm::llama65b();
    std::vector<std::uint32_t> ctx(16, 512);
    double t_attacc = attacc.attnExec(m, ctx, 1).seconds;
    double t_hbmpim = hbmpim.attnExec(m, ctx, 1).seconds;
    EXPECT_GT(t_hbmpim, t_attacc);
}

TEST(Platform, PrefillComputeBoundOnGpu)
{
    Platform papi(makePapiConfig());
    llm::ModelConfig m = llm::llama65b();
    std::vector<std::uint32_t> prompts(16, 512);
    KernelExec pre = papi.prefillExec(m, prompts);
    EXPECT_GT(pre.seconds, 0.0);
    EXPECT_TRUE(pre.computeBound);
}

TEST(Platform, PrefillSlowerWithoutGpu)
{
    Platform papi(makePapiConfig());
    Platform pim_only(makePimOnlyPapiConfig());
    llm::ModelConfig m = llm::llama65b();
    std::vector<std::uint32_t> prompts(16, 512);
    double with_gpu = papi.prefillExec(m, prompts).seconds;
    double without = pim_only.prefillExec(m, prompts).seconds;
    EXPECT_GT(without, with_gpu * 2.0);
}

TEST(Platform, CommIncludedInPimFcPhase)
{
    Platform papi(makePapiConfig());
    llm::ModelConfig m = llm::llama65b();
    KernelExec fc = papi.fcExec(m, 4, papi.targetId("fc-pim"));
    EXPECT_GT(fc.commSeconds, 0.0);
    EXPECT_LT(fc.commSeconds, fc.seconds);
    KernelExec at = papi.attnExec(m, {128, 128}, 1);
    EXPECT_GT(at.commSeconds, 0.0);
}

TEST(Platform, GpulessAttentionCommCostsMore)
{
    // Disaggregated PIM with host staging pays two hops per
    // direction.
    Platform papi(makePapiConfig());
    Platform pim_only(makePimOnlyPapiConfig());
    llm::ModelConfig m = llm::llama65b();
    std::vector<std::uint32_t> ctx(8, 256);
    EXPECT_GT(pim_only.attnExec(m, ctx, 1).commSeconds,
              papi.attnExec(m, ctx, 1).commSeconds);
}

TEST(Platform, EnergyPositiveAndFinite)
{
    Platform papi(makePapiConfig());
    llm::ModelConfig m = llm::gpt3_66b();
    for (const char *target : {"gpu", "fc-pim"}) {
        KernelExec e = papi.fcExec(m, 8, papi.targetId(target));
        EXPECT_GT(e.energyJoules, 0.0);
        EXPECT_TRUE(std::isfinite(e.energyJoules));
    }
}

} // namespace
