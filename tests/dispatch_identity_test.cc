/**
 * @file
 * Bit-identity pins for the execution-target refactor, plus unit
 * coverage of the registry/dispatch layer itself.
 *
 * The golden values below were recorded on this repository's
 * pre-refactor engines (the standalone DecodeEngine decode loop and
 * the pre-fold ServingSim) with fixed seeds. The refactor - FC
 * dispatch through the target registry, DecodeEngine as a ServingSim
 * adapter - is only legal if every one of these reproduces
 * byte-for-byte. EXPECT_EQ on doubles is deliberate: the contract is
 * bit identity, not tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/decode_engine.hh"
#include "core/platform.hh"
#include "core/serving_engine.hh"
#include "llm/arrival.hh"
#include "llm/moe.hh"
#include "llm/trace.hh"
#include "sim/logging.hh"

namespace {

using namespace papi;
using namespace papi::core;
using papi::sim::FatalError;

// --------------------------------------------------------------- helpers

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 0x100000001b3ULL;
}

std::uint64_t
bits(double d)
{
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(d));
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/**
 * FNV chain over the schedule trace; pinned pre-refactor. The FC
 * target folds as 0 for the GPU and 1 for any other kind.
 */
std::uint64_t
traceHash(const Platform &platform,
          const std::vector<IterationTrace> &trace)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &t : trace) {
        h = fold(h, t.iteration);
        h = fold(h, t.rlp);
        h = fold(h, t.tlp);
        h = fold(h, bits(t.estimatedAi));
        h = fold(h, platform.targets().at(t.targetId).kind ==
                            TargetKind::Gpu
                        ? 0u
                        : 1u);
        h = fold(h, t.rescheduled ? 1u : 0u);
        h = fold(h, t.eosCount);
        h = fold(h, bits(t.iterationSeconds));
    }
    return h;
}

llm::Batch
makeBatch(const llm::ModelConfig &model, std::uint32_t n,
          std::uint64_t seed)
{
    llm::TraceGenerator gen(llm::TraceCategory::CreativeWriting, seed);
    return llm::Batch(gen.generate(n), model);
}

std::vector<llm::TimedRequest>
makeStream(double rate, std::uint32_t n, std::uint64_t seed)
{
    llm::ArrivalProcess a(llm::TraceCategory::GeneralQa, rate, seed);
    return a.generate(n);
}

RunOptions
decodeOpts()
{
    RunOptions opt;
    opt.alpha = 24.0;
    opt.seed = 7;
    return opt;
}

/** Pre-refactor golden of one DecodeEngine::run. */
struct DecodeGolden
{
    double prefill, fc, attn, comm, other, energy;
    std::uint64_t iters, tokens, fcGpu, fcPim, resched;
};

void
expectRun(const RunResult &r, const DecodeGolden &g)
{
    EXPECT_EQ(r.time.prefillSeconds, g.prefill);
    EXPECT_EQ(r.time.fcSeconds, g.fc);
    EXPECT_EQ(r.time.attnSeconds, g.attn);
    EXPECT_EQ(r.time.commSeconds, g.comm);
    EXPECT_EQ(r.time.otherSeconds, g.other);
    EXPECT_EQ(r.energyJoules, g.energy);
    EXPECT_EQ(r.iterations, g.iters);
    EXPECT_EQ(r.tokensGenerated, g.tokens);
    EXPECT_EQ(r.fcOnGpuIterations, g.fcGpu);
    EXPECT_EQ(r.fcOnPimIterations, g.fcPim);
    EXPECT_EQ(r.reschedules, g.resched);
}

// ------------------------------------------- decode bit-identity pins

TEST(DecodeIdentity, PapiDynamicSerial)
{
    Platform p(makePapiConfig());
    DecodeEngine e(p);
    llm::ModelConfig model = llm::llama65b();
    auto b = makeBatch(model, 24, 42);
    RunResult r = e.run(b, {}, model, decodeOpts());
    expectRun(r, {0.11431112626910868, 6.5988789341719585,
                  0.24034273393779601, 0.58325825706666379,
                  0.061110000000000456, 8541.5040146380816, 873, 9946,
                  0, 873, 0});
    // The adapter drains the caller's batch, as the old loop did.
    EXPECT_TRUE(b.done());
    EXPECT_EQ(b.iterations(), 873u);
    EXPECT_EQ(b.tokensGenerated(), 9946u);
}

TEST(DecodeIdentity, PapiDynamicSpeculativeWithTrace)
{
    Platform p(makePapiConfig());
    DecodeEngine e(p);
    llm::ModelConfig model = llm::llama65b();
    auto b = makeBatch(model, 24, 42);
    llm::SpeculativeConfig spec;
    spec.length = 4;
    spec.acceptanceRate = 0.8;
    spec.draftCostFraction = 0.1;
    RunOptions opt = decodeOpts();
    opt.recordTrace = true;
    RunResult r = e.run(b, spec, model, opt);
    expectRun(r, {0.11431112626910868, 3.566765058693572,
                  0.25409505501084384, 0.18609639253333382,
                  0.42071565062377358, 7017.413006130284, 286, 9946,
                  191, 95, 1});
    ASSERT_EQ(e.trace().size(), 286u);
    EXPECT_EQ(traceHash(p, e.trace()), 0x7f344eb7158f2ce9ULL);
}

TEST(DecodeIdentity, AlwaysGpuPaddedBatch)
{
    // a100+attacc does not track runtime RLP: FC work stays padded
    // to the initial batch size until the drain (Shortcoming 1).
    Platform p(makeA100AttAccConfig());
    DecodeEngine e(p);
    llm::ModelConfig model = llm::llama65b();
    auto b = makeBatch(model, 16, 11);
    llm::SpeculativeConfig spec;
    spec.length = 4;
    spec.acceptanceRate = 0.9;
    RunResult r = e.run(b, spec, model, decodeOpts());
    expectRun(r, {0.076606953648840057, 4.3153483528199601,
                  0.099884890739588644, 0.13744895999999965,
                  0.020090000000000097, 8991.6875293448666, 287, 7568,
                  287, 0, 0});
}

TEST(DecodeIdentity, AttAccOnlyGpuless)
{
    Platform p(makeAttAccOnlyConfig());
    DecodeEngine e(p);
    llm::ModelConfig model = llm::llama65b();
    auto b = makeBatch(model, 8, 3);
    RunResult r = e.run(b, {}, model, decodeOpts());
    expectRun(r, {0.4515624942111201, 8.8734101091260236,
                  0.047415651892978972, 0.92197120000000521,
                  0.048580000000000345, 5574.3249507707005, 694, 3026,
                  0, 694, 0});
}

TEST(DecodeIdentity, OraclePolicy)
{
    PlatformConfig cfg = makePapiConfig();
    cfg.fcDispatch = dispatchPolicyFromName("oracle:gpu,fc-pim");
    Platform p(cfg);
    DecodeEngine e(p);
    llm::ModelConfig model = llm::llama65b();
    auto b = makeBatch(model, 24, 42);
    llm::SpeculativeConfig spec;
    spec.length = 2;
    RunResult r = e.run(b, spec, model, decodeOpts());
    expectRun(r, {0.11431112626910868, 4.502061857767095,
                  0.20295386962284395, 0.2779705343999998,
                  0.03059000000000019, 7169.2293935453945, 437, 9946,
                  145, 292, 0});
}

TEST(DecodeIdentity, PhaseOverlapHiding)
{
    PlatformConfig cfg = makePapiConfig();
    cfg.phaseOverlapFraction = 0.5;
    Platform p(cfg);
    DecodeEngine e(p);
    llm::ModelConfig model = llm::llama65b();
    auto b = makeBatch(model, 24, 42);
    llm::SpeculativeConfig spec;
    spec.length = 4;
    spec.acceptanceRate = 0.8;
    spec.draftCostFraction = 0.1;
    RunOptions opt = decodeOpts();
    opt.recordTrace = true;
    RunResult r = e.run(b, spec, model, opt);
    expectRun(r, {0.11431112626910868, 3.566765058693572,
                  0.053145139746876881, 0.18098950029187888,
                  0.42071565062377358, 7017.413006130284, 286, 9946,
                  191, 95, 1});
    EXPECT_EQ(traceHash(p, e.trace()), 0x312b3edabbfc0afeULL);
}

TEST(DecodeIdentity, MoeEstimatorPath)
{
    Platform p(makePapiConfig());
    DecodeEngine e(p);
    llm::ModelConfig moe = llm::mixtral8x22b();
    auto b = makeBatch(moe, 24, 42);
    RunResult r = e.run(b, {}, moe, decodeOpts());
    expectRun(r, {0.073890796562051275, 7.3008439845840556,
                  0.08528753590552858, 0.39176458495999927,
                  0.050634000000000665, 12029.729531821558, 873, 9946,
                  0, 873, 0});
}

TEST(DecodeIdentity, PrefillExcluded)
{
    Platform p(makePapiConfig());
    DecodeEngine e(p);
    llm::ModelConfig model = llm::llama65b();
    auto b = makeBatch(model, 24, 42);
    RunOptions opt = decodeOpts();
    opt.includePrefill = false;
    RunResult r = e.run(b, {}, model, opt);
    expectRun(r, {0.0, 6.5988789341719585, 0.24034273393779601,
                  0.58325825706666379, 0.061110000000000456,
                  8318.1404315921191, 873, 9946, 0, 873, 0});
}

TEST(DecodeIdentity, PimOnlyPapi)
{
    Platform p(makePimOnlyPapiConfig());
    DecodeEngine e(p);
    llm::ModelConfig model = llm::llama65b();
    auto b = makeBatch(model, 8, 3);
    RunResult r = e.run(b, {}, model, decodeOpts());
    expectRun(r, {0.15952685672012012, 3.6261698803240305,
                  0.065727380838978999, 0.92197120000000521,
                  0.048580000000000345, 5726.3876283510454, 694, 3026,
                  0, 694, 0});
}

// ------------------------------------------ serving bit-identity pins

/** Pre-refactor golden of one ServingEngine::run. */
struct ServingGolden
{
    double makespan, energy;
    std::uint64_t iters, tokens, admits, resched, reschedGpu, fcGpu,
        fcPim;
    double meanLat, p95Lat, meanRlp, peakKv;
};

void
expectServing(const ServingResult &r, const ServingGolden &g)
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
}

ServingOptions
servingOpts()
{
    ServingOptions opt;
    opt.maxRlp = 16;
    opt.alpha = 24.0;
    opt.seed = 7;
    return opt;
}

TEST(ServingIdentity, PapiDynamicTokenLevel)
{
    Platform p(makePapiConfig());
    llm::SpeculativeConfig spec;
    spec.length = 4;
    ServingResult r = ServingEngine(p).run(
        makeStream(50.0, 32, 5), spec, llm::llama65b(),
        servingOpts());
    expectServing(r, {1.5103677628012815, 2705.2280352275234, 108,
                      2844, 32, 2, 1, 43, 65, 0.56024034049714799,
                      0.95274004536641876, 6.9265199086172231,
                      0.0087612061939690306});
}

TEST(ServingIdentity, PapiBatchLevelWithTimeout)
{
    Platform p(makePapiConfig());
    ServingOptions opt = servingOpts();
    opt.admission = AdmissionPolicy::BatchLevel;
    opt.maxRlp = 8;
    opt.batchTimeoutSeconds = 0.2;
    ServingResult r = ServingEngine(p).run(
        makeStream(100.0, 24, 9), {}, llm::llama65b(), opt);
    expectServing(r, {2.7835738047800249, 3969.5641808331661, 493,
                      1848, 24, 0, 0, 0, 493, 1.2993966003758488,
                      2.0088269701692743, 3.7828049006229878,
                      0.0043602281988590055});
}

TEST(ServingIdentity, AlwaysGpuBaseline)
{
    Platform p(makeA100AttAccConfig());
    ServingResult r = ServingEngine(p).run(
        makeStream(30.0, 24, 5), {}, llm::llama65b(), servingOpts());
    expectServing(r, {5.8490380431876154, 9237.8313155000724, 380,
                      2286, 24, 0, 0, 380, 0, 1.7630390282356332,
                      3.257981504059146, 5.7327096237278132,
                      0.0087612061939690306});
}

TEST(ServingIdentity, OracleServing)
{
    PlatformConfig cfg = makePapiConfig();
    cfg.fcDispatch = dispatchPolicyFromName("oracle:gpu,fc-pim");
    Platform p(cfg);
    ServingResult r = ServingEngine(p).run(
        makeStream(50.0, 32, 5), {}, llm::llama65b(), servingOpts());
    expectServing(r, {2.9718636305145929, 4198.5712460174782, 387,
                      2844, 32, 0, 0, 0, 387, 1.2455505517142798,
                      1.9678599239712988, 8.0146196224720736,
                      0.0087612061939690306});
}

TEST(ServingIdentity, MoeServing)
{
    // The serving scheduler deliberately uses the dense RLP x TLP
    // estimate even for MoE models (the pre-fold behaviour).
    Platform p(makePapiConfig());
    ServingResult r = ServingEngine(p).run(
        makeStream(20.0, 16, 5), {}, llm::mixtral8x22b(),
        servingOpts());
    expectServing(r, {1.8247605431879799, 3025.9844282042418, 224,
                      1286, 16, 0, 0, 0, 224, 0.90264985518392438,
                      1.2457758833665524, 5.7424818701728642,
                      0.0039102564102564104});
}

TEST(ServingIdentity, AttAccOnlyServing)
{
    Platform p(makeAttAccOnlyConfig());
    ServingResult r = ServingEngine(p).run(
        makeStream(10.0, 12, 5), {}, llm::llama65b(), servingOpts());
    expectServing(r, {3.651411965042568, 1580.1713893550441, 169,
                      1005, 12, 0, 0, 0, 169, 2.5456927729775471,
                      3.1681508218596459, 4.6019103057202351,
                      0.005460472697636512});
}

// ------------------------------------------------ registry mechanics

TEST(TargetRegistry, PlatformRegistersItsResources)
{
    Platform papi(makePapiConfig());
    EXPECT_EQ(papi.targets().size(), 3u);
    EXPECT_EQ(papi.targets().at(papi.targetId("gpu")).kind,
              TargetKind::Gpu);
    EXPECT_EQ(papi.targets().at(papi.targetId("fc-pim")).kind,
              TargetKind::FcPim);
    EXPECT_EQ(papi.targets().at(papi.targetId("attn-pim")).kind,
              TargetKind::AttnPim);
    EXPECT_THROW(papi.targetId("tpu"), FatalError);

    // No near-bank FC compute -> no fc-pim target.
    Platform baseline(makeA100AttAccConfig());
    EXPECT_EQ(baseline.targets().size(), 2u);
    EXPECT_FALSE(baseline.targets().find("fc-pim").has_value());

    // GPU-less -> no gpu target.
    Platform pim(makeAttAccOnlyConfig());
    EXPECT_EQ(pim.targets().size(), 2u);
    EXPECT_FALSE(pim.targets().find("gpu").has_value());
}

TEST(TargetRegistry, PhaseSupportAndLookup)
{
    Platform papi(makePapiConfig());
    const TargetRegistry &reg = papi.targets();
    auto fc_capable = reg.supporting(Phase::Fc);
    ASSERT_EQ(fc_capable.size(), 2u);
    EXPECT_EQ(reg.at(fc_capable[0]).name, "gpu");
    EXPECT_EQ(reg.at(fc_capable[1]).name, "fc-pim");
    auto attn_capable = reg.supporting(Phase::Attention);
    ASSERT_EQ(attn_capable.size(), 1u);
    EXPECT_EQ(reg.at(attn_capable[0]).name, "attn-pim");
    EXPECT_EQ(reg.firstOfKind(TargetKind::FcPim),
              reg.find("fc-pim"));
    EXPECT_THROW(reg.at(99), FatalError);
}

TEST(TargetRegistry, RejectsDuplicateAndEmptyNames)
{
    TargetRegistry reg;
    ExecTarget t;
    t.name = "x";
    reg.add(t);
    EXPECT_THROW(reg.add(t), FatalError);
    ExecTarget empty;
    EXPECT_THROW(reg.add(empty), FatalError);
}

// ------------------------------------------------ dispatch mechanics

TEST(Dispatch, PlatformResolvesPerPhasePolicies)
{
    Platform papi(makePapiConfig());
    EXPECT_EQ(dispatchPolicyName(papi.dispatchPolicy(Phase::Fc)),
              "threshold:fc-pim->gpu");
    EXPECT_EQ(dispatchPolicyName(
                  papi.dispatchPolicy(Phase::Attention)),
              "static:attn-pim");
    EXPECT_EQ(dispatchPolicyName(papi.dispatchPolicy(Phase::Prefill)),
              "static:gpu");

    Platform pim(makeAttAccOnlyConfig());
    EXPECT_EQ(dispatchPolicyName(pim.dispatchPolicy(Phase::Fc)),
              "static:fc-pim");
    EXPECT_EQ(dispatchPolicyName(pim.dispatchPolicy(Phase::Prefill)),
              "static:fc-pim");
}

TEST(Dispatch, ThresholdDispatcherMatchesScheduler)
{
    Platform papi(makePapiConfig());
    llm::ModelConfig m = llm::llama65b();
    PhaseDispatcher d = papi.dispatcher(Phase::Fc, 24.0);
    TargetPair pair = d.pair();
    EXPECT_EQ(pair.below, papi.targetId("fc-pim"));
    EXPECT_EQ(pair.above, papi.targetId("gpu"));
    EXPECT_EQ(d.select(m, 64, 1, 64).target, pair.above);
    EXPECT_EQ(d.select(m, 8, 2, 16).target, pair.below);
    EXPECT_DOUBLE_EQ(d.select(m, 8, 2, 16).estimatedAi, 16.0);
    // RLP decaying onto alpha moves FC to PIM: only estimates
    // strictly greater than alpha are compute-bound.
    EXPECT_EQ(d.select(m, 25, 1, 25).target, pair.above);
    EXPECT_EQ(d.select(m, 24, 1, 24).target, pair.below);
    // At fixed RLP, raising the speculation length flips the pick.
    EXPECT_EQ(d.select(m, 8, 1, 8).target, pair.below);
    DispatchDecision raised = d.select(m, 8, 4, 32);
    EXPECT_EQ(raised.target, pair.above);
    EXPECT_DOUBLE_EQ(raised.estimatedAi, 32.0);

    // The rule is pair-agnostic: a reversed pair swaps the sides.
    PlatformConfig cfg = makePapiConfig();
    cfg.fcDispatch = dispatchPolicyFromName("threshold:gpu->fc-pim");
    Platform reversed(cfg);
    PhaseDispatcher r = reversed.dispatcher(Phase::Fc, 24.0);
    EXPECT_EQ(r.pair().below, reversed.targetId("gpu"));
    EXPECT_EQ(r.pair().above, reversed.targetId("fc-pim"));
    EXPECT_EQ(r.select(m, 64, 1, 64).target,
              reversed.targetId("fc-pim"));
    EXPECT_EQ(r.select(m, 8, 2, 16).target, reversed.targetId("gpu"));
}

TEST(Dispatch, OracleRacesCandidates)
{
    PlatformConfig cfg = makePapiConfig();
    cfg.fcDispatch = dispatchPolicyFromName("oracle:gpu,fc-pim");
    Platform p(cfg);
    llm::ModelConfig m = llm::llama65b();
    PhaseDispatcher d = p.dispatcher(Phase::Fc);
    // Small token counts are memory-bound: PIM wins. Large counts
    // are compute-bound: GPU wins.
    TargetId lo = d.select(m, 2, 1, 2).target;
    TargetId hi = d.select(m, 256, 1, 256).target;
    EXPECT_EQ(lo, p.targetId("fc-pim"));
    EXPECT_EQ(hi, p.targetId("gpu"));
    // The race agrees with the raw cost model.
    EXPECT_LE(p.fcExec(m, 2, lo).seconds,
              p.fcExec(m, 2, p.targetId("gpu")).seconds);
}

TEST(Dispatch, InvalidPoliciesAreConstructionErrors)
{
    // Unknown target name.
    {
        PlatformConfig cfg = makePapiConfig();
        cfg.fcDispatch = staticDispatch("tpu");
        EXPECT_THROW(Platform{cfg}, FatalError);
    }
    // Target that cannot run the phase.
    {
        PlatformConfig cfg = makePapiConfig();
        cfg.fcDispatch = staticDispatch("attn-pim");
        EXPECT_THROW(Platform{cfg}, FatalError);
    }
    // Threshold pair must be two distinct targets.
    {
        PlatformConfig cfg = makePapiConfig();
        cfg.fcDispatch = thresholdDispatch("gpu", "gpu");
        EXPECT_THROW(Platform{cfg}, FatalError);
    }
    // GPU-less platform cannot pin FC to the GPU.
    {
        PlatformConfig cfg = makeAttAccOnlyConfig();
        cfg.fcDispatch = staticDispatch("gpu");
        EXPECT_THROW(Platform{cfg}, FatalError);
    }
    // Oracle needs two or more candidates to race.
    {
        PlatformConfig cfg = makePapiConfig();
        cfg.fcDispatch = oracleDispatch({"gpu"});
        EXPECT_THROW(Platform{cfg}, FatalError);
    }
    // Threshold is fc-only: no runtime alpha is plumbed for the
    // other phases, so a threshold prefill/attention policy would
    // silently degrade to a static pin.
    {
        PlatformConfig cfg = makePapiConfig();
        cfg.prefillDispatch = thresholdDispatch("fc-pim", "gpu");
        EXPECT_THROW(Platform{cfg}, FatalError);
    }
}

TEST(Dispatch, OracleAttentionAndPrefillArePerPhase)
{
    // The per-phase layer is real beyond FC: prefill can race its
    // capable targets (gpu vs the PIM path) through the registry.
    PlatformConfig cfg = makePapiConfig();
    cfg.prefillDispatch = oracleDispatch({"gpu", "fc-pim"});
    Platform p(cfg);
    llm::ModelConfig m = llm::llama65b();
    std::vector<std::uint32_t> lens = {64, 128, 256};
    KernelExec oracle_pre = p.prefillExec(m, lens);
    double gpu_s = p.prefillExec(m, lens, p.targetId("gpu")).seconds;
    double pim_s =
        p.prefillExec(m, lens, p.targetId("fc-pim")).seconds;
    EXPECT_EQ(oracle_pre.seconds, std::min(gpu_s, pim_s));
}

TEST(Dispatch, BreakdownStaysInChargedUnitsUnderTpCostModel)
{
    // With a non-trivial tensor-parallel cost model the charged
    // iteration time is scaled; the per-component breakdown must be
    // in the same units so it still sums to the busy time, with
    // monolithic and with chunked prefill.
    Platform p(makePapiConfig());
    llm::ModelConfig model = llm::llama65b();
    IterationCostModel cost;
    cost.computeScale = 2.0;
    cost.extraSeconds = [](std::uint32_t) { return 1.0e-4; };
    for (std::uint32_t chunk : {0u, 64u}) {
        SCOPED_TRACE("prefillChunkTokens=" + std::to_string(chunk));
        ServingOptions opt;
        opt.maxRlp = 8;
        opt.alpha = 24.0;
        opt.prefillChunkTokens = chunk;
        ServingSim sim(p, {}, model, opt, cost);
        for (const auto &tr : makeStream(100.0, 8, 5))
            sim.deliver(tr);
        while (sim.canStep())
            sim.step();
        sim.finish();
        EXPECT_NEAR(sim.breakdown().totalSeconds(), sim.busySeconds(),
                    sim.busySeconds() * 1e-12);
    }
}

TEST(Dispatch, ExplicitThresholdPolicyRunsEndToEnd)
{
    // A threshold policy built with thresholdDispatch drives a full
    // serving run and reschedules.
    PlatformConfig cfg = makePapiConfig();
    cfg.fcDispatch = thresholdDispatch("fc-pim", "gpu");
    Platform p(cfg);
    llm::SpeculativeConfig spec;
    spec.length = 4;
    ServingOptions opt;
    opt.maxRlp = 16;
    opt.alpha = 24.0;
    opt.seed = 7;
    ServingResult r = ServingEngine(p).run(
        makeStream(50.0, 32, 5), spec, llm::llama65b(), opt);
    EXPECT_GT(r.fcOnGpuIterations, 0u);
    EXPECT_GT(r.fcOnPimIterations, 0u);
    EXPECT_GT(r.reschedules, 0u);
}

} // namespace
