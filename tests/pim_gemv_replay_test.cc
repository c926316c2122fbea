/**
 * @file
 * Pins and a randomized differential for the GEMV command-stream
 * replay (pim::GemvEngine::runExact).
 *
 * The replay must issue every DRAM command on the tick the global
 * earliest-first scan over all banks would pick, and record the trace
 * in that scan's order. Two checks hold it there:
 *
 *  - PresetGridDigests: FNV-1a digests of every GemvResult field and
 *    of every recorded trace over a grid of the four paper presets,
 *    reuse levels and shard sizes (exact, partial-row and scaled
 *    paths). The digests were recorded from the global-scan replay
 *    and must never be re-recorded to make a change pass.
 *  - RandomSpecsMatchGlobalScan: a seeded sweep over random DRAM
 *    organizations, timings (zeros included), xPyB shapes, shard
 *    sizes and reuse levels, comparing the engine against the
 *    test-local global scan (gemv_replay_oracle.hh), field by field
 *    and command by command, with and without the memo.
 *
 * GemvReplayWork pins the replay's work counters (pim::GemvWork).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "gemv_replay_oracle.hh"
#include "pim/gemv_engine.hh"
#include "pim/pim_config.hh"

namespace {

using namespace papi::pim;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

void
fnvMix(std::uint64_t &h, double v)
{
    fnvMix(h, std::bit_cast<std::uint64_t>(v));
}

void
mixResult(std::uint64_t &h, const GemvResult &r)
{
    fnvMix(h, r.ticks);
    fnvMix(h, r.activations);
    fnvMix(h, r.streamedBytes);
    fnvMix(h, r.flops);
    fnvMix(h, r.fpuBusyFrac);
    fnvMix(h, static_cast<std::uint64_t>(r.computeBound));
}

void
mixTrace(std::uint64_t &h, const CommandTrace &trace)
{
    fnvMix(h, static_cast<std::uint64_t>(trace.size()));
    for (const TraceEntry &e : trace) {
        fnvMix(h, e.tick);
        fnvMix(h, static_cast<std::uint64_t>(e.command.type));
        fnvMix(h, static_cast<std::uint64_t>(e.command.coord.bankGroup));
        fnvMix(h, static_cast<std::uint64_t>(e.command.coord.bank));
        fnvMix(h, static_cast<std::uint64_t>(e.command.coord.row));
        fnvMix(h, static_cast<std::uint64_t>(e.command.coord.column));
    }
}

PimConfig
presetFor(const std::string &name)
{
    if (name == "attacc")
        return attAccConfig();
    if (name == "hbm-pim")
        return hbmPimConfig();
    if (name == "fc-pim")
        return fcPimConfig();
    if (name == "attn-pim")
        return attnPimConfig();
    ADD_FAILURE() << "unknown PIM preset '" << name << "'";
    return PimConfig{};
}

struct PresetDigests
{
    const char *preset;
    std::uint64_t results; ///< Memoized run() over the whole grid.
    std::uint64_t traces;  ///< Traced fresh replays over the grid.
};

TEST(GemvReplayPins, PresetGridDigests)
{
    // Recorded from the global earliest-first scan. attn-pim shares
    // hbm-pim's 1P2B shape and HBM3 timing, so its digests match.
    const PresetDigests pins[] = {
        {"attacc", 0x7bd6f64f59b22684ULL, 0x2c715cbee800c479ULL},
        {"hbm-pim", 0x8466ac12a9971fe3ULL, 0xc0418f60da5d6311ULL},
        {"fc-pim", 0x73b932771cf3ed6aULL, 0x23eb0e34123b62ccULL},
        {"attn-pim", 0x8466ac12a9971fe3ULL, 0xc0418f60da5d6311ULL},
    };
    const std::uint32_t reuses[] = {1, 2, 4, 5, 8, 17, 64, 640};
    const std::uint64_t sizes[] = {1,    32,    1000,  1024,
                                   5000, 16384, 16385, 1ULL << 30};

    for (const PresetDigests &pin : pins) {
        const PimConfig cfg = presetFor(pin.preset);
        GemvEngine memoized(cfg);
        std::uint64_t results = kFnvOffset;
        std::uint64_t traces = kFnvOffset;
        for (std::uint32_t reuse : reuses) {
            for (std::uint64_t bytes : sizes) {
                mixResult(results, memoized.run(bytes, reuse));

                GemvEngine fresh(cfg);
                CommandTrace trace;
                fresh.setTraceRecorder(&trace);
                mixResult(traces, fresh.run(bytes, reuse));
                mixTrace(traces, trace);
            }
        }
        EXPECT_EQ(results, pin.results) << pin.preset;
        EXPECT_EQ(traces, pin.traces) << pin.preset;
    }
}

TEST(GemvReplayDifferential, RandomSpecsMatchGlobalScan)
{
    test::expectRandomSpecsMatchGlobalScan(0x9e3779b9ULL, 2000);
}

/**
 * A cold 16-row replay is one replay making 2,174 PseudoChannel calls
 * (2,020 for attn-pim at reuse 64, where the FPU-bound banks reorder
 * the ACT/PRE merge): only ACT and PRE reach the channel, and each
 * PIM_MAC burst goes to its bank at once. A memo hit adds nothing; a
 * traced run replays.
 */
TEST(GemvReplayWork, ColdSixteenRowReplayCounts)
{
    struct Pin
    {
        const char *preset;
        std::uint32_t reuse;
        std::uint64_t channelCalls;
    };
    const Pin pins[] = {
        {"fc-pim", 1, 2174},   {"fc-pim", 4, 2174},
        {"fc-pim", 64, 2174},  {"attn-pim", 1, 2174},
        {"attn-pim", 4, 2174}, {"attn-pim", 64, 2020},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(pin.preset) + " reuse " +
                     std::to_string(pin.reuse));
        const PimConfig cfg = presetFor(pin.preset);
        const std::uint64_t bytes = 16ULL * cfg.dramSpec.org.rowBytes;
        GemvEngine engine(cfg);
        EXPECT_EQ(engine.work().replays, 0u);
        EXPECT_EQ(engine.work().channelCalls, 0u);

        engine.run(bytes, pin.reuse);
        EXPECT_EQ(engine.work().replays, 1u);
        EXPECT_EQ(engine.work().channelCalls, pin.channelCalls);

        engine.run(bytes, pin.reuse); // memo hit
        EXPECT_EQ(engine.work().replays, 1u);
        EXPECT_EQ(engine.work().channelCalls, pin.channelCalls);

        CommandTrace trace;
        engine.setTraceRecorder(&trace);
        engine.run(bytes, pin.reuse); // traced runs bypass the memo
        EXPECT_EQ(engine.work().replays, 2u);
        EXPECT_EQ(engine.work().channelCalls, 2 * pin.channelCalls);
    }
}

} // namespace
