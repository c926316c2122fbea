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
 * MacBurstClosedForm compares pim::timeMacBurst, the closed-form
 * PIM_MAC burst, with a test-local column-by-column loop over every
 * regime and boundary. GemvReplayWork pins the replay's work
 * counters (pim::GemvWork).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "gemv_replay_oracle.hh"
#include "pim/gemv_engine.hh"
#include "pim/pim_config.hh"
#include "sim/rng.hh"

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

// ------------------------------------------------------------------
// The closed-form burst against the column-by-column recurrence.

using papi::dram::Command;
using papi::dram::CommandType;
using papi::sim::Tick;

/** The per-column loop timeMacBurst replaces: each PIM_MAC issues at
 *  max(previous + S, FPU gate) and its data starts at max(arrival,
 *  FPU ready). */
MacBurstTiming
columnByColumn(const MacCadence &k, Tick first, Tick fpu_ready,
               std::uint64_t columns, CommandTrace &trace,
               const Command &mac)
{
    const Tick pipe = k.latency + 4 * k.compute;
    MacBurstTiming out;
    Tick tick = first;
    for (std::uint64_t i = 0; i < columns; ++i) {
        if (i > 0) {
            const Tick gate = fpu_ready > pipe ? fpu_ready - pipe : 0;
            const Tick next = std::max(tick + k.ccd, gate);
            out.minGap = std::min(out.minGap, next - tick);
            tick = next;
        }
        trace.push_back(TraceEntry{tick, mac});
        const Tick data = tick + k.latency;
        const Tick start = std::max(data, fpu_ready);
        out.stalledColumns += start > data ? 1 : 0;
        fpu_ready = start + k.compute;
    }
    out.last = tick;
    out.fpuReadyAt = fpu_ready;
    return out;
}

/** Maximal runs of equal spacing in @p trace, column 0 counted as
 *  one: a lower bound on the runs the closed form steps. */
std::uint64_t
evenRuns(const CommandTrace &trace)
{
    std::uint64_t runs = 1;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        const Tick gap = trace[i].tick - trace[i - 1].tick;
        if (i == 1 || gap != trace[i - 1].tick - trace[i - 2].tick)
            ++runs;
    }
    return runs;
}

/** Compare timeMacBurst with columnByColumn on one burst, traced and
 *  untraced. Returns the closed form's runs. */
std::uint64_t
expectBurstMatches(const MacCadence &k, Tick first, Tick fpu_ready,
                   std::uint64_t columns)
{
    Command mac;
    mac.type = CommandType::PimMac;
    mac.coord.row = 3;
    CommandTrace want_trace;
    const MacBurstTiming want =
        columnByColumn(k, first, fpu_ready, columns, want_trace, mac);
    CommandTrace got_trace;
    const MacBurstTiming got =
        timeMacBurst(k, first, fpu_ready, columns, &got_trace, mac);
    const MacBurstTiming untraced =
        timeMacBurst(k, first, fpu_ready, columns);

    auto same = [](const MacBurstTiming &x, const MacBurstTiming &y) {
        return x.last == y.last && x.minGap == y.minGap &&
               x.stalledColumns == y.stalledColumns &&
               x.fpuReadyAt == y.fpuReadyAt;
    };
    bool trace_ok = got_trace.size() == want_trace.size();
    for (std::size_t i = 0; trace_ok && i < want_trace.size(); ++i) {
        trace_ok = got_trace[i].tick == want_trace[i].tick &&
                   got_trace[i].command.type == CommandType::PimMac &&
                   got_trace[i].command.coord.row == 3;
    }
    if (!same(got, want) || !same(untraced, got) ||
        untraced.runs != got.runs || got.runs > 4 ||
        got.runs < evenRuns(want_trace) || !trace_ok) {
        ADD_FAILURE() << "S=" << k.ccd << " L=" << k.latency
                      << " C=" << k.compute << " first=" << first
                      << " fpuReady=" << fpu_ready
                      << " columns=" << columns << ": last " << got.last
                      << " vs " << want.last << ", min gap "
                      << got.minGap << " vs " << want.minGap
                      << ", stalled " << got.stalledColumns << " vs "
                      << want.stalledColumns << ", FPU ready "
                      << got.fpuReadyAt << " vs " << want.fpuReadyAt
                      << ", runs " << got.runs << " (untraced "
                      << untraced.runs << ", even runs "
                      << evenRuns(want_trace) << "), trace "
                      << (trace_ok ? "equal" : "differs");
    }
    return got.runs;
}

/**
 * Every small cadence exhaustively: S 0-6 and C 0-9 cover C < S,
 * C = S, C = S + 1 (the longest middle run) and C > S, including
 * zeros. The carried FPU-ready tick sweeps the backlog
 * e0 - C from below the data arrival through, onto and past both
 * regime edges (e0 = S and e0 = S + 4C), and every burst length
 * 1-64 (one column, partial rows, two full 32-column rows) runs at
 * each. Every run count from 1 to 4 must occur.
 */
TEST(MacBurstClosedForm, SmallCadencesExhaustive)
{
    std::uint64_t bursts_with_runs[5] = {};
    for (Tick s = 0; s <= 6; ++s) {
        for (Tick c = 0; c <= 9; ++c) {
            const MacCadence k{s, 7, c};
            const Tick first = 100;
            const Tick data = first + k.latency;
            for (Tick backlog = 0; backlog <= s + 5 * c + 3; ++backlog) {
                for (std::uint64_t cols = 1; cols <= 64; ++cols) {
                    const std::uint64_t runs =
                        expectBurstMatches(k, first, data + backlog, cols);
                    ++bursts_with_runs[std::min<std::uint64_t>(runs, 4)];
                    if (backlog == 0)
                        expectBurstMatches(k, first, data / 2, cols);
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
    for (std::uint64_t runs = 1; runs <= 4; ++runs)
        EXPECT_GT(bursts_with_runs[runs], 0u) << runs << " runs";
}

/** Seeded sweep over realistic picosecond cadences (HBM-like S and
 *  L, FPU service up to 64 reuse levels) with carried ticks below,
 *  inside, on the edges of and above (S, S + 4C]. */
TEST(MacBurstClosedForm, RandomCadencesMatchColumnLoop)
{
    papi::sim::Rng rng(0x6d616362ULL);
    auto draw = [&rng](Tick lo, Tick hi) {
        return static_cast<Tick>(rng.uniformInt(
            static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
    };
    for (int i = 0; i < 20000; ++i) {
        const Tick s = draw(0, 4000);
        Tick c = 0;
        switch (rng.uniformInt(0, 3)) {
          case 0:
            c = s > 0 ? draw(0, s - 1) : 0; // C < S
            break;
          case 1:
            c = s + draw(0, 1); // C = S and C = S + 1
            break;
          default:
            c = draw(0, 40000);
            break;
        }
        const MacCadence k{s, draw(0, 20000), c};
        const Tick first = draw(0, 1000000);
        const Tick data = first + k.latency;
        Tick fpu_ready = 0;
        switch (rng.uniformInt(0, 3)) {
          case 0: // no backlog
            fpu_ready = draw(0, data);
            break;
          case 1: // e0 inside (C, S + 4C]
            fpu_ready = data + draw(0, s + 3 * c);
            break;
          case 2: // e0 on the edge S or S + 4C
            fpu_ready = data + (rng.bernoulli(0.5) ? (s > c ? s - c : 0)
                                                   : s + 3 * c);
            break;
          default: // e0 above S + 4C
            fpu_ready = data + s + 3 * c + 1 + draw(0, 100000);
            break;
        }
        expectBurstMatches(k, first, fpu_ready,
                           static_cast<std::uint64_t>(
                               rng.uniformInt(1, 64)));
        if (::testing::Test::HasFailure())
            return;
    }
}

/**
 * A cold 16-row replay is one replay. Channel calls: two per ACT or
 * PRE issue (248), one full plan of the first ACT of each bank and
 * of each PRE, and after each ACT or PRE one full re-plan of the
 * issuing bank plus one channelEarliest per bound the waiting banks
 * need (the PRE bound, each bank group's ACT bound). Burst runs: at
 * most four per row burst (128 bursts). attn-pim at reuse 64 is
 * FPU-bound, which reorders the ACT/PRE merge. A memo hit adds
 * nothing; a traced run replays.
 */
TEST(GemvReplayWork, ColdSixteenRowReplayCounts)
{
    struct Pin
    {
        const char *preset;
        std::uint32_t reuse;
        std::uint64_t channelCalls;
        std::uint64_t burstRuns;
    };
    const Pin pins[] = {
        {"fc-pim", 1, 1514, 256},   {"fc-pim", 4, 1514, 256},
        {"fc-pim", 64, 1514, 392},  {"attn-pim", 1, 1514, 512},
        {"attn-pim", 4, 1514, 512}, {"attn-pim", 64, 1444, 272},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(pin.preset) + " reuse " +
                     std::to_string(pin.reuse));
        const PimConfig cfg = presetFor(pin.preset);
        const std::uint64_t bytes = 16ULL * cfg.dramSpec.org.rowBytes;
        GemvEngine engine(cfg);
        EXPECT_EQ(engine.work().replays, 0u);
        EXPECT_EQ(engine.work().channelCalls, 0u);
        EXPECT_EQ(engine.work().burstRuns, 0u);

        engine.run(bytes, pin.reuse);
        EXPECT_EQ(engine.work().replays, 1u);
        EXPECT_EQ(engine.work().channelCalls, pin.channelCalls);
        EXPECT_EQ(engine.work().burstRuns, pin.burstRuns);

        engine.run(bytes, pin.reuse); // memo hit
        EXPECT_EQ(engine.work().replays, 1u);
        EXPECT_EQ(engine.work().channelCalls, pin.channelCalls);
        EXPECT_EQ(engine.work().burstRuns, pin.burstRuns);

        CommandTrace trace;
        engine.setTraceRecorder(&trace);
        engine.run(bytes, pin.reuse); // traced runs bypass the memo
        EXPECT_EQ(engine.work().replays, 2u);
        EXPECT_EQ(engine.work().channelCalls, 2 * pin.channelCalls);
        EXPECT_EQ(engine.work().burstRuns, 2 * pin.burstRuns);
    }
}

} // namespace
