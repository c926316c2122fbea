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
 *    test-local global scan below, field by field and command by
 *    command, with and without the memo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "dram/pseudo_channel.hh"
#include "pim/gemv_engine.hh"
#include "pim/pim_config.hh"
#include "sim/rng.hh"

namespace {

using namespace papi::pim;
using papi::dram::Command;
using papi::dram::CommandType;
using papi::dram::Coord;
using papi::sim::Tick;

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

// ------------------------------------------------------------------
// Test-local oracle: the global earliest-first scan. Every step
// re-plans every bank's next command against the channel and issues
// the earliest one (lowest flat bank index on ties). Shards above
// 16 rows per bank replay 16 rows and scale linearly, as
// GemvEngine::run documents.

GemvResult
globalScan(const PimConfig &cfg, std::uint64_t bytes_per_bank,
           std::uint32_t reuse, CommandTrace *trace)
{
    const auto &org = cfg.dramSpec.org;
    const auto &t = cfg.dramSpec.timing;
    papi::dram::PseudoChannel channel(cfg.dramSpec);

    const std::uint32_t cols_per_row = org.columnsPerRow();
    const std::uint64_t total_columns =
        (bytes_per_bank + org.accessBytes - 1) / org.accessBytes;
    const std::uint64_t full_rows = total_columns / cols_per_row;
    const std::uint32_t tail_cols =
        static_cast<std::uint32_t>(total_columns % cols_per_row);
    const Tick compute_per_col =
        GemvEngine(cfg).computeTicksPerColumn(reuse);

    struct Cursor
    {
        std::uint32_t group = 0;
        std::uint32_t bank = 0;
        std::uint64_t rowsLeft = 0;
        std::uint32_t colsLeftInRow = 0;
        std::uint32_t nextRow = 0;
        Tick fpuReadyAt = 0;
        Tick fpuBusyTicks = 0;
        bool rowOpen = false;
        bool done = false;
    };
    std::vector<Cursor> banks;
    for (std::uint32_t g = 0; g < org.bankGroups; ++g) {
        for (std::uint32_t b = 0; b < org.banksPerGroup; ++b) {
            Cursor c;
            c.group = g;
            c.bank = b;
            c.rowsLeft = full_rows + (tail_cols != 0 ? 1 : 0);
            c.done = c.rowsLeft == 0;
            banks.push_back(c);
        }
    }

    Tick now = 0;
    std::uint64_t activations = 0;
    std::uint64_t column_accesses = 0;
    Tick kernel_end = 0;
    std::uint64_t compute_stalled_cols = 0;
    while (true) {
        int best = -1;
        Tick best_tick = papi::sim::maxTick;
        Command best_cmd;
        for (std::size_t i = 0; i < banks.size(); ++i) {
            const Cursor &c = banks[i];
            if (c.done)
                continue;
            Command cmd;
            cmd.coord = Coord{c.group, c.bank, c.nextRow, 0};
            cmd.type = !c.rowOpen              ? CommandType::Act
                       : c.colsLeftInRow > 0 ? CommandType::PimMac
                                             : CommandType::Pre;
            Tick earliest = channel.earliestIssue(cmd, now);
            if (cmd.type == CommandType::PimMac) {
                Tick pipe = t.tCL + t.tBURST + 4 * compute_per_col;
                Tick gate =
                    c.fpuReadyAt > pipe ? c.fpuReadyAt - pipe : 0;
                earliest = std::max(earliest, gate);
            }
            if (earliest < best_tick) {
                best_tick = earliest;
                best = static_cast<int>(i);
                best_cmd = cmd;
            }
        }
        if (best < 0)
            break;

        Cursor &c = banks[static_cast<std::size_t>(best)];
        now = std::max(now, best_tick);
        Tick done_at = channel.issue(best_cmd, best_tick);
        if (trace)
            trace->push_back(TraceEntry{best_tick, best_cmd});
        switch (best_cmd.type) {
          case CommandType::Act:
            c.rowOpen = true;
            c.colsLeftInRow = (c.rowsLeft == 1 && tail_cols != 0)
                                  ? tail_cols
                                  : cols_per_row;
            ++activations;
            break;
          case CommandType::PimMac: {
            ++column_accesses;
            --c.colsLeftInRow;
            Tick start = std::max(done_at, c.fpuReadyAt);
            if (start > done_at)
                ++compute_stalled_cols;
            c.fpuReadyAt = start + compute_per_col;
            c.fpuBusyTicks += compute_per_col;
            kernel_end = std::max(kernel_end, c.fpuReadyAt);
            if (c.colsLeftInRow == 0) {
                --c.rowsLeft;
                ++c.nextRow;
                c.done = c.rowsLeft == 0;
            }
            break;
          }
          default:
            c.rowOpen = false;
            break;
        }
    }

    GemvResult out;
    out.ticks = kernel_end;
    out.activations = activations;
    out.streamedBytes = column_accesses * org.accessBytes;
    out.flops = static_cast<double>(out.streamedBytes) / 2.0 *
                static_cast<double>(reuse) * 2.0;
    Tick busy_max = 0;
    for (const Cursor &c : banks)
        busy_max = std::max(busy_max, c.fpuBusyTicks);
    out.fpuBusyFrac = kernel_end == 0
                          ? 0.0
                          : static_cast<double>(busy_max) /
                                static_cast<double>(kernel_end);
    out.computeBound = column_accesses > 0 &&
                       compute_stalled_cols * 2 > column_accesses;
    return out;
}

GemvResult
referenceRun(const PimConfig &cfg, std::uint64_t bytes_per_bank,
             std::uint32_t reuse, CommandTrace *trace)
{
    constexpr std::uint64_t rows_cap = 16;
    const auto &org = cfg.dramSpec.org;
    if (bytes_per_bank == 0)
        return GemvResult{};
    std::uint64_t rows = (bytes_per_bank + org.rowBytes - 1) / org.rowBytes;
    if (rows <= rows_cap)
        return globalScan(cfg, bytes_per_bank, reuse, trace);
    GemvResult base = globalScan(cfg, rows_cap * org.rowBytes, reuse, trace);
    double scale =
        static_cast<double>(rows) / static_cast<double>(rows_cap);
    GemvResult out;
    out.ticks = static_cast<Tick>(
        static_cast<double>(base.ticks) * scale + 0.5);
    out.activations = static_cast<std::uint64_t>(
        static_cast<double>(base.activations) * scale + 0.5);
    out.streamedBytes = static_cast<std::uint64_t>(
        static_cast<double>(base.streamedBytes) * scale + 0.5);
    out.flops = base.flops * scale;
    out.fpuBusyFrac = base.fpuBusyFrac;
    out.computeBound = base.computeBound;
    return out;
}

// ------------------------------------------------------------------

std::string
describe(const TraceEntry &e)
{
    return std::to_string(e.tick) + " " +
           papi::dram::commandName(e.command.type) + " g" +
           std::to_string(e.command.coord.bankGroup) + " b" +
           std::to_string(e.command.coord.bank) + " r" +
           std::to_string(e.command.coord.row);
}

/** Index of the first differing entry, or -1 when equal. */
long
firstTraceDifference(const CommandTrace &a, const CommandTrace &b)
{
    std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEntry &x = a[i];
        const TraceEntry &y = b[i];
        if (x.tick != y.tick || x.command.type != y.command.type ||
            !(x.command.coord == y.command.coord))
            return static_cast<long>(i);
    }
    return a.size() == b.size() ? -1 : static_cast<long>(n);
}

void
expectSameResult(const GemvResult &got, const GemvResult &want,
                 const std::string &where)
{
    EXPECT_EQ(got.ticks, want.ticks) << where;
    EXPECT_EQ(got.activations, want.activations) << where;
    EXPECT_EQ(got.streamedBytes, want.streamedBytes) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.flops),
              std::bit_cast<std::uint64_t>(want.flops))
        << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.fpuBusyFrac),
              std::bit_cast<std::uint64_t>(want.fpuBusyFrac))
        << where;
    EXPECT_EQ(got.computeBound, want.computeBound) << where;
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

/** One random DRAM organization, timing set and xPyB shape. */
PimConfig
randomConfig(papi::sim::Rng &rng)
{
    PimConfig cfg;
    cfg.name = "random";
    auto &org = cfg.dramSpec.org;
    org.bankGroups = static_cast<std::uint32_t>(rng.uniformInt(1, 4));
    org.banksPerGroup = static_cast<std::uint32_t>(rng.uniformInt(1, 4));
    const std::uint32_t access_choices[] = {8, 16, 32};
    org.accessBytes = access_choices[rng.uniformInt(0, 2)];
    org.rowBytes =
        org.accessBytes * static_cast<std::uint32_t>(rng.uniformInt(1, 8));

    // Any divisor of the channel's bank count may share an FPU group.
    std::vector<std::uint32_t> divisors;
    for (std::uint32_t d = 1; d <= org.banks(); ++d) {
        if (org.banks() % d == 0)
            divisors.push_back(d);
    }
    cfg.banksPerGroup = divisors[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(divisors.size()) - 1))];
    cfg.fpusPerGroup = static_cast<std::uint32_t>(rng.uniformInt(1, 4));

    // Every timing is zero with some probability; a few specs are
    // all-zero so every command of a stream lands on tick 0.
    const bool all_zero = rng.bernoulli(0.03);
    auto timing = [&](Tick hi) -> Tick {
        if (all_zero || rng.bernoulli(0.2))
            return 0;
        return static_cast<Tick>(
            rng.uniformInt(1, static_cast<std::int64_t>(hi)));
    };
    auto &t = cfg.dramSpec.timing;
    t.tRCD = timing(20000);
    t.tRP = timing(20000);
    t.tRAS = timing(40000);
    t.tRC = timing(60000);
    t.tCL = timing(20000);
    t.tWL = timing(10000);
    t.tBURST = timing(3000);
    t.tCCD_S = timing(3000);
    t.tCCD_L = timing(6000);
    t.tRRD_S = timing(8000);
    t.tRRD_L = timing(12000);
    t.tFAW = timing(30000);
    t.tWR = timing(20000);
    t.tRTP = timing(10000);
    t.tCK = timing(2000);
    t.tWTR = timing(3000);
    t.tRTW = timing(3000);

    // FPU period log-uniform from 1 ps to 20 ns; sometimes 0
    // (instant FPUs).
    cfg.fpu.clockMhz =
        rng.bernoulli(0.05)
            ? 1e7
            : 1e6 / std::exp(rng.uniformReal(0.0, std::log(20000.0)));
    return cfg;
}

TEST(GemvReplayDifferential, RandomSpecsMatchGlobalScan)
{
    papi::sim::Rng rng(0x9e3779b9ULL);
    constexpr int cases = 2000;
    int scaled_cases = 0;
    int tail_cases = 0;
    int compute_bound_cases = 0;
    for (int i = 0; i < cases; ++i) {
        const PimConfig cfg = randomConfig(rng);
        const auto &org = cfg.dramSpec.org;

        std::uint64_t bytes = 0;
        switch (rng.uniformInt(0, 5)) {
          case 0: // whole rows, exact path
            bytes = org.rowBytes * static_cast<std::uint64_t>(
                                       rng.uniformInt(1, 16));
            break;
          case 1: // above the 16-row cap: scaled path
            bytes = static_cast<std::uint64_t>(
                rng.uniformInt(16LL * org.rowBytes + 1,
                               40LL * org.rowBytes));
            break;
          case 2: // huge shard
            bytes = static_cast<std::uint64_t>(
                rng.uniformInt(1LL << 20, 1LL << 32));
            break;
          default: // any size up to the cap, partial rows included
            bytes = static_cast<std::uint64_t>(
                rng.uniformInt(1, 16LL * org.rowBytes));
            break;
        }
        const std::uint32_t reuse = static_cast<std::uint32_t>(
            rng.bernoulli(0.1) ? rng.uniformInt(1, 1000000)
                               : rng.uniformInt(1, 700));

        const std::uint64_t rows =
            (bytes + org.rowBytes - 1) / org.rowBytes;
        scaled_cases += rows > 16;
        tail_cases += rows <= 16 && bytes % org.rowBytes != 0;

        CommandTrace want_trace;
        GemvResult want = referenceRun(cfg, bytes, reuse, &want_trace);

        GemvEngine engine(cfg);
        CommandTrace got_trace;
        engine.setTraceRecorder(&got_trace);
        GemvResult traced = engine.run(bytes, reuse);
        engine.setTraceRecorder(nullptr);
        GemvResult cold = engine.run(bytes, reuse);
        GemvResult warm = engine.run(bytes, reuse);

        std::string where = "case " + std::to_string(i) + ": banks " +
                            std::to_string(org.bankGroups) + "x" +
                            std::to_string(org.banksPerGroup) + " " +
                            cfg.xPyBLabel() + " cols/row " +
                            std::to_string(org.columnsPerRow()) +
                            " tCK " +
                            std::to_string(cfg.dramSpec.timing.tCK) +
                            " bytes " + std::to_string(bytes) +
                            " reuse " + std::to_string(reuse);
        compute_bound_cases += want.computeBound;
        expectSameResult(traced, want, where + " (traced)");
        expectSameResult(cold, want, where + " (cold)");
        expectSameResult(warm, want, where + " (memo hit)");
        long diff = firstTraceDifference(got_trace, want_trace);
        EXPECT_EQ(diff, -1)
            << where << ": trace lengths " << got_trace.size() << " vs "
            << want_trace.size()
            << (diff >= 0 &&
                        static_cast<std::size_t>(diff) < got_trace.size() &&
                        static_cast<std::size_t>(diff) < want_trace.size()
                    ? "; first difference " +
                          describe(got_trace[static_cast<std::size_t>(diff)]) +
                          " vs " +
                          describe(want_trace[static_cast<std::size_t>(diff)])
                    : std::string());
        if (::testing::Test::HasFailure())
            break; // one located failure is enough
    }
    // The sweep must reach the scaled and partial-row paths, and both
    // FPU-bound and DRAM-bound streams.
    EXPECT_GT(scaled_cases, cases / 5);
    EXPECT_GT(tail_cases, cases / 10);
    EXPECT_GT(compute_bound_cases, cases / 10);
    EXPECT_LT(compute_bound_cases, cases - cases / 10);
}

} // namespace
