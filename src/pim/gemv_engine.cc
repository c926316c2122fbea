#include "pim/gemv_engine.hh"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "dram/pseudo_channel.hh"
#include "sim/logging.hh"

namespace papi::pim {

using dram::Command;
using dram::CommandType;
using dram::Coord;
using sim::Tick;

namespace {

/** Cap on simulated rows per bank; larger shards scale linearly.
 *  Streaming is row-periodic, so 16 rows capture the steady state
 *  (fill effects span ~4 activates via tFAW). */
constexpr std::uint64_t simRowsCap = 16;

/**
 * Reorder trace[from, end) from row-at-a-time issue order into the
 * order a global earliest-first scan issues the same commands in.
 * ACT and PRE are already in scan order. The scan issues a PIM_MAC
 * of an already opened row before an ACT or PRE exactly when the
 * MAC's (tick, flat bank index) does not exceed the ACT's or PRE's,
 * and PIM_MACs among themselves in (tick, flat bank index) order,
 * program order within a bank.
 */
void
restoreScanOrder(CommandTrace &trace, std::size_t from,
                 std::uint32_t banks_per_group)
{
    struct Pending
    {
        Tick tick;
        std::uint32_t bank;
        std::size_t seq; ///< Index in trace; program order per bank.
    };
    // Min-heap order for the std::*_heap functions.
    auto later = [](const Pending &a, const Pending &b) {
        return std::tie(a.tick, a.bank, a.seq) >
               std::tie(b.tick, b.bank, b.seq);
    };
    auto flat = [&](const TraceEntry &e) {
        return e.command.coord.bankGroup * banks_per_group +
               e.command.coord.bank;
    };

    std::vector<Pending> macs;
    CommandTrace ordered;
    ordered.reserve(trace.size() - from);
    auto emit_macs_up_to = [&](Tick tick, std::uint32_t bank) {
        while (!macs.empty() &&
               std::tie(macs.front().tick, macs.front().bank) <=
                   std::tie(tick, bank)) {
            std::pop_heap(macs.begin(), macs.end(), later);
            ordered.push_back(trace[macs.back().seq]);
            macs.pop_back();
        }
    };
    for (std::size_t i = from; i < trace.size(); ++i) {
        const TraceEntry &e = trace[i];
        if (e.command.type == CommandType::PimMac) {
            macs.push_back(Pending{e.tick, flat(e), i});
            std::push_heap(macs.begin(), macs.end(), later);
        } else {
            emit_macs_up_to(e.tick, flat(e));
            ordered.push_back(e);
        }
    }
    emit_macs_up_to(sim::maxTick, ~0u);
    std::copy(ordered.begin(), ordered.end(),
              trace.begin() + static_cast<std::ptrdiff_t>(from));
}

} // namespace

MacBurstTiming
timeMacBurst(const MacCadence &cadence, Tick first, Tick fpu_ready_at,
             std::uint64_t columns, CommandTrace *trace,
             const Command &mac)
{
    if (columns == 0)
        sim::panic("timeMacBurst: a burst needs at least one column");
    const Tick s = cadence.ccd;
    const Tick c = cadence.compute;

    MacBurstTiming out;
    const Tick data = first + cadence.latency;
    // e: the latest column's FPU-ready tick minus its data arrival.
    Tick e = c;
    if (fpu_ready_at > data) {
        e += fpu_ready_at - data;
        out.stalledColumns = 1;
    }
    if (trace)
        trace->push_back(TraceEntry{first, mac});
    out.runs = 1;

    Tick tick = first;
    std::uint64_t left = columns - 1;
    while (left > 0) {
        // Step the next run of n columns, `step` apart, from e.
        Tick step = s;
        std::uint64_t n = left;
        Tick next_e = c;
        if (e <= s) {
            // e >= C, so C <= S and e stays at C from here on.
        } else if (e <= s + 4 * c) {
            // The data waits for the FPUs at the S cadence.
            if (c < s) {
                n = std::min<std::uint64_t>(
                    left, (e - s + (s - c) - 1) / (s - c));
                next_e = e - n * (s - c);
            } else if (c > s) {
                n = std::min<std::uint64_t>(
                    left, (s + 4 * c - e) / (c - s) + 1);
                next_e = e + n * (c - s);
            } else {
                next_e = e;
            }
        } else {
            // The full FPU queue gates the column: one catch-up step
            // brings e to 5C, a fixed point when C > S.
            step = e - 4 * c;
            if (e != 5 * c || c <= s)
                n = 1;
            next_e = 5 * c;
        }
        // A column stalls when its data lands before the FPUs are
        // ready; e > step holds for every column of a run or none.
        if (e > step)
            out.stalledColumns += n;
        e = next_e;
        if (trace) {
            for (std::uint64_t i = 1; i <= n; ++i)
                trace->push_back(TraceEntry{tick + i * step, mac});
        }
        tick += n * step;
        out.minGap = std::min(out.minGap, step);
        left -= n;
        ++out.runs;
    }
    out.last = tick;
    out.fpuReadyAt = tick + cadence.latency + e;
    return out;
}

GemvEngine::GemvEngine(const PimConfig &config) : _config(config)
{
    if (_config.fpusPerGroup == 0 || _config.banksPerGroup == 0)
        sim::fatal("GemvEngine: xPyB parameters must be nonzero");
    const auto &org = _config.dramSpec.org;
    if (org.banks() % _config.banksPerGroup != 0)
        sim::fatal("GemvEngine: banksPerGroup=", _config.banksPerGroup,
                   " does not divide channel banks=", org.banks());
}

Tick
GemvEngine::computeTicksPerColumn(std::uint32_t reuse) const
{
    if (reuse == 0)
        sim::fatal("GemvEngine: reuse must be >= 1");
    // Work per column per bank: lanes * reuse MACs; the FPU group
    // contributes fpusPerGroup/banksPerGroup FPUs to this bank, each
    // retiring `lanes` MACs per cycle.
    std::uint64_t cycles =
        (static_cast<std::uint64_t>(reuse) * _config.banksPerGroup +
         _config.fpusPerGroup - 1) /
        _config.fpusPerGroup;
    return cycles * _config.fpu.periodTicks();
}

Tick
GemvEngine::analyticLowerBound(std::uint64_t bytes_per_bank,
                               std::uint32_t reuse) const
{
    const auto &org = _config.dramSpec.org;
    const auto &t = _config.dramSpec.timing;
    std::uint64_t columns =
        (bytes_per_bank + org.accessBytes - 1) / org.accessBytes;
    Tick per_column = std::max<Tick>(t.tCCD_S,
                                     computeTicksPerColumn(reuse));
    return columns * per_column;
}

GemvResult
GemvEngine::run(std::uint64_t bytes_per_bank, std::uint32_t reuse) const
{
    const auto &org = _config.dramSpec.org;
    if (bytes_per_bank == 0)
        return GemvResult{};

    std::uint64_t rows =
        (bytes_per_bank + org.rowBytes - 1) / org.rowBytes;

    if (rows <= simRowsCap)
        return runExact(bytes_per_bank, reuse);

    // Steady-state scaling: simulate the cap and scale per-row cost.
    GemvResult base = runExact(simRowsCap * org.rowBytes, reuse);
    double scale = static_cast<double>(rows) /
                   static_cast<double>(simRowsCap);

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

std::size_t
GemvEngine::MemoKeyHash::operator()(const MemoKey &k) const
{
    // FNV-1a over the two words; equality compares both exactly.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = (h ^ k.columns) * 0x100000001b3ULL;
    h = (h ^ k.computeTicks) * 0x100000001b3ULL;
    return static_cast<std::size_t>(h);
}

GemvResult
GemvEngine::runExact(std::uint64_t bytes_per_bank,
                     std::uint32_t reuse) const
{
    const auto &org = _config.dramSpec.org;
    const auto &t = _config.dramSpec.timing;

    const std::uint64_t total_columns =
        (bytes_per_bank + org.accessBytes - 1) / org.accessBytes;
    const Tick compute_per_col = computeTicksPerColumn(reuse);

    // Timing depends on reuse only through the FPU service time per
    // column, so distinct reuse values sharing computeTicksPerColumn
    // hit the same cache entry; FLOPs are fixed up below.
    const MemoKey key{total_columns, compute_per_col};
    if (_recorder == nullptr) {
        if (auto it = _cache.find(key); it != _cache.end()) {
            ++_work.memoHits;
            GemvResult out = it->second;
            out.flops = static_cast<double>(out.streamedBytes) / 2.0 *
                        static_cast<double>(reuse) * 2.0;
            return out;
        }
    }

    ++_work.replays;
    dram::PseudoChannel channel(_config.dramSpec);

    const std::uint32_t cols_per_row = org.columnsPerRow();
    const std::uint64_t full_rows = total_columns / cols_per_row;
    const std::uint32_t tail_cols =
        static_cast<std::uint32_t>(total_columns % cols_per_row);

    // FPU input queue of four columns: a new column may issue while
    // earlier ones are in flight through the read latency
    // (tCL + tBURST) or queued at the FPUs, but not so early that the
    // queue would overflow.
    const MacCadence cadence{t.tCCD_S, t.tCL + t.tBURST, compute_per_col};
    const Tick pipe = cadence.latency + 4 * cadence.compute;
    auto fpu_gate = [&](Tick fpu_ready_at) -> Tick {
        return fpu_ready_at > pipe ? fpu_ready_at - pipe : 0;
    };

    struct BankCursor
    {
        dram::Bank *bank = nullptr; ///< This bank in `channel`.
        Command next;         ///< ACT, the row's PIM_MAC burst, or PRE.
        Tick ownAt = 0;       ///< The bank's own earliest tick for `next`.
        Tick nextAt = 0;      ///< Earliest legal tick for `next`.
        std::uint64_t rowsLeft = 0; ///< Rows still to stream (incl. cur).
        Tick fpuReadyAt = 0;
        Tick fpuBusyTicks = 0;
        bool done = false;
    };

    std::vector<BankCursor> banks;
    banks.reserve(org.banks());
    for (std::uint32_t g = 0; g < org.bankGroups; ++g) {
        for (std::uint32_t b = 0; b < org.banksPerGroup; ++b) {
            BankCursor c;
            c.bank = &channel.bank(g, b);
            c.next.type = CommandType::Act;
            c.next.coord = Coord{g, b, 0, 0};
            c.rowsLeft = full_rows + (tail_cols != 0 ? 1 : 0);
            c.done = c.rowsLeft == 0;
            banks.push_back(c);
        }
    }

    // Full plan: PseudoChannel::earliestIssue(next, 0), split into
    // the bank's own tick (kept for the re-plans below) and the
    // channel bound. No `now` floor: a bank's next command never
    // precedes its own previous one, and every tick picked while it
    // waits is at or below its earliest, so the floor of a global
    // scan never binds.
    auto plan = [&](BankCursor &c) {
        ++_work.channelCalls;
        c.ownAt = c.bank->earliestIssue(c.next.type);
        c.nextAt = std::max(
            c.ownAt,
            channel.channelEarliest(c.next.type, c.next.coord.bankGroup));
        if (c.next.type == CommandType::PimMac)
            c.nextAt = std::max(c.nextAt, fpu_gate(c.fpuReadyAt));
    };
    for (auto &c : banks) {
        if (!c.done)
            plan(c);
    }

    CommandTrace *const recorder = _recorder;
    const std::size_t trace_from =
        recorder != nullptr ? recorder->size() : 0;
    // Issue the bank's planned ACT or PRE.
    auto issue = [&](const BankCursor &c) {
        _work.channelCalls += 2;
        channel.issue(c.next, c.nextAt);
        if (recorder)
            recorder->push_back(TraceEntry{c.nextAt, c.next});
    };
    std::uint64_t activations = 0;
    std::uint64_t column_accesses = 0;
    Tick kernel_end = 0;
    std::uint64_t compute_stalled_cols = 0;

    // Merge the banks' candidates earliest-first, lowest flat index
    // on ties.
    while (true) {
        BankCursor *best = nullptr;
        for (auto &c : banks) {
            if (!c.done && (best == nullptr || c.nextAt < best->nextAt))
                best = &c;
        }
        if (best == nullptr)
            break; // all banks done

        BankCursor &c = *best;
        switch (c.next.type) {
          case CommandType::Act:
          case CommandType::Pre: {
            issue(c);
            if (c.next.type == CommandType::Act) {
                ++activations;
                c.next.type = CommandType::PimMac;
            } else {
                c.next.type = CommandType::Act;
            }
            // The command bus, tRRD and tFAW moved: re-plan this bank
            // in full. The other banks' own ticks did not move, so a
            // bank waiting on an ACT or PRE takes the new channel
            // bound of its command: one for PRE, one per bank group
            // for ACT (tRRD), each queried on first use.
            plan(c);
            Tick pre_bound = 0;
            bool have_pre = false;
            Tick act_bound = 0;
            std::uint32_t act_group = ~0u;
            for (auto &o : banks) {
                if (o.done || &o == &c ||
                    o.next.type == CommandType::PimMac)
                    continue;
                const std::uint32_t g = o.next.coord.bankGroup;
                if (o.next.type == CommandType::Act) {
                    if (act_group != g) {
                        ++_work.channelCalls;
                        act_bound =
                            channel.channelEarliest(CommandType::Act, g);
                        act_group = g;
                    }
                    o.nextAt = std::max(o.ownAt, act_bound);
                } else {
                    if (!have_pre) {
                        ++_work.channelCalls;
                        pre_bound =
                            channel.channelEarliest(CommandType::Pre, g);
                        have_pre = true;
                    }
                    o.nextAt = std::max(o.ownAt, pre_bound);
                }
            }
            break;
          }
          case CommandType::PimMac: {
            // The last row may be partial.
            const std::uint32_t cols =
                (c.rowsLeft == 1 && tail_cols != 0) ? tail_cols
                                                    : cols_per_row;
            // Only this bank's cadence and FPU gate move between the
            // burst's PIM_MACs, so the burst is closed-form.
            const MacBurstTiming burst = timeMacBurst(
                cadence, c.nextAt, c.fpuReadyAt, cols, recorder, c.next);
            _work.burstRuns += burst.runs;
            c.bank->issueMacBurst(dram::MacBurst{c.next.coord.row,
                                                 c.nextAt, burst.last,
                                                 burst.minGap, cols});
            compute_stalled_cols += burst.stalledColumns;
            c.fpuReadyAt = burst.fpuReadyAt;
            c.fpuBusyTicks += cols * compute_per_col;
            // A bank's FPU ready tick never falls.
            kernel_end = std::max(kernel_end, burst.fpuReadyAt);
            column_accesses += cols;
            ++c.next.coord.row;
            if (--c.rowsLeft == 0) {
                c.done = true;
            } else {
                c.next.type = CommandType::Pre;
                plan(c);
            }
            break;
          }
          default:
            sim::panic("GemvEngine: unexpected command");
        }
    }
    if (_recorder)
        restoreScanOrder(*_recorder, trace_from, org.banksPerGroup);

    GemvResult out;
    out.ticks = kernel_end;
    out.activations = activations;
    out.streamedBytes = column_accesses * org.accessBytes;
    // Each streamed FP16 element is combined with `reuse` inputs,
    // one MAC (2 FLOPs) each.
    out.flops = static_cast<double>(out.streamedBytes) / 2.0 *
                static_cast<double>(reuse) * 2.0;
    Tick busy_max = 0;
    for (const auto &c : banks)
        busy_max = std::max(busy_max, c.fpuBusyTicks);
    out.fpuBusyFrac =
        kernel_end == 0
            ? 0.0
            : static_cast<double>(busy_max) /
                  static_cast<double>(kernel_end);
    out.computeBound =
        column_accesses > 0 &&
        compute_stalled_cols * 2 > column_accesses;
    if (_recorder == nullptr)
        _cache.emplace(key, out);
    return out;
}

} // namespace papi::pim
