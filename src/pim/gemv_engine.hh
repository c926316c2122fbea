/**
 * @file
 * Cycle-level near-bank GEMV execution on a PIM pseudo-channel.
 *
 * The engine models the weight-stationary dataflow used by AttAcc and
 * PAPI: every bank holds a shard of the matrix; the kernel streams
 * each shard through the bank's row buffer (ACT + a PIM_MAC column
 * read per 32 B) and the near-bank FPUs combine each column with
 * `reuse` input vectors (reuse = RLP x TLP for FC kernels, TLP for
 * attention score/context kernels).
 *
 * Timing is produced by replaying the actual DRAM command stream on a
 * dram::PseudoChannel (tRCD/tRP/tRAS/tCCD/tRRD/tFAW enforced) with
 * FPU back-pressure: each bank's FPU group has a four-column input
 * queue, so a column may not issue earlier than
 * tCL + tBURST + 4 x (FPU service time per column) before the group
 * finishes the columns already queued.
 *
 * The replay issues every command at the earliest tick a global
 * earliest-first scan over all banks would give it (lowest flat bank
 * index on ties), but it does not rescan every bank per command.
 * Only ACT and PRE read and write channel-scope state (the command
 * bus, tRRD and tFAW), so only they go through the cross-bank merge
 * and PseudoChannel::issue: each bank keeps its next command, its
 * own earliest tick (dram::Bank::earliestIssue) and its earliest
 * tick overall.
 *
 * Re-plan rule: the bank that issues re-plans in full, as the max of
 * its own tick and PseudoChannel::channelEarliest. A waiting bank's
 * own tick cannot move while another bank issues, so after an ACT or
 * PRE every bank waiting on an ACT or PRE becomes max(its cached own
 * tick, the new PRE bound or its bank group's ACT bound): one
 * channel query per bound, not one per bank.
 *
 * A PIM_MAC reads only its own bank's timing and FPU gate and writes
 * no channel state, so once a bank's row is open its whole PIM_MAC
 * burst follows from the first tick (planned when the row opened)
 * by the per-column recurrence
 *
 *     tick_k = max(tick_{k-1} + S, FPU gate)
 *     FPU start_k = max(tick_k + L, FPU ready)
 *
 * with S = tCCD_S, L = tCL + tBURST and C the FPU service ticks per
 * column. timeMacBurst solves it in closed form. Let e be the latest
 * column's FPU-ready tick minus its data-arrival tick. Column 0
 * lands at first + L and leaves e = max(carried FPU ready - data,
 * 0) + C, stalling when the carried tick is later. Each later column
 * lands step = max(S, e - 4C) after the previous one, stalls (its
 * data arrives before the FPUs are ready) exactly when e > step, and
 * leaves e' = max(S, e) + C - step. Since e >= C always, e moves in
 * three regimes:
 *
 *  - e <= S: step S, no stall, e' = C <= S, for the rest of the
 *    burst.
 *  - S < e <= S + 4C: step S, a stall, e moves by C - S per column:
 *    for ceil((e - S) / (S - C)) columns when C < S,
 *    floor((S + 4C - e) / (C - S)) + 1 when C > S, and the rest of
 *    the burst when C = S.
 *  - e > S + 4C: one catch-up step of e - 4C, a stall when C > 0,
 *    and e' = 5C. When C > S that is a fixed point: every later
 *    column stalls C apart.
 *
 * A burst is therefore at most four evenly spaced runs (column 0
 * counts as one), stepped whole; a traced replay emits each run's
 * ticks in the same loop, so traced and untraced replays share one
 * path. The bank's end state is committed once through
 * dram::Bank::issueMacBurst, which checks the whole burst the way
 * Bank::issue checks one PIM_MAC.
 *
 * Trace-order contract: a recorded trace (setTraceRecorder) lists
 * the commands in exactly the order the global scan issues them.
 * Where ACT/PRE ticks strictly increase (tCK > 0) that is the trace
 * stably sorted by (tick, flat bank index); with tCK = 0 a later ACT
 * can share an earlier ACT's tick at a lower bank index, and the
 * engine still reproduces the scan's order.
 */

#ifndef PAPI_PIM_GEMV_ENGINE_HH
#define PAPI_PIM_GEMV_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "pim/pim_config.hh"
#include "pim/trace_validator.hh"
#include "sim/types.hh"

namespace papi::pim {

/** Outcome of one per-pseudo-channel GEMV stream. */
struct GemvResult
{
    /** Kernel duration in ticks (stream start to last FPU done). */
    sim::Tick ticks = 0;
    /** Row activations performed (whole channel, unscaled). */
    std::uint64_t activations = 0;
    /** Bytes streamed out of the cell arrays (whole channel). */
    std::uint64_t streamedBytes = 0;
    /** FLOPs performed (whole channel). */
    double flops = 0.0;
    /** Fraction of kernel time the FPUs were busy [0,1]. */
    double fpuBusyFrac = 0.0;
    /** True when FPU service time, not DRAM, set the pace. */
    bool computeBound = false;
};

/**
 * Work counters of GEMV engines: plain integers, incremented only,
 * so a cost-model claim can cite counts instead of wall-clock time.
 * They are not simulated results and stay out of every identity
 * check.
 */
struct GemvWork
{
    /** Command-stream replays run (memo misses and traced runs). */
    std::uint64_t replays = 0;
    /** dram::PseudoChannel queries those replays made: one per
     *  earliestIssue or channelEarliest, two per issue (its legality
     *  check runs earliestIssue). */
    std::uint64_t channelCalls = 0;
    /** PIM_MAC burst runs those replays stepped: the evenly spaced
     *  runs of timeMacBurst, column 0 of each burst counted as one
     *  (at most four per burst). */
    std::uint64_t burstRuns = 0;
    /** Untraced runs answered from the replay memo (no replay). */
    std::uint64_t memoHits = 0;

    /** Add @p o's counts (a device or platform sums its engines). */
    GemvWork &
    operator+=(const GemvWork &o)
    {
        replays += o.replays;
        channelCalls += o.channelCalls;
        burstRuns += o.burstRuns;
        memoHits += o.memoHits;
        return *this;
    }
};

/** The per-column constants of a PIM_MAC burst. */
struct MacCadence
{
    sim::Tick ccd = 0;     ///< S: tCCD_S, the PIM_MAC cadence.
    sim::Tick latency = 0; ///< L: tCL + tBURST, issue to data.
    sim::Tick compute = 0; ///< C: FPU service ticks per column.
};

/** Outcome of one PIM_MAC burst (see timeMacBurst). */
struct MacBurstTiming
{
    sim::Tick last = 0; ///< Tick of the last PIM_MAC.
    /** Smallest spacing between consecutive PIM_MACs (maxTick for a
     *  one-column burst). */
    sim::Tick minGap = sim::maxTick;
    /** Columns whose data arrived before the FPUs were ready. */
    std::uint64_t stalledColumns = 0;
    /** FPU-ready tick after the last column. */
    sim::Tick fpuReadyAt = 0;
    /** Evenly spaced runs stepped, column 0 included (1 to 4). */
    std::uint64_t runs = 0;
};

/**
 * Time a burst of @p columns (>= 1) PIM_MACs to one open row whose
 * first PIM_MAC issues at @p first, with the bank's FPUs ready at
 * @p fpu_ready_at: the per-column recurrence of the file comment,
 * solved run by run in O(1). When @p trace is not null, each
 * PIM_MAC is appended to it as (tick, @p mac), in issue order.
 */
MacBurstTiming timeMacBurst(const MacCadence &cadence, sim::Tick first,
                            sim::Tick fpu_ready_at,
                            std::uint64_t columns,
                            CommandTrace *trace = nullptr,
                            const dram::Command &mac = {});

/** Near-bank GEMV timing engine for one PIM configuration. */
class GemvEngine
{
  public:
    /** Engine for @p config; fatal() on a zero or non-dividing xPyB. */
    explicit GemvEngine(const PimConfig &config);

    /** The PIM configuration the engine replays. */
    const PimConfig &config() const { return _config; }

    /**
     * Stream @p bytes_per_bank of matrix data through every bank of
     * one pseudo-channel, combining each column with @p reuse input
     * vectors.
     *
     * Shards larger than an internal cap are simulated in
     * steady-state and scaled linearly (streaming is row-periodic, so
     * the error is bounded by one row's fill time).
     *
     * @param bytes_per_bank Matrix bytes resident in each bank.
     * @param reuse Number of input vectors each column serves
     *        (>= 1); the data-reuse level of the paper's Fig. 7.
     */
    GemvResult run(std::uint64_t bytes_per_bank,
                   std::uint32_t reuse) const;

    /**
     * FPU service ticks needed per 32 B column per bank:
     * ceil(reuse * banksPerGroup / fpusPerGroup) FPU cycles.
     */
    sim::Tick computeTicksPerColumn(std::uint32_t reuse) const;

    /**
     * Analytic lower bound on streaming time for cross-checks:
     * max(DRAM cadence, FPU service) per column x columns, plus row
     * overheads. Tests assert the cycle-level result stays within a
     * small factor of this bound.
     */
    sim::Tick analyticLowerBound(std::uint64_t bytes_per_bank,
                                 std::uint32_t reuse) const;

    /**
     * Record every issued command into @p trace (nullptr disables).
     * While a recorder is attached the memo cache is bypassed so the
     * trace reflects a full fresh replay (see pim::TraceValidator).
     */
    void setTraceRecorder(CommandTrace *trace) { _recorder = trace; }

    /** Replays, channel calls and burst runs so far (see GemvWork). */
    const GemvWork &work() const { return _work; }

  private:
    GemvResult runExact(std::uint64_t bytes_per_bank,
                        std::uint32_t reuse) const;

    /** Memo key: the replay depends on exactly these two values. */
    struct MemoKey
    {
        std::uint64_t columns = 0;   ///< Column accesses per bank.
        sim::Tick computeTicks = 0;  ///< FPU service per column.

        bool operator==(const MemoKey &) const = default;
    };

    struct MemoKeyHash
    {
        std::size_t operator()(const MemoKey &k) const;
    };

    PimConfig _config;

    /**
     * Memoized exact results keyed by (columns, FPU ticks per
     * column). Decode loops call run() with recurring shapes;
     * replaying identical command streams would dominate simulation
     * time otherwise.
     */
    // detlint: allow(unordered-decl): memo cache with find/emplace
    // only; the key holds both replay inputs exactly, so a hit
    // returns the GemvResult the command stream would regenerate,
    // and nothing walks the table, so bucket order cannot reach
    // simulated timing or the command trace.
    mutable std::unordered_map<MemoKey, GemvResult, MemoKeyHash> _cache;
    mutable GemvWork _work;
    CommandTrace *_recorder = nullptr;
};

} // namespace papi::pim

#endif // PAPI_PIM_GEMV_ENGINE_HH
