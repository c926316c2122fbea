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
 * bus, tRRD and tFAW), so only they go through the cross-bank merge:
 * each bank keeps its next command and its earliest tick, re-planned
 * when the bank issues and, for banks waiting on an ACT or PRE,
 * whenever any ACT or PRE issues. A PIM_MAC reads only its own
 * bank's timing and FPU gate and writes no channel state, so once a
 * bank's row is open its whole PIM_MAC burst issues in one pass, row
 * at a time. Every command still goes through PseudoChannel::issue
 * and its legality checks.
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
    CommandTrace *_recorder = nullptr;
};

} // namespace papi::pim

#endif // PAPI_PIM_GEMV_ENGINE_HH
