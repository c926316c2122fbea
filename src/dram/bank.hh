/**
 * @file
 * Per-bank DRAM state machine with timing enforcement.
 */

#ifndef PAPI_DRAM_BANK_HH
#define PAPI_DRAM_BANK_HH

#include <cstdint>
#include <optional>

#include "dram/command.hh"
#include "dram/timing.hh"
#include "sim/types.hh"

namespace papi::dram {

/** DRAM timing is in simulator ticks (picoseconds). */
using sim::Tick;

/**
 * Per-command-type timing increments, derived once from TimingParams
 * so the per-command hot path is table lookups instead of parameter
 * chasing and branching. Shared by every bank of a pseudo-channel.
 */
struct BankTimingTable
{
    /** The increments @p t implies. */
    explicit BankTimingTable(const TimingParams &t);

    Tick actToCol;     ///< tRCD: row usable after ACT.
    Tick actToPre;     ///< tRAS.
    Tick actToAct;     ///< tRC.
    Tick preToAct;     ///< tRP.
    Tick rdDataDone;   ///< tCL + tBURST.
    Tick wrDataDone;   ///< tWL + tBURST.
    Tick rdToPre;      ///< tRTP.
    Tick wrRecovery;   ///< tWR (from data end).
    Tick refCycle;     ///< tRFC.
    /** Same-bank column cadence, indexed by CommandType (Rd/Wr use
     *  tCCD_L, near-bank PimMac pipelines at tCCD_S). */
    Tick colCadence[commandTypeCount];
};

/**
 * A run of PIM_MACs to one open row, summarized for
 * Bank::issueMacBurst. Ticks are issue ticks in program order.
 */
struct MacBurst
{
    std::uint32_t row = 0;   ///< Row every PIM_MAC reads.
    Tick first = 0;          ///< Tick of the first PIM_MAC.
    Tick last = 0;           ///< Tick of the last PIM_MAC.
    /** Smallest spacing between consecutive PIM_MACs (maxTick for
     *  a single one). */
    Tick minGap = sim::maxTick;
    std::uint64_t count = 0; ///< PIM_MACs in the burst (>= 1).
};

/**
 * One DRAM bank: row-buffer state plus the earliest ticks at which
 * each command class may legally be issued to this bank.
 *
 * The bank enforces intra-bank constraints (tRCD, tRP, tRAS, tRC,
 * tWR, tRTP, same-bank column cadence). Inter-bank constraints
 * (tRRD, tFAW, bus occupancy, tCCD across banks) live in
 * PseudoChannel.
 *
 * Earliest-issue times are maintained as a flat per-CommandType array
 * updated on issue, so the (hot) earliestIssue query is a single
 * indexed load.
 */
class Bank
{
  public:
    /** A closed bank timed by @p table (borrowed, shared by the
     *  channel's banks; must outlive the bank). */
    explicit Bank(const BankTimingTable &table) : _tt(&table) {}

    /** State of the bank's row buffer. */
    enum class State : std::uint8_t { Closed, Opening, Open };

    /** Row-buffer state at tick @p now: Opening until tRCD after
     *  the ACT. */
    State state(Tick now) const;

    /** Row currently open (or being opened); nullopt when closed. */
    std::optional<std::uint32_t> openRow() const { return _openRow; }

    /** Earliest tick at which @p type may be issued to this bank. */
    Tick
    earliestIssue(CommandType type) const
    {
        return _earliest[commandIndex(type)];
    }

    /**
     * True if issuing @p type at @p now respects intra-bank timing and
     * the row-buffer state (e.g. Rd requires the addressed row open).
     */
    bool canIssue(CommandType type, std::uint32_t row, Tick now) const;

    /**
     * Apply a command at tick @p now, updating state and next-allowed
     * times. Panics if the command is illegal at @p now (callers are
     * expected to check canIssue first).
     *
     * @return The tick at which the command's effect completes (data
     *         burst end for Rd/Wr/PimMac, row open for Act, bank idle
     *         for Pre).
     */
    Tick issue(CommandType type, std::uint32_t row, Tick now);

    /**
     * Apply @p burst as if each of its PIM_MACs went through
     * issue() in order, in O(1): sets the column cadence past the
     * last one, raises PRE to tRTP past it and counts the burst.
     * Panics like issue() unless the burst's row is open, its first
     * tick is at or after earliestIssue(PimMac), and its ticks are
     * at least the PIM_MAC cadence (tCCD_S) apart - exactly the
     * checks issue() would make one PIM_MAC at a time.
     */
    void issueMacBurst(const MacBurst &burst);

    /** ACTs issued to this bank. */
    std::uint64_t activations() const { return _activations; }
    /** RDs issued to this bank. */
    std::uint64_t reads() const { return _reads; }
    /** WRs issued to this bank. */
    std::uint64_t writes() const { return _writes; }
    /** PIM_MACs issued to this bank, bursts included. */
    std::uint64_t pimMacs() const { return _pimMacs; }

  private:
    static constexpr std::size_t
    commandIndex(CommandType type)
    {
        return static_cast<std::size_t>(type);
    }

    /** Set the earliest-issue tick for all three column classes. */
    void
    setColumnEarliest(Tick when)
    {
        _earliest[commandIndex(CommandType::Rd)] = when;
        _earliest[commandIndex(CommandType::Wr)] = when;
        _earliest[commandIndex(CommandType::PimMac)] = when;
    }

    const BankTimingTable *_tt;

    std::optional<std::uint32_t> _openRow;
    Tick _rowOpenAt = 0; ///< Tick at which the activating row is usable.

    /** Earliest legal issue tick per CommandType. */
    Tick _earliest[commandTypeCount] = {};

    std::uint64_t _activations = 0;
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
    std::uint64_t _pimMacs = 0;
};

} // namespace papi::dram

#endif // PAPI_DRAM_BANK_HH
