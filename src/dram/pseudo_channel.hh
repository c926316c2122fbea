/**
 * @file
 * A pseudo-channel: a set of bank groups sharing a command/data bus.
 *
 * Enforces the inter-bank constraints (tCCD_S/L column cadence across
 * bank groups, tRRD_S/L activate spacing, the four-activate window
 * tFAW, and single-occupancy of the data bus) on top of each Bank's
 * intra-bank timing.
 *
 * The earliest legal tick of a command splits in two: the bank's own
 * tick (Bank::earliestIssue) and the channel bound (channelEarliest),
 * which depends only on the command type and, for ACT and RD/WR, the
 * bank group. earliestIssue is the max of the two and of `now`, so
 * the rules have one implementation, and a caller that caches a
 * bank's own tick can re-plan it from the bound alone while other
 * banks issue (pim::GemvEngine does).
 */

#ifndef PAPI_DRAM_PSEUDO_CHANNEL_HH
#define PAPI_DRAM_PSEUDO_CHANNEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "dram/bank.hh"
#include "dram/command.hh"
#include "dram/timing.hh"
#include "sim/types.hh"

namespace papi::dram {

/** Command/data fabric for one pseudo-channel. */
class PseudoChannel
{
  public:
    /** A channel of @p spec with every bank closed at tick 0. */
    explicit PseudoChannel(const DramSpec &spec);

    /** Not copyable: the banks point at this channel's timing table. */
    PseudoChannel(const PseudoChannel &) = delete;
    /** Not assignable, for the same reason. */
    PseudoChannel &operator=(const PseudoChannel &) = delete;

    /** The organization and timing the channel enforces. */
    const DramSpec &spec() const { return _spec; }

    /** Number of banks across all bank groups. */
    std::uint32_t numBanks() const { return _spec.org.banks(); }

    /** Access a bank by (group, index-within-group); panics when
     *  either is out of range. */
    Bank &bank(std::uint32_t group, std::uint32_t idx);
    /** Read-only bank(group, idx). */
    const Bank &bank(std::uint32_t group, std::uint32_t idx) const;

    /** Flat bank index helper. */
    std::uint32_t
    flatIndex(std::uint32_t group, std::uint32_t idx) const
    {
        return group * _spec.org.banksPerGroup + idx;
    }

    /**
     * Earliest tick >= @p now at which @p cmd could be issued:
     * max(@p now, the addressed bank's earliestIssue(cmd.type),
     * channelEarliest(cmd.type, cmd.coord.bankGroup)). Does not
     * check row-buffer state compatibility (see canIssue).
     */
    sim::Tick earliestIssue(const Command &cmd, sim::Tick now) const;

    /**
     * The channel-scope bound on a @p type command to a bank of
     * @p bank_group: refresh, the command bus (tCK; PIM_MAC
     * bypasses it), tRRD and tFAW for ACT, and the tCCD column
     * cadence, data-bus occupancy and turnarounds for RD/WR. Only
     * the ACT and RD/WR bounds depend on @p bank_group. Moves only
     * when a command issues or a refresh starts. Panics when
     * @p bank_group is out of range.
     */
    sim::Tick channelEarliest(CommandType type,
                              std::uint32_t bank_group) const;

    /** True if @p cmd is legal at exactly tick @p now. */
    bool canIssue(const Command &cmd, sim::Tick now) const;

    /**
     * Issue @p cmd at tick @p now (must be legal). Returns the
     * completion tick reported by the bank (data end for column
     * commands).
     */
    sim::Tick issue(const Command &cmd, sim::Tick now);

    /**
     * Convenience: wait until @p cmd becomes legal (starting from
     * @p now) and issue it.
     *
     * @param[out] issued_at The tick at which the command went out.
     * @return The completion tick.
     */
    sim::Tick issueAtEarliest(const Command &cmd, sim::Tick now,
                              sim::Tick &issued_at);

    /**
     * Earliest tick >= @p now at which every bank can take an
     * all-bank refresh: the latest bank REF tick (row state aside;
     * refresh needs every bank closed).
     */
    sim::Tick refreshEarliest(sim::Tick now) const;

    /**
     * All-bank refresh: blocks the channel for tRFC. Only legal when
     * every bank is closed and can take REF at @p now (see
     * refreshEarliest); panics otherwise, like issue(), without
     * changing any state. Returns the completion tick.
     */
    sim::Tick refresh(sim::Tick now);

    /** ACTs issued to every bank (stats and energy). */
    std::uint64_t totalActivations() const;
    /** RDs, WRs and PIM_MACs issued to every bank. */
    std::uint64_t totalColumnAccesses() const;
    /** PIM_MACs issued to every bank. */
    std::uint64_t totalPimMacs() const;

  private:
    DramSpec _spec;
    BankTimingTable _bankTiming;
    std::vector<Bank> _banks;

    // Pair tables indexed by (bank group == previous command's group).
    sim::Tick _ccd[2];  ///< {tCCD_S, tCCD_L}.
    sim::Tick _rrd[2];  ///< {tRRD_S, tRRD_L}.

    // Channel-scope timing state.
    sim::Tick _lastColumnAt = 0;
    std::uint32_t _lastColumnGroup = 0;
    bool _anyColumnIssued = false;

    sim::Tick _lastActAt = 0;
    std::uint32_t _lastActGroup = 0;
    bool _anyActIssued = false;

    /** Last four ACT ticks (fixed ring, oldest at _actRingPos). */
    sim::Tick _actRing[4] = {};
    std::uint32_t _actRingPos = 0;
    std::uint32_t _actCount = 0;

    sim::Tick _busFreeAt = 0;         ///< Data bus becomes free.
    sim::Tick _refreshUntil = 0;      ///< Channel blocked by refresh.
    sim::Tick _lastCommandAt = 0;     ///< Command-bus occupancy.
    bool _anyCommandIssued = false;
    bool _lastDataWasWrite = false;   ///< For tWTR / tRTW turnaround.
};

} // namespace papi::dram

#endif // PAPI_DRAM_PSEUDO_CHANNEL_HH
