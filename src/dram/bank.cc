#include "dram/bank.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace papi::dram {

BankTimingTable::BankTimingTable(const TimingParams &t)
    : actToCol(t.tRCD), actToPre(t.tRAS), actToAct(t.tRC),
      preToAct(t.tRP), rdDataDone(t.tCL + t.tBURST),
      wrDataDone(t.tWL + t.tBURST), rdToPre(t.tRTP), wrRecovery(t.tWR),
      refCycle(t.tRFC), colCadence{}
{
    // Near-bank PIM reads use the per-bank prefetch datapath and
    // pipeline at burst cadence (AttAcc-style 20.8 GB/s per bank);
    // external reads/writes pace at the same-bank-group tCCD_L.
    colCadence[static_cast<std::size_t>(CommandType::Rd)] = t.tCCD_L;
    colCadence[static_cast<std::size_t>(CommandType::Wr)] = t.tCCD_L;
    colCadence[static_cast<std::size_t>(CommandType::PimMac)] =
        t.tCCD_S;
}

Bank::State
Bank::state(Tick now) const
{
    if (!_openRow)
        return State::Closed;
    return now >= _rowOpenAt ? State::Open : State::Opening;
}

bool
Bank::canIssue(CommandType type, std::uint32_t row, Tick now) const
{
    if (now < earliestIssue(type))
        return false;

    switch (type) {
      case CommandType::Act:
        return !_openRow.has_value();
      case CommandType::Pre:
        return _openRow.has_value();
      case CommandType::Rd:
      case CommandType::Wr:
      case CommandType::PimMac:
        return _openRow.has_value() && *_openRow == row;
      case CommandType::Ref:
        return !_openRow.has_value();
    }
    return false;
}

Tick
Bank::issue(CommandType type, std::uint32_t row, Tick now)
{
    if (!canIssue(type, row, now)) {
        sim::panic("Bank::issue: illegal ", commandName(type), " row=",
                   row, " at tick ", now, " (earliest=",
                   earliestIssue(type), ")");
    }

    const BankTimingTable &tt = *_tt;
    switch (type) {
      case CommandType::Act: {
        _openRow = row;
        _rowOpenAt = now + tt.actToCol;
        _earliest[commandIndex(CommandType::Pre)] = now + tt.actToPre;
        _earliest[commandIndex(CommandType::Act)] = now + tt.actToAct;
        _earliest[commandIndex(CommandType::Ref)] = now + tt.actToAct;
        // Columns wait for the row to open; a cadence gate left over
        // from the previous row carries across the ACT.
        setColumnEarliest(std::max(
            _earliest[commandIndex(CommandType::Rd)], _rowOpenAt));
        ++_activations;
        return _rowOpenAt;
      }

      case CommandType::Pre: {
        _openRow.reset();
        Tick next_act = std::max(
            _earliest[commandIndex(CommandType::Act)],
            now + tt.preToAct);
        _earliest[commandIndex(CommandType::Act)] = next_act;
        _earliest[commandIndex(CommandType::Ref)] = next_act;
        return now + tt.preToAct;
      }

      case CommandType::Rd:
      case CommandType::PimMac: {
        setColumnEarliest(now + tt.colCadence[commandIndex(type)]);
        // Read-to-precharge and keep tRAS.
        _earliest[commandIndex(CommandType::Pre)] = std::max(
            _earliest[commandIndex(CommandType::Pre)],
            now + tt.rdToPre);
        if (type == CommandType::Rd)
            ++_reads;
        else
            ++_pimMacs;
        return now + tt.rdDataDone;
      }

      case CommandType::Wr: {
        setColumnEarliest(now + tt.colCadence[commandIndex(type)]);
        Tick data_end = now + tt.wrDataDone;
        _earliest[commandIndex(CommandType::Pre)] = std::max(
            _earliest[commandIndex(CommandType::Pre)],
            data_end + tt.wrRecovery);
        ++_writes;
        return data_end;
      }

      case CommandType::Ref: {
        // Handled at channel scope; the bank just blocks ACTs.
        Tick next_act = std::max(
            _earliest[commandIndex(CommandType::Act)],
            now + tt.refCycle);
        _earliest[commandIndex(CommandType::Act)] = next_act;
        _earliest[commandIndex(CommandType::Ref)] = next_act;
        return now + tt.refCycle;
      }
    }
    sim::panic("Bank::issue: bad command type");
}

void
Bank::issueMacBurst(const MacBurst &burst)
{
    // issue() would check each PIM_MAC against the cadence its
    // predecessor set, so the first against the bank's earliest tick
    // and every later one against the spacing covers them all.
    const BankTimingTable &tt = *_tt;
    const Tick cadence =
        tt.colCadence[commandIndex(CommandType::PimMac)];
    if (burst.count == 0 || burst.last < burst.first ||
        burst.minGap < cadence ||
        !canIssue(CommandType::PimMac, burst.row, burst.first)) {
        sim::panic("Bank::issueMacBurst: illegal burst of ",
                   burst.count, " PIM_MACs row=", burst.row,
                   " at ticks ", burst.first, "..", burst.last,
                   " min gap ", burst.minGap, " (earliest=",
                   earliestIssue(CommandType::PimMac), " cadence=",
                   cadence, ")");
    }
    // The ticks never decrease, so the last PIM_MAC sets both gates.
    setColumnEarliest(burst.last + cadence);
    _earliest[commandIndex(CommandType::Pre)] =
        std::max(_earliest[commandIndex(CommandType::Pre)],
                 burst.last + tt.rdToPre);
    _pimMacs += burst.count;
}

} // namespace papi::dram
