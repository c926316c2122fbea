#include "dram/pseudo_channel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace papi::dram {

using sim::Tick;

PseudoChannel::PseudoChannel(const DramSpec &spec)
    : _spec(spec), _bankTiming(_spec.timing)
{
    const auto n = _spec.org.banks();
    _banks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        _banks.emplace_back(_bankTiming);
    _ccd[0] = _spec.timing.tCCD_S;
    _ccd[1] = _spec.timing.tCCD_L;
    _rrd[0] = _spec.timing.tRRD_S;
    _rrd[1] = _spec.timing.tRRD_L;
}

Bank &
PseudoChannel::bank(std::uint32_t group, std::uint32_t idx)
{
    if (group >= _spec.org.bankGroups || idx >= _spec.org.banksPerGroup)
        sim::panic("PseudoChannel::bank: out of range (", group, ",",
                   idx, ")");
    return _banks[flatIndex(group, idx)];
}

const Bank &
PseudoChannel::bank(std::uint32_t group, std::uint32_t idx) const
{
    if (group >= _spec.org.bankGroups || idx >= _spec.org.banksPerGroup)
        sim::panic("PseudoChannel::bank: out of range (", group, ",",
                   idx, ")");
    return _banks[flatIndex(group, idx)];
}

Tick
PseudoChannel::channelEarliest(CommandType type,
                               std::uint32_t bank_group) const
{
    if (bank_group >= _spec.org.bankGroups)
        sim::panic("PseudoChannel::channelEarliest: bank group ",
                   bank_group, " out of range");
    const auto &t = _spec.timing;
    Tick earliest = _refreshUntil;

    // One command per command-bus cycle; near-bank PIM reads are
    // produced by the per-bank sequencers and bypass the bus.
    if (_anyCommandIssued && type != CommandType::PimMac)
        earliest = std::max(earliest, _lastCommandAt + t.tCK);

    switch (type) {
      case CommandType::Act: {
        if (_anyActIssued) {
            Tick rrd = _rrd[bank_group == _lastActGroup];
            earliest = std::max(earliest, _lastActAt + rrd);
        }
        if (_actCount >= 4) {
            // Fifth activate must wait out the four-activate window;
            // the ring slot about to be overwritten is the oldest of
            // the last four ACTs.
            earliest = std::max(earliest,
                                _actRing[_actRingPos] + t.tFAW);
        }
        break;
      }
      case CommandType::Rd:
      case CommandType::Wr: {
        if (_anyColumnIssued) {
            Tick ccd = _ccd[bank_group == _lastColumnGroup];
            earliest = std::max(earliest, _lastColumnAt + ccd);
        }
        // The data burst of this command (starting tCL/tWL after
        // issue) must not overlap the previous burst; commands may
        // pipeline through the access latency itself.
        Tick data_lat = type == CommandType::Rd ? t.tCL : t.tWL;
        if (_busFreeAt > data_lat)
            earliest = std::max(earliest, _busFreeAt - data_lat);
        // Bus turnaround between writes and reads.
        if (_anyColumnIssued) {
            if (_lastDataWasWrite && type == CommandType::Rd)
                earliest = std::max(earliest, _busFreeAt + t.tWTR);
            if (!_lastDataWasWrite && type == CommandType::Wr &&
                _busFreeAt + t.tRTW > t.tWL)
                earliest = std::max(earliest,
                                    _busFreeAt + t.tRTW - t.tWL);
        }
        break;
      }
      case CommandType::PimMac:
        // Near-bank reads use per-bank datapaths: no shared column
        // fabric or external bus constraints, only bank timing.
        break;
      case CommandType::Pre:
      case CommandType::Ref:
        break;
    }
    return earliest;
}

Tick
PseudoChannel::earliestIssue(const Command &cmd, Tick now) const
{
    const auto &b = bank(cmd.coord.bankGroup, cmd.coord.bank);
    return std::max({now, b.earliestIssue(cmd.type),
                     channelEarliest(cmd.type, cmd.coord.bankGroup)});
}

bool
PseudoChannel::canIssue(const Command &cmd, Tick now) const
{
    if (now < earliestIssue(cmd, now))
        return false;
    const auto &b = bank(cmd.coord.bankGroup, cmd.coord.bank);
    return b.canIssue(cmd.type, cmd.coord.row, now);
}

Tick
PseudoChannel::issue(const Command &cmd, Tick now)
{
    if (!canIssue(cmd, now))
        sim::panic("PseudoChannel::issue: illegal ",
                   commandName(cmd.type), " at tick ", now);

    auto &b = bank(cmd.coord.bankGroup, cmd.coord.bank);
    Tick done = b.issue(cmd.type, cmd.coord.row, now);

    if (cmd.type != CommandType::PimMac) {
        _lastCommandAt = now;
        _anyCommandIssued = true;
    }

    switch (cmd.type) {
      case CommandType::Act:
        _lastActAt = now;
        _lastActGroup = cmd.coord.bankGroup;
        _anyActIssued = true;
        _actRing[_actRingPos] = now;
        _actRingPos = (_actRingPos + 1) & 3;
        ++_actCount;
        break;
      case CommandType::Rd:
      case CommandType::Wr:
        _lastColumnAt = now;
        _lastColumnGroup = cmd.coord.bankGroup;
        _anyColumnIssued = true;
        _busFreeAt = std::max(_busFreeAt, done);
        _lastDataWasWrite = cmd.type == CommandType::Wr;
        break;
      case CommandType::PimMac:
        // Per-bank datapath: no shared channel state to update.
        break;
      case CommandType::Pre:
      case CommandType::Ref:
        break;
    }
    return done;
}

Tick
PseudoChannel::issueAtEarliest(const Command &cmd, Tick now,
                               Tick &issued_at)
{
    issued_at = earliestIssue(cmd, now);
    // earliestIssue guarantees timing legality; row-state legality
    // (right row open etc.) is the caller's responsibility and is
    // re-checked inside issue().
    return issue(cmd, issued_at);
}

Tick
PseudoChannel::refreshEarliest(Tick now) const
{
    Tick ready = now;
    for (const auto &b : _banks)
        ready = std::max(ready, b.earliestIssue(CommandType::Ref));
    return ready;
}

Tick
PseudoChannel::refresh(Tick now)
{
    for (const auto &b : _banks) {
        if (b.openRow().has_value())
            sim::panic("PseudoChannel::refresh: bank still open");
        if (!b.canIssue(CommandType::Ref, 0, now))
            sim::panic("PseudoChannel::refresh: illegal REF at tick ",
                       now, " (earliest=",
                       b.earliestIssue(CommandType::Ref), ")");
    }
    // Apply tRFC to every bank.
    Tick done = now + _spec.timing.tRFC;
    for (auto &b : _banks)
        b.issue(CommandType::Ref, 0, now);
    _refreshUntil = std::max(_refreshUntil, done);
    return done;
}

std::uint64_t
PseudoChannel::totalActivations() const
{
    std::uint64_t sum = 0;
    for (const auto &b : _banks)
        sum += b.activations();
    return sum;
}

std::uint64_t
PseudoChannel::totalColumnAccesses() const
{
    std::uint64_t sum = 0;
    for (const auto &b : _banks)
        sum += b.reads() + b.writes() + b.pimMacs();
    return sum;
}

std::uint64_t
PseudoChannel::totalPimMacs() const
{
    std::uint64_t sum = 0;
    for (const auto &b : _banks)
        sum += b.pimMacs();
    return sum;
}

} // namespace papi::dram
