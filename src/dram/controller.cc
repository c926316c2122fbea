#include "dram/controller.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace papi::dram {

using sim::Tick;

MemController::MemController(sim::EventQueue &eq, const DramSpec &spec,
                             SchedulingPolicy policy,
                             MappingPolicy mapping,
                             std::size_t queue_depth)
    : _eq(eq), _spec(spec), _channel(spec), _mapping(spec.org, mapping),
      _policy(policy), _queueDepth(queue_depth),
      _stats("mem_controller"),
      _statReads(_stats.addScalar("reads", "column read commands")),
      _statWrites(_stats.addScalar("writes", "column write commands")),
      _statRowHits(_stats.addScalar("row_hits",
                                    "column accesses hitting an open "
                                    "row")),
      _statRowMisses(_stats.addScalar("row_misses",
                                      "accesses to a closed bank")),
      _statRowConflicts(_stats.addScalar("row_conflicts",
                                         "accesses needing a precharge "
                                         "first")),
      _statRefreshes(_stats.addScalar("refreshes",
                                      "all-bank refreshes issued"))
{
    scheduleRefresh();
}

bool
MemController::enqueue(MemRequest req)
{
    if (_queueDepth != 0 && _queue.size() >= _queueDepth)
        return false;

    req.arrival = _eq.now();
    req.id = _nextId++;
    if (!_sawRequest) {
        _firstArrival = req.arrival;
        _sawRequest = true;
    }

    Pending p;
    p.coord = _mapping.decompose(req.addr);
    p.req = std::move(req);
    _queue.push_back(std::move(p));

    scheduleService(_eq.now());
    return true;
}

void
MemController::setRefreshEnabled(bool enabled)
{
    if (enabled && !_refreshEnabled)
        scheduleRefresh(); // re-arm the periodic refresh event
    _refreshEnabled = enabled;
}

double
MemController::rowHitRate() const
{
    // Every request is either a hit (no ACT needed) or a miss (one
    // ACT, possibly preceded by a PRE counted separately as conflict).
    std::uint64_t total = _rowHits + _rowMisses;
    return total == 0 ? 0.0
                      : static_cast<double>(_rowHits) /
                            static_cast<double>(total);
}

double
MemController::meanLatency() const
{
    return _completed == 0 ? 0.0
                           : static_cast<double>(_latencySumTicks) /
                                 static_cast<double>(_completed);
}

double
MemController::achievedBandwidth() const
{
    if (!_sawRequest || _lastCompletion <= _firstArrival)
        return 0.0;
    double secs = sim::ticksToSeconds(_lastCompletion - _firstArrival);
    return static_cast<double>(_bytesTransferred) / secs;
}

void
MemController::scheduleService(Tick when)
{
    if (_servicePending && _servicePendingAt <= when)
        return;
    _servicePending = true;
    _servicePendingAt = when;
    // Superseding an already-scheduled (later) service event must
    // neutralize it, or every completion-driven enqueue would leave a
    // stale event that re-runs service() and re-schedules itself -
    // event counts then grow superlinearly with request count (the
    // original implementation had exactly that pathology). The token
    // makes stale events fire once as cheap no-ops.
    const std::uint64_t token = ++_serviceToken;
    _eq.schedule(when, [this, token] {
        if (token != _serviceToken)
            return; // superseded by a newer service event
        _servicePending = false;
        service();
    });
}

std::list<MemController::Pending>::iterator
MemController::pickNext()
{
    if (_queue.empty())
        return _queue.end();

    if (_policy == SchedulingPolicy::Fcfs)
        return _queue.begin();

    // FR-FCFS: oldest request whose target row is already open wins;
    // otherwise the oldest request overall.
    for (auto it = _queue.begin(); it != _queue.end(); ++it) {
        const auto &b = _channel.bank(it->coord.bankGroup,
                                      it->coord.bank);
        if (b.openRow() && *b.openRow() == it->coord.row)
            return it;
    }
    return _queue.begin();
}

void
MemController::service()
{
    const Tick now = _eq.now();

    // Issue everything legal at this tick in one pass, then schedule
    // the next service event directly at the earliest tick the next
    // command could go out. (The command bus spaces commands by tCK,
    // so in practice one command issues per tick; the point is to
    // avoid the tick-by-tick polling events a naive "retry at now+1"
    // would generate - they used to double the event count.)
    while (true) {
        if (_refreshDue) {
            doRefresh();
            return;
        }

        auto it = pickNext();
        if (it == _queue.end())
            return;

        const Coord &c = it->coord;
        const auto &b = _channel.bank(c.bankGroup, c.bank);

        // Decide the next command for this request under open-page
        // policy.
        Command cmd;
        cmd.coord = c;
        if (b.openRow()) {
            if (*b.openRow() == c.row) {
                cmd.type = it->req.isWrite ? CommandType::Wr
                                           : CommandType::Rd;
            } else {
                cmd.type = CommandType::Pre;
            }
        } else {
            cmd.type = CommandType::Act;
        }

        Tick earliest = _channel.earliestIssue(cmd, now);
        if (earliest > now) {
            scheduleService(earliest);
            return;
        }

        Tick done = _channel.issue(cmd, now);

        if (cmd.type == CommandType::Rd ||
            cmd.type == CommandType::Wr) {
            // A hit means this request needed no activate of its own.
            if (!it->causedActivate) {
                ++_rowHits;
                _statRowHits += 1;
            }
            if (cmd.type == CommandType::Rd)
                _statReads += 1;
            else
                _statWrites += 1;

            // Keep the completion capture small (<= the event queue's
            // inline buffer): only the arrival tick and the user
            // callback ride along; the completion tick is the event's
            // own execution time.
            Tick arrival = it->req.arrival;
            auto on_complete = std::move(it->req.onComplete);
            _queue.erase(it);
            _bytesTransferred += _spec.org.accessBytes;

            _eq.schedule(done, [this, arrival,
                                on_complete =
                                    std::move(on_complete)]() mutable {
                const Tick t = _eq.now();
                ++_completed;
                _latencySumTicks += t - arrival;
                _lastCompletion = std::max(_lastCompletion, t);
                if (on_complete)
                    on_complete(t);
            });
        } else if (cmd.type == CommandType::Act) {
            ++_rowMisses;
            _statRowMisses += 1;
            it->causedActivate = true;
        } else if (cmd.type == CommandType::Pre) {
            ++_rowConflicts;
            _statRowConflicts += 1;
        }

        if (_queue.empty())
            return;
        // Loop: more work may be issueable at this very tick; if not,
        // the next iteration computes its exact earliest tick and
        // schedules the service event there.
    }
}

void
MemController::scheduleRefresh()
{
    if (_spec.timing.tREFI == 0)
        return;
    // The periodic event re-arms itself only while refresh is
    // enabled, so draining simulations (EventQueue::run() without a
    // horizon) terminate once refresh is disabled.
    _eq.scheduleAfter(_spec.timing.tREFI, [this] {
        if (!_refreshEnabled)
            return;
        _refreshDue = true;
        scheduleService(_eq.now());
        scheduleRefresh();
    });
}

void
MemController::doRefresh()
{
    const Tick now = _eq.now();

    // Close any open banks first.
    for (std::uint32_t g = 0; g < _spec.org.bankGroups; ++g) {
        for (std::uint32_t i = 0; i < _spec.org.banksPerGroup; ++i) {
            const auto &b = _channel.bank(g, i);
            if (!b.openRow())
                continue;
            Command pre{CommandType::Pre, Coord{g, i, 0, 0}};
            Tick earliest = _channel.earliestIssue(pre, now);
            if (earliest > now) {
                scheduleService(earliest);
                return;
            }
            _channel.issue(pre, now);
        }
    }

    // All banks closed; wait until every bank can take REF (the
    // precharges have settled, tRP), then refresh.
    const Tick ready = _channel.refreshEarliest(now);
    if (ready > now) {
        scheduleService(ready);
        return;
    }

    _channel.refresh(now);
    _statRefreshes += 1;
    _refreshDue = false;

    if (!_queue.empty())
        scheduleService(now + _spec.timing.tRFC);
}

} // namespace papi::dram
