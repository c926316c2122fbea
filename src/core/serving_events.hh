/**
 * @file
 * The event-driven serving core: ServingSim lifecycles on one
 * sim::EventQueue.
 *
 * ServingEventDriver composes N event-driven replicas (each a
 * core::ServingSim) on a single shared event queue, exposing the
 * serving lifecycle - arrival delivery, admission (including
 * batch-level fill timeouts), iteration boundaries, preemption
 * resume, completion - as scheduled events instead of a hand-rolled
 * peek-and-step co-simulation loop. Seconds map onto the queue's
 * tick axis through sim::orderedTick's order-preserving encoding, so
 * the event order is *exactly* the (time, kind, replica-index,
 * sequence) order the retired manual loop produced:
 *
 *  - arrival events fire before a same-time iteration boundary
 *    (priority 0 vs 10+g), so boundary admissions see them;
 *  - same-time boundaries of different replicas fire lowest index
 *    first (priority 10+g);
 *  - batch-level admission deadlines fire after same-time arrivals
 *    and before boundaries (priority 5);
 *  - KV-transfer completions (disaggregated prefill -> decode
 *    migration) fire after same-time arrivals and before deadlines
 *    and boundaries (priority 2), so a decode replica's same-instant
 *    admission sees the migrated request.
 *
 * Two drive modes share the machinery:
 *
 *  - runStream() / runStreamGenerated(): arrivals are delivered at
 *    their timestamps through a caller-supplied routing function
 *    (the cluster path). Both use one arrival path: a global event
 *    per same-timestamp burst, which schedules the next burst when
 *    it runs; runStream feeds it from a cursor over the vector
 *    unless the pre-routed fast path applies (see
 *    setStateIndependentRouting). Batch-level admission works here
 *    because the queue gives the needed lookahead for free: a batch
 *    starts when it fills (maxRlp pending), when the fill timeout
 *    expires, or when the stream is exhausted - whichever event
 *    fires first.
 *  - runPredelivered(): the whole stream is already in the sims'
 *    pending queues (the single-platform ServingEngine::run path);
 *    only idle-admission and boundary events are scheduled, and the
 *    executed operation sequence is exactly the historical
 *    while(canStep) step() loop - which is what keeps the
 *    fixed-seed serving pins bit-identical.
 *
 * Parallel execution (setWorkerThreads): replicas shard across a
 * sim::ParallelTimeline - each replica's private lifecycle events
 * (iteration boundaries, fill deadlines, pre-routed arrival
 * deliveries) live on its own shard queue, while every event that
 * reads or writes cross-replica state (dynamically-routed arrivals,
 * KV-transfer completions, fault crash/restart/retry, and the whole
 * lifecycle of disaggregated prefill replicas, whose handoffs probe
 * decode loads) stays on the coordinator's global queue. Windows are
 * committed in lockstep: shards advance strictly below the next
 * global event's (tick, priority) key in parallel, then the global
 * event runs at the barrier seeing exactly the serial state. Because
 * global and shard priorities never collide at a tick, the executed
 * order *per replica* - and therefore every ServingResult bit - is
 * identical for any worker count, including 1 (the pinned oracle).
 */

#ifndef PAPI_CORE_SERVING_EVENTS_HH
#define PAPI_CORE_SERVING_EVENTS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "core/serving_engine.hh"
#include "interconnect/link.hh"
#include "llm/arrival.hh"
#include "sim/fault_plan.hh"
#include "sim/parallel_timeline.hh"
#include "sim/timeline.hh"

namespace papi::core {

/** Routing decision: the replica index an arrival is delivered to. */
using RouteFn =
    std::function<std::uint32_t(const llm::TimedRequest &)>;

/**
 * Static shape of a disaggregated prefill/decode deployment on one
 * driver: the first @ref prefillReplicas sims form the prefill pool
 * (arrivals route there; their completed prefills hand off), the
 * rest form the decode pool (handoffs migrate there as timed KV
 * transfers costed over @ref transferLink).
 */
struct DisaggTopology
{
    /** sims[0 .. prefillReplicas) are the prefill pool; must leave
     *  at least one decode replica. */
    std::uint32_t prefillReplicas = 0;
    /** Fabric the KV migration is costed over (latency + message
     *  overhead + bytes/bandwidth per transfer). */
    interconnect::Link transferLink;
};

/** Aggregate KV-migration accounting of one disaggregated run. */
struct KvTransferStats
{
    std::uint64_t transfers = 0; ///< Migrations performed.
    std::uint64_t bytes = 0;     ///< KV block bytes moved in total.
    /** Summed per-transfer link occupancy (transfers overlap with
     *  compute on both pools, so this is fabric time, not makespan).
     *  Includes the occupancy of timed-out (abandoned) transfers. */
    double linkSeconds = 0.0;
    double joules = 0.0;         ///< Link transfer energy.
    /** Migrations that fell back to decode-pool prompt recompute:
     *  the transfer timed out under a link fault, or its destination
     *  replica died while the KV was in flight. */
    std::uint64_t fallbacks = 0;
};

/** N event-driven serving replicas composed on one event queue. */
class ServingEventDriver
{
  public:
    /**
     * @param sims The replica simulations to drive; borrowed, must
     *        outlive the driver. At least one.
     */
    explicit ServingEventDriver(std::vector<ServingSim *> sims);

    /**
     * Split the replicas into a prefill and a decode pool (see
     * DisaggTopology) before running. Completed prefills become
     * timed KV-transfer events: the handoff's block bytes are
     * costed over the topology's link and delivered to the
     * least-loaded decode replica (outstanding work plus in-flight
     * migrations; ties toward the lowest index) when the transfer
     * completes - overlapping with ongoing compute on both pools,
     * but serialized against other migrations on the shared link
     * (aggregate transfer throughput is capped at its bandwidth).
     */
    void enableDisaggregation(const DisaggTopology &topology);

    /** KV-migration totals of the finished run. */
    const KvTransferStats &transferStats() const { return _xfer; }

    /**
     * The queue counters of WorkCounters (events scheduled, executed
     * and overflowed, bucket advances, summed over the global and
     * shard queues, and windows, the global events executed); every
     * other field is 0.
     */
    WorkCounters queueWork() const;

    /**
     * Shard the replicas across @p threads concurrent executors
     * (including the caller; 1 = serial, the default). Any thread
     * count produces byte-for-byte the run of threads == 1: the
     * window protocol preserves each replica's event order exactly,
     * and per-replica state is confined to its shard.
     */
    void setWorkerThreads(unsigned threads);

    /**
     * Declare that runStream's routing function is *state
     * independent*: its decisions depend only on the request and the
     * router's own internal state (e.g. a round-robin cursor or a
     * session hash), never on replica load, clocks, or liveness.
     * The driver may then call it for the whole stream up front and
     * post each replica's arrivals directly onto its shard - the
     * zero-barrier fast path that makes worker threads pay off.
     * Precondition (the caller's to uphold): no disaggregation, no
     * fault plan (liveness never changes), token-level admission.
     * Off by default; dynamic routing stays exact via windowed
     * barriers at every arrival burst.
     */
    void
    setStateIndependentRouting(bool on)
    {
        _routeIndependent = on;
    }

    /**
     * Serve @p stream to completion: every arrival is scheduled at
     * its timestamp, routed through @p route at delivery time, and
     * the replicas' admission/boundary events interleave with the
     * arrivals on the shared queue. @p stream must be non-empty and
     * sorted by arrival; @p route must return an index < the
     * replica count.
     */
    void runStream(const std::vector<llm::TimedRequest> &stream,
                   const RouteFn &route);

    /**
     * Serve @p count arrivals pulled one at a time from @p next -
     * the constant-memory streaming path: the driver holds at most
     * a one-arrival lookahead instead of the materialized stream, so
     * a million-request run costs the same driver memory as a
     * ten-request run. Same-timestamp arrivals are grouped into one
     * delivery burst exactly as runStream groups them (the pulled
     * lookahead decides burst membership), so a generator emitting
     * the same sequence as a materialized vector produces a
     * byte-identical run. Pulled arrivals must be non-decreasing in
     * time (fatal otherwise); @p count must be >= 1. Never takes the
     * pre-routed fast path: the pull itself is inherently
     * sequential, so arrivals stay global (barrier) events.
     */
    void
    runStreamGenerated(const std::function<llm::TimedRequest()> &next,
                       std::uint64_t count, const RouteFn &route);

    /**
     * Drive replicas whose pending queues were filled up front
     * (no arrival events; admission sees the full stream, which is
     * what the batch-level fill rule's lookahead semantics and the
     * historical single-platform pins require).
     */
    void runPredelivered();

    // ---- Fault-injection hooks (driven by cluster::FaultInjector;
    // ---- unused = zero behavioral change, pinned byte-identical).

    /**
     * Fail-stop replica @p g at @p when: mark it down (no boundary,
     * poke, or deadline fires for it until restart), harvest every
     * in-flight and queued request (see ServingSim::crash), and
     * return the harvest for the caller's retry policy. A crash on
     * an already-down replica is a no-op (empty harvest).
     */
    std::vector<LostRequest> crashReplica(std::uint32_t g,
                                          double when);

    /**
     * Bring replica @p g back at @p when (cold start complete):
     * clears the down mark and starts draining anything that queued
     * on it while it was dark. No-op if not down.
     */
    void restartReplica(std::uint32_t g, double when);

    /**
     * Resubmit @p request to replica @p g, eligible for admission at
     * @p ready_seconds (the retry-backoff time; the original arrival
     * is preserved for latency accounting). The prompt is recomputed
     * from scratch - crashed KV is gone.
     */
    void redeliver(std::uint32_t g,
                   const llm::TimedRequest &request,
                   double ready_seconds);

    /** True while replica @p g is crashed and not yet restarted. */
    bool
    isDown(std::uint32_t g) const
    {
        return _down[g];
    }

    /** Number of replicas on this driver. */
    std::size_t replicaCount() const { return _sims.size(); }

    /** Replica @p g (borrowed; for stats/occupancy inspection). */
    ServingSim &replica(std::uint32_t g) { return *_sims[g]; }

    /**
     * How many leading replicas arrivals may be routed to: the
     * prefill pool under disaggregation, every replica otherwise.
     */
    std::uint32_t
    routeWidth() const
    {
        return _disagg ? _topology.prefillReplicas
                       : static_cast<std::uint32_t>(_sims.size());
    }

    /** The committed global position on the seconds axis. */
    double
    nowSeconds() const
    {
        return sim::orderedSeconds(_timeline.committedTick());
    }

    /**
     * Schedule @p fn at @p seconds with the fault priority: after
     * same-time arrivals (faults see a consistent delivered state),
     * before transfers, deadlines, and boundaries (a same-instant
     * boundary on a crashing replica must not execute first).
     */
    void scheduleAt(double seconds, std::function<void()> fn);

    /**
     * Degrade the disaggregated KV-migration fabric per @p windows
     * (sorted, non-overlapping; see sim::LinkFault). A migration
     * whose link time would exceed @p timeout_seconds is abandoned
     * and falls back to decode-pool prompt recompute. Requires a
     * disaggregated topology; an empty window list keeps the
     * byte-identical nominal transfer path.
     */
    void setLinkFaults(std::vector<sim::LinkFault> windows,
                       double timeout_seconds);

    /** Called when a KV-migration fallback finds no alive decode
     *  replica: the request cannot make progress here. */
    using UnrecoverableFn =
        std::function<void(const llm::TimedRequest &, double)>;

    /** Install the no-alive-decode-replica handler (fatal without
     *  one if the case ever fires). */
    void
    setUnrecoverableHandler(UnrecoverableFn fn)
    {
        _onUnrecoverable = std::move(fn);
    }

  private:
    /** Arrival events (delivery + routing). */
    static constexpr sim::Priority kArrivalPriority = 0;
    /** Fault events (crash/restart/retry resubmission): after
     *  same-time arrivals, before everything else - a crash beats a
     *  same-instant boundary, and a restart armed from the plan
     *  fires before a dynamically-scheduled same-time resubmit
     *  (insertion order breaks the tie). */
    static constexpr sim::Priority kFaultPriority = 1;
    /** KV-transfer completions (prefill -> decode migration): after
     *  same-time arrivals, before any boundary, so a decode
     *  replica's same-instant admission sees the migrated request. */
    static constexpr sim::Priority kTransferPriority = 2;
    /** Batch-level fill-timeout deadlines. */
    static constexpr sim::Priority kDeadlinePriority = 5;
    /** Iteration boundaries; +replica index breaks same-time ties
     *  toward the lowest index. */
    static constexpr sim::Priority kBoundaryPriority = 10;

    // ---- compile-time contract --------------------------------
    // The same-instant event order (arrivals, then faults, then KV
    // transfers, then admission deadlines, then boundaries) IS the
    // cross-replica determinism contract: every bit-identity pin -
    // the serial-vs-parallel grid included - assumes it. Reordering
    // these constants is a semantic change that must re-golden the
    // suite, so it fails compilation instead of passing silently.
    static_assert(kArrivalPriority < kFaultPriority &&
                      kFaultPriority < kTransferPriority &&
                      kTransferPriority < kDeadlinePriority &&
                      kDeadlinePriority < kBoundaryPriority,
                  "same-instant event priority table reordered: "
                  "every determinism golden depends on arrivals < "
                  "faults < transfers < deadlines < boundaries");

    /** True when replica @p g's lifecycle events must run on the
     *  coordinator's global queue: disaggregated prefill replicas
     *  read decode-pool loads and write link/transfer state at every
     *  boundary, so their windows are global by construction. */
    bool
    coordinatorOwned(std::uint32_t g) const
    {
        return _disagg && g < _topology.prefillReplicas;
    }

    /**
     * Schedule @p fn for replica @p g at @p seconds. Coordinator-
     * owned replicas go on the global queue (clamped to its now, the
     * serial semantics); everything else goes on shard @p g, clamped
     * to max(shard now, committed edge) - the exact clamp floor the
     * single shared queue applied, whether the caller is a shard
     * event (shard now == the serial now) or a barrier-side global
     * event (committed edge == the serial now).
     */
    template <typename F>
    void
    scheduleReplica(std::uint32_t g, double seconds,
                    sim::Priority prio, F &&fn)
    {
        sim::Tick when = sim::orderedTick(seconds);
        if (coordinatorOwned(g)) {
            sim::EventQueue &q = _timeline.global();
            if (when < q.now())
                when = q.now();
            q.schedule(when, std::forward<F>(fn), prio);
            return;
        }
        sim::EventQueue &q = _timeline.shard(g);
        const sim::Tick edge = _timeline.committedTick();
        if (when < edge)
            when = edge;
        if (when < q.now())
            when = q.now();
        q.schedule(when, std::forward<F>(fn), prio);
    }

    /** Schedule a cross-replica event on the coordinator's global
     *  queue (clamped to its now). Coordinator context only. */
    template <typename F>
    void
    scheduleGlobal(double seconds, sim::Priority prio, F &&fn)
    {
        sim::EventQueue &q = _timeline.global();
        sim::Tick when = sim::orderedTick(seconds);
        if (when < q.now())
            when = q.now();
        q.schedule(when, std::forward<F>(fn), prio);
    }

    /** True when this run can pre-route the whole stream onto the
     *  shards (see setStateIndependentRouting). */
    bool fastPathEligible() const;
    /** Pre-route @p stream and post per-shard arrival events. */
    void preRouteStream(const std::vector<llm::TimedRequest> &stream,
                        const RouteFn &route);
    /** Drain global + shard queues (builds the pool on demand). */
    void runQueues();

    /** Resolve an idle replica with pending/parked work. */
    void idlePoke(std::uint32_t g);
    /** Start (or restart) a batch on an idle replica. */
    void startBatch(std::uint32_t g);
    /** Schedule replica @p g's next iteration-boundary event. */
    void scheduleBoundary(std::uint32_t g);
    /** One iteration boundary: decode, admit, reschedule. */
    void boundary(std::uint32_t g);
    /** After any delivery burst: resolve all idle replicas. */
    void pokeIdleReplicas();
    /** Verify every replica drained completely (post-run). */
    void checkDrained() const;

    /** Collect replica @p g's completed prefills and schedule their
     *  KV-transfer events (no-op without handoffs). */
    void drainHandoffs(std::uint32_t g);
    /** Least-loaded decode replica (outstanding + in-flight),
     *  preferring alive ones; falls back to the full scan when the
     *  whole decode pool is down (caught again at completion). */
    std::uint32_t pickDecodeReplica() const;
    /** Least-loaded *alive* decode replica, or kNoReplica. */
    std::uint32_t pickAliveDecodeReplica() const;
    /** KV lost in flight: recompute the prompt from scratch on an
     *  alive decode replica, or hand to the unrecoverable handler. */
    void fallbackRecompute(const llm::TimedRequest &request,
                           double when);

    /** Sentinel: no replica qualifies. */
    static constexpr std::uint32_t kNoReplica = ~std::uint32_t{0};

    /** A KV migration in flight on the transfer fabric. */
    struct PendingTransfer
    {
        llm::TimedRequest request;  ///< Original arrival preserved.
        double doneSeconds = 0.0;   ///< Transfer-complete time.
        std::uint64_t kvTokens = 0; ///< Migrated context tokens.
        std::uint32_t target = 0;   ///< Destination decode replica.
    };

    std::vector<ServingSim *> _sims;
    /** One shard queue per replica plus the coordinator's global
     *  queue, advanced in lockstep windows. */
    sim::ParallelTimeline _timeline;
    unsigned _workerThreads = 1; ///< Executors incl. the caller.
    bool _routeIndependent = false; ///< Pre-routing allowed.
    /** Fast path: per-shard arrival indices into the caller's
     *  stream, in stream order (cleared after the run). */
    std::vector<std::vector<std::uint32_t>> _preRouted;
    bool _streamed = false;     ///< runStream vs runPredelivered.
    std::size_t _undelivered = 0; ///< Arrivals not yet delivered.
    /** Per-replica deadline generation; stale events no-op. */
    std::vector<std::uint64_t> _deadlineGen;
    /** Per-replica: a live deadline event is outstanding. Stored as
     *  bytes, not vector<bool>: shard events on distinct replicas
     *  write their own flag concurrently, and vector<bool>'s packed
     *  bits would make neighbouring replicas share a byte (a data
     *  race under the window protocol). */
    std::vector<std::uint8_t> _deadlineArmed;
    /** Per-replica down mark (crashed, awaiting restart); bytes for
     *  the same reason as _deadlineArmed. */
    std::vector<std::uint8_t> _down;
    /** Per-replica boundary generation: bumped at crash so a
     *  scheduled boundary of the dead batch no-ops. */
    std::vector<std::uint64_t> _boundaryGen;

    bool _disagg = false;       ///< Disaggregated topology active.
    DisaggTopology _topology;
    KvTransferStats _xfer;
    /** In-flight migration payloads; events capture stable indices
     *  into this store (entries outlive their events). */
    std::deque<PendingTransfer> _transferStore;
    /** Per-replica migrations in flight toward it (load signal). */
    std::vector<std::uint32_t> _inFlightTo;
    /** The shared transfer link frees up at this time: concurrent
     *  migrations queue (aggregate throughput is capped at the
     *  link's bandwidth, not multiplied by transfer count). */
    double _linkBusyUntil = 0.0;
    /** Link degradation windows (empty = nominal fabric). */
    std::vector<sim::LinkFault> _linkFaults;
    /** Abandon a migration whose link time exceeds this. */
    double _transferTimeoutSeconds =
        std::numeric_limits<double>::infinity();
    UnrecoverableFn _onUnrecoverable;
};

} // namespace papi::core

#endif // PAPI_CORE_SERVING_EVENTS_HH
