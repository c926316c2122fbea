/**
 * @file
 * A discrete-event simulation kernel.
 *
 * Events are closures scheduled at absolute ticks. Ties are broken by
 * (priority, insertion order) so simulations are fully deterministic.
 * The queue is the single source of simulated time for a simulation
 * instance; devices never keep their own notion of "now".
 *
 * EventQueue is an allocation-free two-level calendar queue
 * (near-future ticks live in fixed-width buckets, far-future events
 * in a binary-heap overflow) holding small-buffer-optimized callbacks
 * (sim::EventCallback). Its execution order is exactly the
 * (tick, priority, seq) total order; tests/sim_event_queue_test.cc
 * checks it against a test-local ordered-map oracle.
 */

#ifndef PAPI_SIM_EVENT_QUEUE_HH
#define PAPI_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/event_callback.hh"
#include "sim/types.hh"

namespace papi::sim {

/** Scheduling priority; lower values run first within a tick. */
using Priority = std::int32_t;

/** Default priority for ordinary device events. */
constexpr Priority defaultPriority = 0;
/** Priority for stats/bookkeeping events that run after device events. */
constexpr Priority statsPriority = 1000;

/**
 * Deterministic discrete-event queue.
 *
 * The queue owns simulated time. run() drains events until the queue is
 * empty or a simulation horizon is reached; step() executes exactly one
 * event. Events scheduled in the past cause a panic since that always
 * indicates a simulator bug.
 *
 * Internally a two-level calendar queue: ticks within
 * [windowStart, windowStart + numBuckets * bucketWidth) hash into
 * fixed-width buckets (appended unsorted, sorted once when the bucket
 * becomes current), later ticks sit in a min-heap overflow that is
 * drained into the window as it advances. All paths are allocation-free
 * in steady state: bucket vectors and the run buffer retain their
 * capacity, and callbacks with captures <= EventCallback::inlineCapacity
 * bytes never touch the heap.
 */
class EventQueue
{
  public:
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick now() const { return _now; }

    /** Number of events pending execution. */
    std::size_t pending() const { return _size; }

    /** True if no events are pending. */
    bool empty() const { return _size == 0; }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Schedule a closure to run at an absolute tick.
     *
     * Inlined so the closure is type-erased directly into queue
     * storage - the hot path constructs exactly one EventCallback,
     * in place, with no intermediate moves.
     *
     * @param when Absolute tick; must be >= now().
     * @param fn Closure to run.
     * @param prio Tie-break priority (lower runs first).
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn, Priority prio = defaultPriority)
    {
        if (when < _now)
            pastPanic(when);
        if constexpr (std::is_constructible_v<
                          bool, const std::decay_t<F> &>) {
            if (!static_cast<bool>(fn))
                nullPanic(when);
        }

        const std::uint64_t seq = _nextSeq++;
        if (when > curBucketEnd() && when <= windowEnd()) {
            const std::size_t idx =
                static_cast<std::size_t>(when >> kShift) & kMask;
            _buckets[idx].emplace_back(when, prio, seq,
                                       std::forward<F>(fn));
            setOccupied(idx);
            ++_inWindow;
        } else if (when <= curBucketEnd()) {
            insertIntoRun(when, prio, seq,
                          EventCallback(std::forward<F>(fn)));
        } else {
            pushOverflow(when, prio, seq,
                         EventCallback(std::forward<F>(fn)));
        }
        ++_size;
    }

    /** Schedule a closure to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&fn, Priority prio = defaultPriority)
    {
        schedule(_now + delta, std::forward<F>(fn), prio);
    }

    /**
     * Execute the single earliest pending event.
     * @retval true an event was executed.
     * @retval false the queue was empty.
     */
    bool step();

    /**
     * Run until the queue is empty or simulated time would exceed
     * @p horizon.
     *
     * @param horizon Last tick (inclusive) at which events may run.
     * @return The tick of the last executed event, or now() if none ran.
     */
    Tick run(Tick horizon = maxTick);

    /**
     * Read the (tick, priority) key of the earliest pending event
     * without executing it. Non-const because locating the head may
     * drain calendar buckets into the sorted run buffer; the event
     * order is unchanged.
     *
     * @retval true @p when / @p prio hold the head event's key.
     * @retval false the queue is empty (outputs untouched).
     */
    bool peekNextKey(Tick &when, Priority &prio);

    /**
     * Run every event whose (tick, priority) key is strictly below
     * (@p when, @p prio); the first event at or past the bound stays
     * queued. This is the conservative-window primitive of
     * sim::ParallelTimeline: a shard advances to (but never into)
     * the next cross-shard event's key. now() is left at the last
     * executed event, so later schedules between now() and the bound
     * remain legal.
     */
    void runUntilKey(Tick when, Priority prio);

    /** Drop all pending events without executing them. */
    void clear();

    /** Calendar geometry (exposed for boundary-case tests). */
    static constexpr Tick bucketWidth() { return Tick(1) << kShift; }
    static constexpr std::size_t numBuckets() { return kBuckets; }

  private:
    /** log2 of the tick range covered by one bucket. */
    static constexpr unsigned kShift = 7;
    /** Buckets in the calendar window (power of two). */
    static constexpr std::size_t kBuckets = 8192;
    static constexpr std::size_t kMask = kBuckets - 1;
    static constexpr Tick kSpan = Tick(kBuckets) << kShift;
    /** Up to this many buckets are batched into one drain run. */
    static constexpr std::size_t kMaxStores = 4;
    /** Stop batching once a drain run holds this many events. */
    static constexpr std::size_t kBatchTarget = 8;

    struct Entry
    {
        Tick when;
        Priority prio;
        std::uint64_t seq; // insertion order for determinism
        EventCallback fn;
    };

    /**
     * Sort key for the current drain run: ordering fields plus the
     * entry's location packed as (store index << 20) | entry index.
     * Sorting 24-byte keys instead of 80-byte entries keeps the
     * per-run sort cheap. The high bit selects the spill store.
     */
    struct RunKey
    {
        Tick when;
        Priority prio;
        std::uint32_t idx;
        std::uint64_t seq;
    };

    static constexpr std::uint32_t kExtraFlag = 0x80000000u;
    static constexpr unsigned kStoreShift = 20;
    static constexpr std::uint32_t kEntryMask =
        (1u << kStoreShift) - 1;

    /** Strict (when, prio, seq) "runs later" order. */
    static bool
    laterThan(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.seq > b.seq;
    }

    static bool
    keyLater(const RunKey &a, const RunKey &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.seq > b.seq;
    }

    /** Inclusive last tick of the current bucket. */
    Tick
    curBucketEnd() const
    {
        constexpr Tick w = Tick(1) << kShift;
        return _windowStart > maxTick - w ? maxTick
                                          : _windowStart + w - 1;
    }

    /** Inclusive last tick covered by the calendar window. */
    Tick
    windowEnd() const
    {
        return _windowStart > maxTick - kSpan
                   ? maxTick
                   : _windowStart + kSpan - 1;
    }

    void insertIntoRun(Tick when, Priority prio, std::uint64_t seq,
                       EventCallback &&fn);
    void pushOverflow(Tick when, Priority prio, std::uint64_t seq,
                      EventCallback &&fn);
    void dispatch(const RunKey &key);
    void refillFromOverflow();

    [[noreturn]] void pastPanic(Tick when) const;
    [[noreturn]] void nullPanic(Tick when) const;
    /** Make _run hold the next bucket's entries (requires _size > 0). */
    void advanceToNextBucket();
    /** Ensure _run.back() is the next event (requires _size > 0). */
    void prepareNext();

    void setOccupied(std::size_t idx);
    void clearOccupied(std::size_t idx);
    /** Circular distance from _curIdx to the next occupied bucket. */
    std::size_t nextOccupiedDistance() const;

    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::size_t _size = 0;

    /**
     * The current drain run: up to kMaxStores bucket vectors swapped
     * in whole (no per-entry moves). The stores are frozen while the
     * run executes (so closures can run in place without reallocation
     * moving the ground under them); re-entrant schedules landing in
     * the run's tick range append to the _runExtra spill store.
     */
    std::vector<Entry> _runStores[kMaxStores];
    std::size_t _numStores = 0;
    std::vector<Entry> _runExtra;
    /** Execution order over all stores, earliest key at the back. */
    std::vector<RunKey> _runOrder;

    std::vector<std::vector<Entry>> _buckets;
    std::uint64_t _occupancy[kBuckets / 64] = {};
    std::size_t _inWindow = 0; ///< Entries in _buckets (not _run).

    std::size_t _curIdx = 0;
    Tick _windowStart = 0; ///< Tick at which bucket _curIdx starts.

    /** Min-heap (via std::push_heap on laterThan) of far-future events. */
    std::vector<Entry> _overflow;

    /** True while an event closure is executing (see clear()). */
    bool _dispatching = false;
    /** Buffers parked by a re-entrant clear() until dispatch ends. */
    std::vector<std::vector<Entry>> _retired;
};

} // namespace papi::sim

#endif // PAPI_SIM_EVENT_QUEUE_HH
