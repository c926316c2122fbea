/**
 * @file
 * Conservative parallel discrete-event simulation over per-shard
 * EventQueues: a window scheduler plus a worker-thread pool.
 *
 * ParallelTimeline splits one logical simulation into a *global*
 * queue (events that read or write cross-shard state) and N *shard*
 * queues (events that touch exactly one shard's state). The run loop
 * alternates between two phases in lockstep:
 *
 *  1. Window: peek the next global event's (tick, priority) key and
 *     advance every shard's queue strictly below that key - in
 *     parallel across a WorkerPool, since same-window events of
 *     different shards touch disjoint state by contract.
 *  2. Barrier: with all shards quiescent exactly at the window edge,
 *     execute the one global event on the coordinator thread. It
 *     observes precisely the state a single sequential queue would
 *     have presented at its key, so cross-shard effects (routing
 *     decisions, migrations, fault fan-out) are bit-identical to the
 *     serial order.
 *
 * The contract that makes this exact rather than approximately
 * conservative:
 *
 *  - Shard events may schedule only into their own shard queue;
 *    the global queue is coordinator-only (no mid-window mailboxes
 *    to drain, hence no drain-order ambiguity).
 *  - Global and shard events never collide on (tick, priority), so
 *    the strict "below the key" window bound reproduces the serial
 *    total order without comparing cross-queue sequence numbers.
 *  - Each window commits before the next opens: a shard event found
 *    below the committed edge is a lookahead bug and panics loudly
 *    (see advanceShards) instead of silently reordering.
 *
 * Determinism does not depend on which pool thread runs which shard:
 * every shard's event stream is sequential, per-shard state is
 * confined to it, and the pool's mutex/condvar barrier orders each
 * window's writes before the coordinator (or the next window's
 * owner) reads them.
 */

#ifndef PAPI_SIM_PARALLEL_TIMELINE_HH
#define PAPI_SIM_PARALLEL_TIMELINE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace papi::sim {

/**
 * A fixed-size pool of worker threads executing batches of
 * independent tasks. The calling thread participates, so
 * WorkerPool(n) gives n concurrent executors from n-1 spawned
 * threads; n <= 1 spawns nothing and runTasks degrades to a serial
 * loop on the caller.
 */
class WorkerPool
{
  public:
    /** @param workers Concurrent executors, including the caller. */
    explicit WorkerPool(unsigned workers);
    ~WorkerPool();

    /** Non-copyable: the pool owns its threads. */
    WorkerPool(const WorkerPool &) = delete;
    /** Non-copyable (see the copy constructor). */
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Concurrent executors (including the calling thread). */
    unsigned workers() const { return _workers; }

    /**
     * Execute every task in @p tasks across the pool (the caller
     * works too) and block until all complete. Tasks must be
     * mutually independent. A task that throws has its exception
     * captured; after the batch completes, the exception of the
     * lowest task index is rethrown (a deterministic choice when
     * several shards fail in one window).
     */
    void runTasks(std::vector<std::function<void()>> &tasks);

  private:
    void workerLoop();
    /** Claim-and-run loop shared by workers and the caller. */
    void drainTasks();

    unsigned _workers;
    std::vector<std::thread> _threads;

    std::mutex _mutex;
    std::condition_variable _wake; ///< New batch or shutdown.
    std::condition_variable _done; ///< Batch fully finished.
    std::vector<std::function<void()>> *_tasks = nullptr;
    /** Per-task captured exceptions (disjoint slots; no locking). */
    std::vector<std::exception_ptr> _errors;
    std::size_t _next = 0;     ///< Next unclaimed task index.
    std::size_t _finished = 0; ///< Tasks completed this batch.
    std::uint64_t _batch = 0;  ///< Batch generation counter.
    bool _stop = false;
};

/**
 * The window scheduler: one global EventQueue plus N shard
 * EventQueues advanced in conservative lockstep windows (see the
 * file comment for the execution model and the exactness contract).
 */
class ParallelTimeline
{
  public:
    /** @param shards Number of shard queues (>= 1). */
    explicit ParallelTimeline(std::size_t shards);

    /** The coordinator-only cross-shard queue. */
    EventQueue &global() { return _global; }
    /** Read-only global(). */
    const EventQueue &global() const { return _global; }
    /** Shard @p s's private queue. */
    EventQueue &shard(std::size_t s) { return *_shards[s]; }
    /** Read-only shard(@p s). */
    const EventQueue &shard(std::size_t s) const { return *_shards[s]; }
    /** Number of shard queues. */
    std::size_t shardCount() const { return _shards.size(); }

    /**
     * The committed window edge on the tick axis: the key tick of
     * the last global event whose window was opened. Scheduling into
     * a shard from coordinator context must clamp to this (it is the
     * serial queue's "now"); shard events below it panic.
     */
    Tick committedTick() const { return _global.now(); }

    /**
     * Drain the global and all shard queues to completion in
     * lockstep windows. @p pool runs each window's shard advances
     * concurrently; pass nullptr (or a single-worker pool) for the
     * serial schedule - the executed event order per queue is
     * identical either way.
     */
    void run(WorkerPool *pool);

  private:
    /**
     * Advance every shard strictly below (@p when, @p prio), in
     * parallel when @p pool allows. With @p bounded false the bound
     * is +infinity: every shard runs dry. Panics if any shard holds
     * an event below the committed window edge.
     */
    void advanceShards(Tick when, Priority prio, bool bounded,
                       WorkerPool *pool);

    EventQueue _global;
    std::vector<std::unique_ptr<EventQueue>> _shards;

    /** Committed edge key: the last opened window's global event. */
    Tick _edgeTick = 0;
    Priority _edgePrio = std::numeric_limits<Priority>::min();

    /** Reused per-window buffers (allocation-free steady state). */
    std::vector<std::uint32_t> _ready;
    std::vector<std::function<void()>> _tasks;
};

} // namespace papi::sim

#endif // PAPI_SIM_PARALLEL_TIMELINE_HH
