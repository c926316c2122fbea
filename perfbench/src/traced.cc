/**
 * @file
 * The traced invocation: per-layer host time, measured from outside
 * the simulator with no change to it.
 *
 * Each pass serves stream 0 of the run three ways:
 *
 *  1. untraced, through cluster::ClusterEngine::runStream() - the
 *     reference result and the process CPU time tracing is compared
 *     against;
 *  2. recomposed from public parts (core::Platform, core::ServingSim,
 *     core::ServingEventDriver, cluster::Router, cluster::
 *     FaultInjector) exactly as ClusterEngine composes them, with
 *     spans around the arrival pull, the route function and
 *     ServingSim::finish(), and a log of every routing decision. Every
 *     replica's ServingResult must equal the reference's;
 *  3. on colocated fault-free workloads, replayed layer by layer:
 *     each replica's routed sub-stream through a fresh ServingSim
 *     making the calls the event driver makes for one replica (timed
 *     one by one, and again checked against the reference), a bounded
 *     prefix of the recorded event schedule through a serial
 *     sim::ParallelTimeline laid out as the event driver lays it out,
 *     and the kernel-cost model cold and warm on a fresh Platform.
 *
 * Spans use the monotonic clock (a vDSO read); the process CPU clock
 * is a system call and stays on whole-pass figures. Per-layer values
 * are medians over the passes that fit in the budget.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/fault_injector.hh"
#include "cluster/router.hh"
#include "cluster/tensor_parallel.hh"
#include "core/serving_events.hh"
#include "sim/parallel_timeline.hh"
#include "sim/rng.hh"
#include "sim/timeline.hh"
#include "workload.hh"

namespace perfbench {

using namespace papi;

namespace {

/**
 * The replayed workloads' unattributed share must stay inside this
 * band: the replays account for the layers' own work, and what is
 * left is event-driver glue (burst delivery, pokes, std::function
 * dispatch)
 * plus the recomposition's route log.
 */
constexpr double kUnattributedMin = -0.15;
constexpr double kUnattributedMax = 0.50;

/** Bound of the recorded iteration-boundary schedule, in events. */
constexpr std::size_t kQueueReplayEvents = 1 << 17;

/** Accumulated time of one call site. */
struct Span
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void
    add(std::int64_t d)
    {
        ++calls;
        ns += d;
    }

    double
    nsPerCall() const
    {
        return calls ? static_cast<double>(ns) /
                           static_cast<double>(calls)
                     : 0.0;
    }
};

/** A bounded sample of spans, exported as Chrome trace-event JSON
 *  (opens in Perfetto): one track per layer, the first kCap spans of
 *  each, so the traced run's memory stays flat. */
class ChromeSample
{
  public:
    enum Track : int
    {
        kArrival,
        kRouter,
        kServing,
        kEventQueue,
        kPlatform,
        kAggregate,
        kTracks
    };

    ChromeSample()
    {
        for (auto &v : _spans)
            v.reserve(kCap);
    }

    /** Record a span; @p req is the request it serves (-1: none). */
    void
    add(Track t, const char *name, std::int64_t start, std::int64_t end,
        std::int64_t req)
    {
        if (_spans[t].size() < kCap)
            _spans[t].push_back({name, start, end - start, req});
        else
            ++_dropped[t];
    }

    bool write(const std::string &path) const;

  private:
    static constexpr std::size_t kCap = 2048;
    struct Rec
    {
        const char *name;
        std::int64_t start, dur, req;
    };
    std::array<std::vector<Rec>, kTracks> _spans;
    std::array<std::uint64_t, kTracks> _dropped{};
};

bool
ChromeSample::write(const std::string &path) const
{
    static const char *const kTrackNames[kTracks] = {
        "llm.arrival",          "cluster.router",
        "core.serving replay",  "sim.event_queue replay",
        "core.platform",        "cluster.aggregate"};
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::int64_t origin = INT64_MAX;
    for (const auto &v : _spans) {
        for (const Rec &r : v)
            origin = std::min(origin, r.start);
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    const char *sep = "\n";
    for (int t = 0; t < kTracks; ++t) {
        std::fprintf(f,
                     "%s{\"name\": \"thread_name\", \"ph\": \"M\", "
                     "\"pid\": 1, \"tid\": %d, \"args\": {\"name\": "
                     "\"%s\"}}",
                     sep, t, kTrackNames[t]);
        sep = ",\n";
        for (const Rec &r : _spans[t])
            std::fprintf(f,
                         ",\n{\"name\": \"%s\", \"cat\": \"%s\", "
                         "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                         "{\"req\": %lld}}",
                         r.name, kTrackNames[t], t,
                         static_cast<double>(r.start - origin) * 1e-3,
                         static_cast<double>(r.dur) * 1e-3,
                         static_cast<long long>(r.req));
    }
    std::fprintf(f, "\n], \"otherData\": {\"spans_per_track\": %zu, "
                    "\"dropped\": [",
                 kCap);
    for (int t = 0; t < kTracks; ++t)
        std::fprintf(f, "%s%llu", t ? ", " : "",
                     static_cast<unsigned long long>(_dropped[t]));
    std::fprintf(f, "]}}\n");
    return std::fclose(f) == 0;
}

/** Replica groups of a cluster shape. */
std::uint32_t
groupCount(const cluster::ClusterOptions &o)
{
    return o.disagg.enabled
               ? o.disagg.prefillReplicas + o.disagg.decodeReplicas
               : o.numPlatforms / o.tensorParallelDegree;
}

/** Serving options of replica @p g, as ClusterEngine derives them. */
core::ServingOptions
replicaOptions(const cluster::ClusterOptions &o, std::uint32_t g)
{
    core::ServingOptions s = o.serving;
    if (o.recordCapacity > 0)
        s.recordCapacity = o.recordCapacity;
    if (o.disagg.enabled) {
        s.role = g < o.disagg.prefillReplicas
                     ? core::ServingRole::Prefill
                     : core::ServingRole::Decode;
        if (s.role == core::ServingRole::Prefill)
            s.preemptOnKvPressure = false;
    }
    return s;
}

/** Colocated fault-free clusters can be replayed replica by replica:
 *  each replica then evolves only on its own deliveries. */
bool
replayable(const cluster::ClusterOptions &o)
{
    return !o.disagg.enabled && o.faults.empty();
}

/** Per-iteration cost transform, as ClusterEngine derives it. */
core::IterationCostModel
costModel(const Deployment &d)
{
    cluster::TensorParallelModel tp;
    tp.degree = d.options.tensorParallelDegree;
    tp.fabric = d.options.tpFabric;
    return tp.iterationCostModel(d.model);
}

/** What the traced recomposition observed. */
struct Observed
{
    std::vector<core::ServingResult> perGroup;
    /** Route log: each replica's sub-stream, and the global arrival
     *  burst each of its requests arrived in. */
    std::vector<std::vector<llm::TimedRequest>> routed;
    std::vector<std::vector<std::uint32_t>> routedBurst;
    std::vector<double> burstTimes; ///< Distinct arrival timestamps.
    Span arrival, router, probe, aggregate;
    std::uint64_t probes = 0;
    std::uint64_t keyed = 0;      ///< Arrivals carrying a prefix key.
    std::uint64_t keyedToHit = 0; ///< ... routed where the probe hit.
    std::uint64_t recordsRetained = 0;
    std::uint64_t served = 0;
    cluster::FaultStats faults;
    core::KvTransferStats xfer;
    double cpu = 0.0;     ///< Process CPU seconds of the run.
    std::int64_t ns = 0;  ///< Monotonic ns of the run.
};

/** Serve @p w on a cluster recomposed from public parts, timing the
 *  calls into each outer layer (see the file comment). */
Observed
recompose(const Workload &w, const Deployment &d, ChromeSample *sample)
{
    const cluster::ClusterOptions &o = d.options;
    const bool disagg = o.disagg.enabled;
    const std::uint32_t groups = groupCount(o);
    const std::uint32_t prefill_pool =
        disagg ? o.disagg.prefillReplicas : 0;
    std::vector<std::unique_ptr<core::Platform>> platforms;
    for (std::uint32_t g = 0; g < groups; ++g)
        platforms.push_back(std::make_unique<core::Platform>(d.config));
    llm::ArrivalProcess src = arrivals(w);

    Observed ob;
    ob.routed.resize(groups);
    ob.routedBurst.resize(groups);
    const double c0 = cpuSeconds();
    const std::int64_t m0 = monoNs();

    const core::IterationCostModel cost = costModel(d);
    std::vector<std::unique_ptr<core::ServingSim>> sims;
    std::vector<core::ServingSim *> replicas;
    for (std::uint32_t g = 0; g < groups; ++g) {
        sims.push_back(std::make_unique<core::ServingSim>(
            *platforms[g], d.spec, d.model, replicaOptions(o, g), cost));
        replicas.push_back(sims.back().get());
    }
    const std::uint32_t width = disagg ? prefill_pool : groups;
    const cluster::RouterPolicy policy =
        disagg ? o.disagg.prefillPolicy : o.policy;
    cluster::Router router(policy, width);
    std::vector<cluster::BackendLoad> loads(width);
    std::vector<std::uint32_t> probed(width, 0);
    core::ServingEventDriver driver(std::move(replicas));
    driver.setWorkerThreads(o.workerThreads);
    driver.setStateIndependentRouting(
        !disagg && o.faults.empty() &&
        policy != cluster::RouterPolicy::LeastOutstanding &&
        policy != cluster::RouterPolicy::CacheHitAware);
    if (disagg)
        driver.enableDisaggregation(
            {prefill_pool, o.disagg.transferLink});
    std::unique_ptr<cluster::FaultInjector> injector;
    if (!o.faults.empty()) {
        injector = std::make_unique<cluster::FaultInjector>(
            driver, o.faults, o.recovery);
        injector->arm();
        if (!o.faults.linkFaults.empty())
            driver.setLinkFaults(o.faults.linkFaults,
                                 o.recovery.transferTimeoutSeconds);
    }

    const bool probe_caches =
        policy == cluster::RouterPolicy::CacheHitAware;
    const std::uint64_t kv_bytes = d.model.kvBytesPerToken();
    double last_burst = -1.0;
    const core::RouteFn route = [&](const llm::TimedRequest &request) {
        const std::int64_t t0 = monoNs();
        if (probe_caches) {
            for (std::uint32_t g = 0; g < width; ++g)
                probed[g] = sims[g]->probePrefixHitTokens(request);
            ob.probe.add(monoNs() - t0);
            ob.probes += width;
        }
        for (std::uint32_t g = 0; g < width; ++g) {
            loads[g].outstanding = sims[g]->outstanding();
            if (disagg)
                loads[g].busyUntilSeconds = sims[g]->now();
            if (probe_caches)
                loads[g].expectedHitBytes =
                    static_cast<std::uint64_t>(probed[g]) * kv_bytes;
            loads[g].alive = !driver.isDown(g);
        }
        const std::uint32_t pick = router.route(request, loads);
        const std::int64_t t1 = monoNs();
        ob.router.add(t1 - t0);
        if (sample)
            sample->add(ChromeSample::kRouter, "route", t0, t1,
                        static_cast<std::int64_t>(request.request.id));
        if (request.request.prefixKey != 0) {
            ++ob.keyed;
            if (probe_caches && probed[pick] > 0)
                ++ob.keyedToHit;
        }
        if (request.arrivalSeconds != last_burst) {
            ob.burstTimes.push_back(request.arrivalSeconds);
            last_burst = request.arrivalSeconds;
        }
        ob.routed[pick].push_back(request);
        ob.routedBurst[pick].push_back(
            static_cast<std::uint32_t>(ob.burstTimes.size() - 1));
        return pick;
    };

    bool first_seen = false;
    double first_arrival = 0.0;
    const std::function<llm::TimedRequest()> next = [&] {
        const std::int64_t t0 = monoNs();
        llm::TimedRequest r = src.next();
        const std::int64_t t1 = monoNs();
        ob.arrival.add(t1 - t0);
        if (sample)
            sample->add(ChromeSample::kArrival, "ArrivalProcess::next",
                        t0, t1, static_cast<std::int64_t>(r.request.id));
        if (!first_seen) {
            first_arrival = r.arrivalSeconds;
            first_seen = true;
        }
        return r;
    };
    driver.runStreamGenerated(next, w.requests, route);

    double t_end = first_arrival;
    for (const auto &s : sims)
        t_end = std::max(t_end, s->now());
    if (injector) {
        injector->finalize(t_end);
        ob.faults = injector->stats();
    }
    ob.xfer = driver.transferStats();
    for (const auto &s : sims) {
        const std::int64_t t0 = monoNs();
        ob.perGroup.push_back(s->finish());
        const std::int64_t t1 = monoNs();
        ob.aggregate.add(t1 - t0);
        if (sample)
            sample->add(ChromeSample::kAggregate, "ServingSim::finish",
                        t0, t1, -1);
        ob.recordsRetained += s->records().size();
        ob.served += s->servedCount();
    }
    ob.ns = monoNs() - m0;
    ob.cpu = cpuSeconds() - c0;
    return ob;
}

/** Per-call timings of the replica replays. */
struct ReplayCalls
{
    Span plan, decode, admit, idle;
    std::uint64_t boundaries = 0; ///< Boundary events (full run).

    std::int64_t
    totalNs() const
    {
        return plan.ns + decode.ns + admit.ns + idle.ns;
    }
};

/** One recorded iteration boundary of a replica's event chain. */
struct Boundary
{
    double seconds = 0.0;
    /** Arrival burst whose poke scheduled it (a chain start), or -1
     *  when the previous boundary of the chain scheduled it. */
    std::int64_t startBurst = -1;
};

/**
 * Replay replica @p g's routed sub-stream through a fresh ServingSim
 * on a fresh Platform. Everything is delivered up front; the loop then
 * makes the event driver's per-replica calls in its order - an
 * arrival burst pokes an idle replica (stepIdle, or admit when only
 * preempted work is parked), a boundary runs stepDecode + admit and
 * peeks the next iteration - with "pending" meaning delivered by the
 * burst time, as in the streamed run. A token-level, colocated,
 * fault-free replica evolves only on its own deliveries, so the
 * result must equal the cluster run's replica exactly.
 */
core::ServingResult
replayReplica(const Deployment &d, std::uint32_t g,
              const std::vector<llm::TimedRequest> &sub,
              const std::vector<std::uint32_t> &burst_of,
              std::size_t chain_cap, ReplayCalls &calls,
              std::vector<Boundary> &chain, ChromeSample *sample)
{
    const core::Platform platform(d.config);
    core::ServingSim sim(platform, d.spec, d.model,
                         replicaOptions(d.options, g), costModel(d));
    for (const llm::TimedRequest &r : sub)
        sim.deliver(r);
    const std::size_t n = sub.size();
    std::size_t k = 0; // arrivals the streamed run has delivered
    bool armed = false;
    double boundary_at = 0.0;

    const auto stream_pending = [&] {
        return sim.pendingCount() > n - k;
    };
    // Spans carry the newest request delivered to the replica.
    const auto newest = [&]() -> std::int64_t {
        return k ? static_cast<std::int64_t>(sub[k - 1].request.id)
                 : -1;
    };
    const auto timed = [&](Span &span, const char *name, auto &&fn) {
        const std::int64_t t0 = monoNs();
        const auto out = fn();
        const std::int64_t t1 = monoNs();
        span.add(t1 - t0);
        if (sample)
            sample->add(ChromeSample::kServing, name, t0, t1, newest());
        return out;
    };
    const auto schedule_boundary = [&](double event_seconds,
                                       std::int64_t start_burst) {
        const double dt = timed(calls.plan, "peekIterationSeconds",
                                [&] { return sim.peekIterationSeconds(); });
        // The event driver clamps to the scheduling event's time.
        boundary_at = std::max(sim.now() + dt, event_seconds);
        armed = true;
        ++calls.boundaries;
        if (chain.size() < chain_cap)
            chain.push_back({boundary_at, start_burst});
    };
    const auto idle_poke = [&](double event_seconds,
                               std::int64_t start_burst) {
        if (sim.hasActive())
            return;
        if (!stream_pending()) {
            if (sim.preemptedCount() > 0 &&
                timed(calls.admit, "admit",
                      [&] { return sim.admit(); }) > 0)
                schedule_boundary(event_seconds, start_burst);
            return;
        }
        for (;;) {
            timed(calls.idle, "stepIdle", [&] {
                sim.stepIdle();
                return 0;
            });
            if (sim.hasActive()) {
                schedule_boundary(event_seconds, start_burst);
                return;
            }
            if (!stream_pending())
                return;
        }
    };

    for (;;) {
        // Same-time arrivals run before a boundary (priority 0 vs
        // 10 + g), so a boundary goes first only when strictly earlier.
        if (armed && (k == n || boundary_at < sub[k].arrivalSeconds)) {
            armed = false;
            const double now = boundary_at;
            timed(calls.decode, "stepDecode", [&] {
                sim.stepDecode();
                return 0;
            });
            timed(calls.admit, "admit", [&] { return sim.admit(); });
            if (sim.hasActive())
                schedule_boundary(now, -1);
            else if (stream_pending() || sim.preemptedCount() > 0)
                idle_poke(now, -1);
            continue;
        }
        if (k == n)
            break;
        const double t = sub[k].arrivalSeconds;
        const std::int64_t b = burst_of[k];
        while (k < n && sub[k].arrivalSeconds == t)
            ++k;
        idle_poke(t, b);
    }
    return sim.finish();
}

/**
 * The recorded event schedule replayed through a serial
 * sim::ParallelTimeline as the event driver lays it out: arrival
 * bursts on
 * the global queue at priority 0, each replica's boundary chain on its
 * own shard at priority 10 + g, scheduled from the burst that started
 * the chain or from the previous boundary. The events do nothing but
 * schedule their successors, so the time is the queue's own.
 */
class QueueReplay
{
  public:
    QueueReplay(const std::vector<double> &bursts,
                const std::vector<std::vector<Boundary>> &chains,
                double horizon)
        : _timeline(chains.size()), _bursts(bursts), _chains(chains),
          _horizon(horizon)
    {
        while (_nbursts < bursts.size() && bursts[_nbursts] <= horizon)
            ++_nbursts;
        _kicks.resize(_nbursts);
        for (std::uint32_t g = 0; g < chains.size(); ++g) {
            for (std::size_t i = 0; i < chains[g].size(); ++i) {
                const Boundary &b = chains[g][i];
                if (b.startBurst >= 0 && b.seconds <= horizon &&
                    static_cast<std::size_t>(b.startBurst) < _nbursts)
                    _kicks[b.startBurst].push_back({g, i});
            }
        }
    }

    /** Run the replay; returns the events executed. */
    std::uint64_t
    run()
    {
        if (_nbursts == 0)
            return 0;
        _timeline.global().schedule(sim::orderedTick(_bursts[0]),
                                    [this] { burst(0); }, 0);
        _timeline.run(nullptr);
        std::uint64_t events = _timeline.global().executed();
        for (std::size_t g = 0; g < _timeline.shardCount(); ++g)
            events += _timeline.shard(g).executed();
        return events;
    }

  private:
    void
    burst(std::size_t b)
    {
        for (const auto &[g, i] : _kicks[b])
            schedule(g, i);
        if (b + 1 < _nbursts)
            _timeline.global().schedule(
                sim::orderedTick(_bursts[b + 1]),
                [this, b] { burst(b + 1); }, 0);
    }

    void
    boundary(std::uint32_t g, std::size_t i)
    {
        const std::vector<Boundary> &c = _chains[g];
        if (i + 1 < c.size() && c[i + 1].startBurst < 0 &&
            c[i + 1].seconds <= _horizon)
            schedule(g, i + 1);
    }

    /** Schedule boundary @p i of replica @p g on its shard, clamped
     *  as the event driver clamps (committed edge, shard now). */
    void
    schedule(std::uint32_t g, std::size_t i)
    {
        sim::EventQueue &q = _timeline.shard(g);
        sim::Tick when = sim::orderedTick(_chains[g][i].seconds);
        when = std::max({when, _timeline.committedTick(), q.now()});
        q.schedule(when, [this, g, i] { boundary(g, i); },
                   10 + static_cast<sim::Priority>(g));
    }

    sim::ParallelTimeline _timeline;
    const std::vector<double> &_bursts;
    const std::vector<std::vector<Boundary>> &_chains;
    double _horizon;
    std::size_t _nbursts = 0;
    /** Per burst: the (replica, boundary index) chains it starts. */
    std::vector<std::vector<std::pair<std::uint32_t, std::size_t>>>
        _kicks;
};

/** Cold (miss) and warm (hit) cost-model lookups, ns per call. */
struct PlatformCosts
{
    double fcMiss = 0.0, fcHit = 0.0, attnMiss = 0.0, attnHit = 0.0;
};

/**
 * fcExec over the workload's FC token range (1 .. maxRlp x TLP, on
 * both FC targets) and attnExec over batches drawn from its own
 * stream (contexts of prompt plus partial output), on a fresh
 * Platform: the first pass misses the kernel cache, the second hits.
 */
PlatformCosts
probePlatform(const Workload &w, const Deployment &d,
              ChromeSample *sample)
{
    const core::Platform p(d.config);
    const core::TargetId fc_targets[] = {p.targetId("gpu"),
                                         p.targetId("fc-pim")};
    const std::uint32_t max_tokens =
        d.options.serving.maxRlp * d.spec.length;
    const std::uint32_t max_rlp = d.options.serving.maxRlp;

    std::vector<std::vector<std::uint32_t>> batches;
    {
        llm::ArrivalProcess src = arrivals(w);
        sim::Rng rng(w.seed);
        std::set<std::pair<std::uint64_t, std::size_t>> keys;
        for (std::uint32_t j = 0; batches.size() < 512 && j < 4096; ++j) {
            std::vector<std::uint32_t> ctx(1 + j % max_rlp);
            std::uint64_t sum = 0;
            for (std::uint32_t &c : ctx) {
                const llm::Request r = src.next().request;
                c = r.inputLen + static_cast<std::uint32_t>(
                                     rng.uniformInt(0, r.outputLen));
                sum += c;
            }
            if (keys.insert({sum, ctx.size()}).second)
                batches.push_back(std::move(ctx));
        }
    }

    const auto fc_pass = [&](const char *name) {
        const std::int64_t t0 = monoNs();
        for (std::uint32_t tok = 1; tok <= max_tokens; ++tok) {
            for (core::TargetId id : fc_targets)
                p.fcExec(d.model, tok, id);
        }
        const std::int64_t t1 = monoNs();
        if (sample)
            sample->add(ChromeSample::kPlatform, name, t0, t1, -1);
        return static_cast<double>(t1 - t0) / (2.0 * max_tokens);
    };
    const auto attn_pass = [&](const char *name) {
        const std::int64_t t0 = monoNs();
        for (const auto &ctx : batches)
            p.attnExec(d.model, ctx, d.spec.length);
        const std::int64_t t1 = monoNs();
        if (sample)
            sample->add(ChromeSample::kPlatform, name, t0, t1, -1);
        return static_cast<double>(t1 - t0) /
               static_cast<double>(batches.size());
    };
    PlatformCosts out;
    out.fcMiss = fc_pass("fcExec cold");
    out.fcHit = fc_pass("fcExec warm");
    out.attnMiss = attn_pass("attnExec cold");
    out.attnHit = attn_pass("attnExec warm");
    return out;
}

/** One per-layer metric as BENCHMARK.json declares it. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};

const LayerMetric kLayerMetrics[] = {
    {"arrival.calls", "count"},
    {"arrival.ns_per_call", "ns"},
    {"router.calls", "count"},
    {"router.ns_per_call", "ns"},
    {"router.probes", "count"},
    {"router.ns_per_probe", "ns"},
    {"router.prefix_routed_share", "frac"},
    {"event_queue.events", "count"},
    {"event_queue.windows", "count"},
    {"event_queue.ns_per_event", "ns"},
    {"serving.iterations", "count"},
    {"serving.mean_rlp", "requests"},
    {"serving.plan_ns_per_iter", "ns"},
    {"serving.decode_ns_per_iter", "ns"},
    {"serving.admit_ns_per_call", "ns"},
    {"serving.idle_ns_per_call", "ns"},
    {"platform.fc_ns_per_miss", "ns"},
    {"platform.fc_ns_per_hit", "ns"},
    {"platform.attn_ns_per_miss", "ns"},
    {"platform.attn_ns_per_hit", "ns"},
    {"dispatch.fc_gpu_iters", "count"},
    {"dispatch.fc_pim_iters", "count"},
    {"dispatch.reschedules", "count"},
    {"kv.prefix_lookups", "count"},
    {"kv.prefix_hit_share", "frac"},
    {"kv.prefix_hit_token_share", "frac"},
    {"kv.prefix_evicted_mb", "MB"},
    {"kv.preemptions", "count"},
    {"kv.peak_util", "frac"},
    {"faults.crashes", "count"},
    {"faults.retried", "count"},
    {"faults.failed", "count"},
    {"faults.shed", "count"},
    {"faults.retry_recomputed_tokens", "tokens"},
    {"xfer.transfers", "count"},
    {"xfer.fallbacks", "count"},
    {"xfer.gb", "GB"},
    {"aggregate.ns_per_request", "ns"},
    {"aggregate.records_retained", "count"},
    {"trace.overhead_share", "frac"},
    {"trace.unattributed_share", "frac"},
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Exact counts of the reference run (no host time involved). */
void
exactCounts(const cluster::ClusterResult &ref,
            std::map<std::string, double> &m)
{
    double iters = 0.0, rlp = 0.0, gpu = 0.0, pim = 0.0, resched = 0.0;
    double peak = 0.0;
    for (const core::ServingResult &g : ref.perGroup) {
        const double it = static_cast<double>(g.iterations);
        iters += it;
        rlp += g.meanRlp * it;
        gpu += static_cast<double>(g.fcOnGpuIterations);
        pim += static_cast<double>(g.fcOnPimIterations);
        resched += static_cast<double>(g.reschedules);
        peak = std::max(peak, g.peakKvUtilization);
    }
    m["serving.iterations"] = iters;
    m["serving.mean_rlp"] = ratio(rlp, iters);
    m["dispatch.fc_gpu_iters"] = gpu;
    m["dispatch.fc_pim_iters"] = pim;
    m["dispatch.reschedules"] = resched;
    const double lookups = static_cast<double>(ref.prefixLookups);
    m["kv.prefix_lookups"] = lookups;
    m["kv.prefix_hit_share"] =
        ratio(static_cast<double>(ref.prefixHits), lookups);
    m["kv.prefix_hit_token_share"] =
        ratio(static_cast<double>(ref.prefixHitTokens),
              static_cast<double>(ref.prefixHitTokens +
                                  ref.prefixMissTokens));
    m["kv.prefix_evicted_mb"] =
        static_cast<double>(ref.prefixEvictedBytes) / (1 << 20);
    m["kv.preemptions"] = static_cast<double>(ref.preemptions);
    m["kv.peak_util"] = peak;
    m["faults.crashes"] = static_cast<double>(ref.injectedCrashes);
    m["faults.retried"] = static_cast<double>(ref.retriedRequests);
    m["faults.failed"] = static_cast<double>(ref.failedRequests);
    m["faults.shed"] = static_cast<double>(ref.shedRequests);
    m["faults.retry_recomputed_tokens"] =
        static_cast<double>(ref.retryRecomputedTokens);
    m["xfer.transfers"] = static_cast<double>(ref.kvTransfers);
    m["xfer.fallbacks"] = static_cast<double>(ref.kvTransferFallbacks);
    m["xfer.gb"] = static_cast<double>(ref.kvTransferBytes) * 1e-9;
}

/** One traced pass: every per-layer metric, plus check failures. */
std::map<std::string, double>
tracedPass(const Workload &w, ChromeSample *sample,
           std::vector<std::string> &failures)
{
    const Deployment d = deploy(w);
    cluster::ClusterEngine engine(d.config, d.options);
    llm::ArrivalProcess src = arrivals(w);
    const double u0 = cpuSeconds();
    const cluster::ClusterResult ref =
        engine.runStream(src, w.requests, d.spec, d.model);
    const double untraced = cpuSeconds() - u0;
    for (std::string &s : checkRun(w, ref))
        failures.push_back("untraced run: " + s);

    const Observed ob = recompose(w, d, sample);
    std::map<std::string, double> m;
    exactCounts(ref, m);
    const std::uint32_t groups = groupCount(d.options);
    for (std::uint32_t g = 0; g < groups; ++g) {
        std::string why;
        if (!sameServingResult(ob.perGroup[g], ref.perGroup[g], why))
            failures.push_back("recomposed replica " +
                               std::to_string(g) +
                               " differs from runStream in " + why);
    }
    if (ob.faults.failedRequests != ref.failedRequests ||
        ob.faults.retriesScheduled != ref.retriedRequests ||
        ob.faults.crashes != ref.injectedCrashes ||
        ob.xfer.transfers != ref.kvTransfers ||
        ob.xfer.fallbacks != ref.kvTransferFallbacks)
        failures.push_back("recomposed fault/transfer counts differ "
                           "from runStream");

    m["arrival.calls"] = static_cast<double>(ob.arrival.calls);
    m["arrival.ns_per_call"] = ob.arrival.nsPerCall();
    m["router.calls"] = static_cast<double>(ob.router.calls);
    m["router.ns_per_call"] = ob.router.nsPerCall();
    m["router.probes"] = static_cast<double>(ob.probes);
    m["router.ns_per_probe"] = ratio(static_cast<double>(ob.probe.ns),
                                     static_cast<double>(ob.probes));
    m["router.prefix_routed_share"] =
        ratio(static_cast<double>(ob.keyedToHit),
              static_cast<double>(ob.keyed));
    m["aggregate.ns_per_request"] =
        ratio(static_cast<double>(ob.aggregate.ns),
              static_cast<double>(ob.served));
    m["aggregate.records_retained"] =
        static_cast<double>(ob.recordsRetained);
    m["trace.overhead_share"] = ratio(ob.cpu - untraced, untraced);

    double attributed = static_cast<double>(
        ob.arrival.ns + ob.router.ns + ob.aggregate.ns);
    m["event_queue.events"] = 0.0;
    m["event_queue.windows"] = 0.0;
    m["event_queue.ns_per_event"] = 0.0;
    m["serving.plan_ns_per_iter"] = 0.0;
    m["serving.decode_ns_per_iter"] = 0.0;
    m["serving.admit_ns_per_call"] = 0.0;
    m["serving.idle_ns_per_call"] = 0.0;
    if (replayable(d.options)) {
        ReplayCalls calls;
        const std::size_t chain_cap = kQueueReplayEvents / groups;
        std::vector<std::vector<Boundary>> chains(groups);
        double horizon = std::numeric_limits<double>::infinity();
        for (std::uint32_t g = 0; g < groups; ++g) {
            const core::ServingResult r = replayReplica(
                d, g, ob.routed[g], ob.routedBurst[g], chain_cap,
                calls, chains[g], sample);
            std::string why;
            if (!sameServingResult(r, ref.perGroup[g], why))
                failures.push_back("replayed replica " +
                                   std::to_string(g) +
                                   " differs from runStream in " + why);
            if (chains[g].size() == chain_cap)
                horizon = std::min(horizon, chains[g].back().seconds);
        }
        QueueReplay q(ob.burstTimes, chains, horizon);
        const std::int64_t t0 = monoNs();
        const std::uint64_t events = q.run();
        const std::int64_t t1 = monoNs();
        const std::int64_t ns = t1 - t0;
        if (sample)
            sample->add(ChromeSample::kEventQueue,
                        "ParallelTimeline replay", t0, t1, -1);
        const double ns_per_event =
            ratio(static_cast<double>(ns), static_cast<double>(events));
        const double all_events = static_cast<double>(
            ob.burstTimes.size() + calls.boundaries);
        m["event_queue.events"] = all_events;
        m["event_queue.windows"] =
            static_cast<double>(ob.burstTimes.size());
        m["event_queue.ns_per_event"] = ns_per_event;
        m["serving.plan_ns_per_iter"] = calls.plan.nsPerCall();
        m["serving.decode_ns_per_iter"] = calls.decode.nsPerCall();
        m["serving.admit_ns_per_call"] = calls.admit.nsPerCall();
        m["serving.idle_ns_per_call"] = calls.idle.nsPerCall();
        attributed += static_cast<double>(calls.totalNs()) +
                      ns_per_event * all_events;
    }
    m["trace.unattributed_share"] =
        ratio(static_cast<double>(ob.ns) - attributed,
              static_cast<double>(ob.ns));

    const PlatformCosts pc = probePlatform(w, d, sample);
    m["platform.fc_ns_per_miss"] = pc.fcMiss;
    m["platform.fc_ns_per_hit"] = pc.fcHit;
    m["platform.attn_ns_per_miss"] = pc.attnMiss;
    m["platform.attn_ns_per_hit"] = pc.attnHit;
    return m;
}

} // namespace

int
runTraced(const Workload &w, const TraceOptions &opt)
{
    ChromeSample sample;
    std::vector<std::string> failures;
    std::map<std::string, std::vector<double>> passes;
    const std::int64_t start = monoNs();
    std::uint64_t attempted = 0, failed = 0;
    do {
        const std::size_t before = failures.size();
        const std::map<std::string, double> m = tracedPass(
            w, attempted == 0 && !opt.chromeTrace.empty() ? &sample
                                                          : nullptr,
            failures);
        for (const auto &[name, v] : m)
            passes[name].push_back(v);
        ++attempted;
        if (failures.size() != before)
            ++failed;
    } while (static_cast<double>(monoNs() - start) * 1e-9 <
             opt.seconds);

    std::vector<Metric> metrics;
    for (const LayerMetric &lm : kLayerMetrics)
        metrics.push_back({lm.name, median(passes[lm.name]), lm.unit});
    const bool replay = replayable(w.options);
    const double unattributed =
        median(passes["trace.unattributed_share"]);
    if (replay && (unattributed < kUnattributedMin ||
                   unattributed > kUnattributedMax))
        failures.push_back("trace.unattributed_share " +
                           std::to_string(unattributed) +
                           " is outside its tolerance");

    std::printf("traced workload %s seed %llu: %llu passes over stream "
                "0 (%llu requests)%s\n",
                w.name.c_str(),
                static_cast<unsigned long long>(w.runSeed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(w.requests),
                replay ? ", replicas replayed" : ", no replay");
    for (const Metric &m : metrics)
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!opt.chromeTrace.empty()) {
        if (sample.write(opt.chromeTrace))
            std::printf("  span sample written to %s\n",
                        opt.chromeTrace.c_str());
        else
            failures.push_back("cannot write " + opt.chromeTrace);
    }
    for (const std::string &s : failures)
        std::printf("  CHECK FAILED: %s\n", s.c_str());
    printResult(failures.empty(), attempted, failed, metrics);
    return failures.empty() ? 0 : 1;
}

} // namespace perfbench
