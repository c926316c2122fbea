/**
 * @file
 * The serving benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--chrome-trace FILE]
 *
 * A run serves a fixed set of independent arrival streams, all drawn
 * from --seed (see makeStreams). --trace 0 serves them round-robin
 * through cluster::ClusterEngine::runStream() for S seconds, each time
 * with freshly built platforms (kernel-cost caches start cold, as they
 * do for users), and prints the end-to-end metrics: host throughput
 * and set-up time on the process CPU clock, in reference seconds
 * (medians over every timed run; see referenceSeconds), peak RSS, and
 * the simulation outputs (medians over the streams; identical for one
 * seed). --trace 1 prints the per-layer
 * metrics of the traced invocation instead (see traced.cc). The last
 * line of stdout is one JSON object; a failed output check makes
 * "correct" false and the exit code 1.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload.hh"

using namespace papi;

namespace perfbench {
namespace {

/**
 * Nominal CPU seconds of referenceSeconds()' computation: host
 * metrics are reported in these reference seconds.
 */
constexpr double kReferenceSeconds = 0.01;

/** Keeps referenceSeconds()' result observable. */
volatile std::uint64_t referenceSink = 0;

/**
 * CPU seconds of a fixed reference computation that shares no code
 * with the simulator: hashed reads over a 4 MiB table, a binary heap
 * and a hash map, the access mix of the simulator's hot layers. The
 * host's speed drifts by tens of percent within minutes as other
 * tenants come and go, and the process CPU clock cannot see it: a
 * CPU second is not a fixed amount of work. Each timed run is scaled
 * by this reference, measured just before it on the same CPU, so
 * host metrics track the program rather than the neighbours (see
 * NOTES.md and STEADINESS.md).
 */
double
referenceSeconds()
{
    constexpr std::size_t kTable = std::size_t{1} << 19;
    static const std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(kTable);
        std::uint64_t x = 1;
        for (std::uint64_t &v : t)
            v = x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return t;
    }();
    const double c0 = cpuSeconds();
    std::uint64_t acc = 0, x = 12345;
    const auto next = [&x] {
        return x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    };
    for (int i = 0; i < 300000; ++i) {
        acc += table[(next() >> 33) & (kTable - 1)];
        if (acc & 1)
            acc ^= x;
    }
    std::vector<std::uint64_t> heap;
    for (int i = 0; i < 50000; ++i) {
        heap.push_back(next());
        std::push_heap(heap.begin(), heap.end());
        if (i % 3 == 0) {
            std::pop_heap(heap.begin(), heap.end());
            acc += heap.back();
            heap.pop_back();
        }
    }
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    for (int i = 0; i < 100000; ++i)
        counts[(next() >> 40) & 0x7fff] += acc;
    referenceSink = acc + counts.size();
    return cpuSeconds() - c0;
}

/** Set-up is sampled at least this often (extra set-ups are cheap). */
constexpr std::size_t kMinSetups = 24;

/** The simulation metrics of two runs are bit-identical. */
bool
sameSim(const SimMetrics &a, const SimMetrics &b)
{
    return std::memcmp(&a, &b, sizeof(SimMetrics)) == 0;
}

/** Per-field median of the streams' simulation metrics. */
SimMetrics
medianSim(const std::vector<SimMetrics> &v)
{
    const auto med = [&v](double SimMetrics::*f) {
        std::vector<double> xs;
        for (const SimMetrics &m : v)
            xs.push_back(m.*f);
        return median(xs);
    };
    SimMetrics m;
    m.ttftP50 = med(&SimMetrics::ttftP50);
    m.ttftP99 = med(&SimMetrics::ttftP99);
    m.tpotP50 = med(&SimMetrics::tpotP50);
    m.tpotP99 = med(&SimMetrics::tpotP99);
    m.goodput = med(&SimMetrics::goodput);
    m.joulesPerToken = med(&SimMetrics::joulesPerToken);
    m.servedShare = med(&SimMetrics::servedShare);
    for (const SimMetrics &x : v)
        m.samples += x.samples;
    return m;
}

/**
 * The CPUs this process may run on. The host's CPUs do not run at
 * one speed (other tenants share them), so timed runs rotate over
 * all of them instead of measuring whichever CPU the scheduler
 * happened to pick.
 */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Move this (single-threaded) process to @p cpu; best effort. */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

int
runEndToEnd(const std::vector<Workload> &streams, double seconds)
{
    const std::size_t k = streams.size();
    const std::vector<int> cpus = allowedCpus();
    std::vector<double> setups, rates, raw_rates, refs;
    std::vector<std::string> failures;
    std::vector<SimMetrics> sims(k);
    std::uint64_t attempted = 0, failed = 0;
    const std::int64_t start = monoNs();
    const auto elapsed = [start] {
        return static_cast<double>(monoNs() - start) * 1e-9;
    };
    // Every stream runs at least once; then round-robin until the
    // budget is spent. Stream s of round j runs on CPU (s + j) mod n,
    // so no stream is tied to one CPU.
    for (std::size_t r = 0; r < k || elapsed() < seconds; ++r) {
        const std::size_t s = r % k;
        if (!cpus.empty())
            pinTo(cpus[(s + r / k) % cpus.size()]);
        const Workload &w = streams[s];
        const double ref = referenceSeconds();
        const double c0 = cpuSeconds();
        const Deployment d = deploy(w);
        cluster::ClusterEngine engine(d.config, d.options);
        llm::ArrivalProcess src = arrivals(w);
        const double c1 = cpuSeconds();
        const cluster::ClusterResult res =
            engine.runStream(src, w.requests, d.spec, d.model);
        const double c2 = cpuSeconds();
        const double scale = kReferenceSeconds / ref;
        refs.push_back(ref);
        setups.push_back((c1 - c0) * scale);
        rates.push_back(static_cast<double>(w.requests) /
                        ((c2 - c1) * scale));
        raw_rates.push_back(static_cast<double>(w.requests) / (c2 - c1));
        std::vector<std::string> run_failures = checkRun(w, res);
        const SimMetrics m = simMetrics(res);
        if (r < k)
            sims[s] = m;
        else if (!sameSim(m, sims[s]))
            run_failures.push_back("simulation metrics differ from "
                                   "the stream's first run");
        ++attempted;
        if (!run_failures.empty()) {
            ++failed;
            for (std::string &msg : run_failures)
                failures.push_back("run " + std::to_string(attempted) +
                                   " (stream " + std::to_string(s) +
                                   "): " + msg);
        }
    }
    for (std::size_t i = 0; setups.size() < kMinSetups; ++i) {
        if (!cpus.empty())
            pinTo(cpus[i % cpus.size()]);
        const double ref = referenceSeconds();
        const double c0 = cpuSeconds();
        const Deployment d = deploy(streams[0]);
        const cluster::ClusterEngine engine(d.config, d.options);
        setups.push_back((cpuSeconds() - c0) * kReferenceSeconds / ref);
    }

    const Workload &w0 = streams[0];
    const double rate = median(rates);
    const double setup = median(setups);
    const double rss = peakRssMb();
    const SimMetrics sim = medianSim(sims);
    std::printf("workload %s seed %llu: %zu streams of %llu requests "
                "(open loop, Poisson %.4g req/s), %llu timed runs on "
                "%zu CPUs\n",
                w0.name.c_str(),
                static_cast<unsigned long long>(w0.runSeed),
                k, static_cast<unsigned long long>(w0.requests),
                w0.rateRps, static_cast<unsigned long long>(attempted),
                cpus.size());
    std::printf("  requests_per_cpu_s %.6g (median of %zu; min %.6g "
                "max %.6g); unscaled %.6g; reference %.4g ms\n",
                rate, rates.size(),
                *std::min_element(rates.begin(), rates.end()),
                *std::max_element(rates.begin(), rates.end()),
                median(raw_rates), median(refs) * 1e3);
    std::printf("  setup_s %.6g (median of %zu)  peak_rss_mb %.1f\n",
                setup, setups.size(), rss);
    std::printf("  simulation metrics: medians over %zu streams; "
                "percentiles over %llu served requests in total\n",
                k, static_cast<unsigned long long>(sim.samples));
    for (const std::string &msg : failures)
        std::printf("  CHECK FAILED: %s\n", msg.c_str());

    const std::vector<Metric> metrics = {
        {"requests_per_cpu_s", rate, "1/s"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", rss, "MB"},
        {"sim_ttft_p50_s", sim.ttftP50, "s"},
        {"sim_ttft_p99_s", sim.ttftP99, "s"},
        {"sim_tpot_p50_s", sim.tpotP50, "s"},
        {"sim_tpot_p99_s", sim.tpotP99, "s"},
        {"sim_goodput_tok_per_s", sim.goodput, "tok/s"},
        {"sim_j_per_token", sim.joulesPerToken, "J/token"},
        {"served_share", sim.servedShare, "frac"},
    };
    printResult(failures.empty(), attempted, failed, metrics);
    return failures.empty() ? 0 : 1;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--chrome-trace FILE]\n  workloads:");
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    TraceOptions topt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (arg == "--trace")
            trace = std::atoi(val);
        else if (arg == "--chrome-trace")
            topt.chromeTrace = val;
        else {
            usage();
            return 2;
        }
    }
    if (workload.empty() || !(seconds > 0.0) ||
        (trace != 0 && trace != 1)) {
        usage();
        return 2;
    }
    try {
        const std::vector<Workload> streams = makeStreams(workload, seed);
        if (trace) {
            topt.seconds = seconds;
            return runTraced(streams.front(), topt);
        }
        return runEndToEnd(streams, seconds);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
