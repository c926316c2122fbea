/**
 * @file
 * The serving benchmark's workloads, set-up, host clocks, and output
 * checks, shared by the untraced (end-to-end) and traced (per-layer)
 * invocations of the benchmark.
 */

#ifndef PAPI_PERFBENCH_WORKLOAD_HH
#define PAPI_PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hh"
#include "core/platform.hh"
#include "core/serving_engine.hh"
#include "llm/arrival.hh"
#include "llm/model_config.hh"
#include "llm/speculative.hh"

namespace perfbench {

/** Process CPU seconds (CLOCK_PROCESS_CPUTIME_ID): time the
 *  scheduler gives other tenants does not count. */
double cpuSeconds();

/** Monotonic nanoseconds (vDSO CLOCK_MONOTONIC): the cheap per-call
 *  span clock of the traced invocation. */
std::int64_t monoNs();

/** getrusage peak resident set of this process, MiB. */
double peakRssMb();

/** Median of @p v (mean of the middle pair for even sizes). */
double median(std::vector<double> v);

/** One open-loop serving workload: its traffic and cluster shape. */
struct Workload
{
    std::string name;
    std::uint64_t runSeed = 1; ///< The --seed this stream was drawn from.
    std::uint64_t seed = 1;    ///< This stream's own seed.

    papi::llm::TraceCategory category =
        papi::llm::TraceCategory::GeneralQa;
    double rateRps = 1.0;       ///< Poisson arrival rate.
    std::uint64_t requests = 1; ///< Requests offered per stream.
    /** Independent streams a run serves (see makeStreams). */
    std::size_t streams = 1;
    std::uint32_t specLength = 1; ///< Speculation length (TLP).
    /** KV pool per replica in tokens of context (0 = the platform's
     *  own capacity), applied through kvCapacityOverrideBytes. */
    std::uint64_t kvPoolTokens = 0;
    /** Cluster shape and serving options; serving.alpha is filled
     *  by calibration at set-up. */
    papi::cluster::ClusterOptions options;
};

/** The workload names in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Build one stream of workload @p name with inputs drawn from
 *  @p seed; throws std::invalid_argument on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * The streams one benchmark run serves: Workload::streams
 * independent instances of workload @p name whose seeds are drawn
 * from @p seed. The simulation metrics a run reports are medians over
 * them, so one long-tailed stream cannot swing a run's figures.
 */
std::vector<Workload> makeStreams(const std::string &name,
                                  std::uint64_t seed);

/** The model, speculation and platform every workload serves. */
struct Deployment
{
    papi::core::PlatformConfig config;
    papi::llm::ModelConfig model;
    papi::llm::SpeculativeConfig spec;
    /** Calibrated threshold and resolved options (kv override set). */
    papi::cluster::ClusterOptions options;
};

/**
 * The set-up a user pays before the first request: the offline alpha
 * calibration of paper section 5.2.1 on a reference platform, then
 * the options every replica is built with. Engine construction (one
 * platform per replica) follows in the caller.
 */
Deployment deploy(const Workload &w);

/** A fresh arrival stream for @p w (identical for one seed). */
papi::llm::ArrivalProcess arrivals(const Workload &w);

/** The end-to-end simulation metrics of one run. */
struct SimMetrics
{
    double ttftP50 = 0.0, ttftP99 = 0.0;
    double tpotP50 = 0.0, tpotP99 = 0.0;
    double goodput = 0.0;
    double joulesPerToken = 0.0;
    double servedShare = 0.0;
    std::uint64_t samples = 0; ///< Requests served.
};

/** Extract the simulation metrics of @p r. */
SimMetrics simMetrics(const papi::cluster::ClusterResult &r);

/**
 * The output checks of one untraced run: conservation (offered ==
 * served + failed + shed), every simulation metric finite and
 * positive, and on keyed (prefix-cache) workloads the ledger prefix
 * hit + miss tokens == prompt tokens offered. Returns one message per
 * violation.
 */
std::vector<std::string>
checkRun(const Workload &w, const papi::cluster::ClusterResult &r);

/** Field-by-field ServingResult equality; on a mismatch @p why names
 *  the first differing field. */
bool sameServingResult(const papi::core::ServingResult &a,
                       const papi::core::ServingResult &b,
                       std::string &why);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Print the result line (the last line of stdout). Non-finite
 *  values print as 0; the checks have already failed the run. */
void printResult(bool correct, std::uint64_t attempted,
                 std::uint64_t failed,
                 const std::vector<Metric> &metrics);

/** Options of the traced invocation. */
struct TraceOptions
{
    double seconds = 1.0;     ///< Measurement budget (wall).
    std::string chromeTrace;  ///< Span sample file; empty = none.
};

/** The traced invocation: per-layer metrics; returns the exit code. */
int runTraced(const Workload &w, const TraceOptions &opt);

} // namespace perfbench

#endif // PAPI_PERFBENCH_WORKLOAD_HH
