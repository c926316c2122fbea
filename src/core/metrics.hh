/**
 * @file
 * Reporting helpers for comparing runs across platforms.
 */

#ifndef PAPI_CORE_METRICS_HH
#define PAPI_CORE_METRICS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/decode_engine.hh"
#include "core/p2_quantile.hh"

namespace papi::core {

/** Speedup of @p candidate over @p baseline (end-to-end seconds). */
double speedup(const RunResult &baseline, const RunResult &candidate);

/** Energy-efficiency improvement of @p candidate over @p baseline. */
double energyEfficiency(const RunResult &baseline,
                        const RunResult &candidate);

/**
 * Geometric mean of a set of positive ratios. An empty sample has
 * no mean: returns NaN (callers skip the stat) rather than aborting,
 * so aggregation over pools/replicas with zero completions survives.
 */
double geomean(const std::vector<double> &values);

/**
 * Quantile @p q (in [0,1]) of an ascending-sorted sample by the
 * repo-wide convention `idx = floor(q * (n - 1))` - shared by
 * ServingResult's p95 and the cluster percentiles so the two layers
 * stay comparable. Returns NaN for an empty sample (no quantile
 * exists; exporters skip non-finite stats).
 */
double percentileSorted(const std::vector<double> &sorted_values,
                        double q);

/**
 * The percentileSorted() picks of @p values at the ascending
 * quantiles @p qs, written to @p out (same length), found by
 * selection instead of a sort: nested std::nth_element calls,
 * highest rank first, each one within the prefix below the rank the
 * previous one placed. out[k] equals percentileSorted(sorted copy,
 * qs[k]) bitwise; NaN for an empty sample. Reorders @p values.
 */
void selectPercentiles(std::vector<double> &values,
                       std::span<const double> qs,
                       std::span<double> out);

/** Format seconds with an adaptive unit (s / ms / us). */
std::string formatSeconds(double seconds);

/** Format joules with an adaptive unit (J / mJ). */
std::string formatJoules(double joules);

} // namespace papi::core

#endif // PAPI_CORE_METRICS_HH
