/**
 * @file
 * Tests for the P-square streaming quantile estimator behind
 * bounded-memory serving metrics: exactness below six observations
 * (under the repo-wide percentileSorted convention), bounded error
 * on large samples, and bitwise determinism; and for the exact
 * percentiles by selection (selectPercentiles) against the sorted
 * pick.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/metrics.hh"
#include "core/p2_quantile.hh"

namespace {

using papi::core::P2Quantile;
using papi::core::percentileSorted;
using papi::core::selectPercentiles;

/** Deterministic uniform doubles in [0, 1) (splitmix64 stream). */
class DetUniform
{
  public:
    explicit DetUniform(std::uint64_t seed) : _state(seed) {}

    double
    next()
    {
        _state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = _state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return static_cast<double>(z >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t _state;
};

TEST(P2Quantile, EmptyIsNaN)
{
    P2Quantile q(0.95);
    EXPECT_TRUE(std::isnan(q.value()));
    EXPECT_EQ(q.count(), 0u);
    q.add(3.0);
    EXPECT_EQ(q.count(), 1u);
    EXPECT_EQ(q.value(), 3.0);
}

TEST(P2Quantile, ExactBelowSixObservations)
{
    // Below six observations the estimator must match
    // percentileSorted (idx = floor(q * (n - 1))) bit for bit.
    const double sample[] = {0.7, 0.1, 1.9, 0.4, 1.2};
    for (double target : {0.50, 0.95, 0.99}) {
        for (std::size_t n = 1; n <= 5; ++n) {
            SCOPED_TRACE("q=" + std::to_string(target) +
                         " n=" + std::to_string(n));
            P2Quantile est(target);
            std::vector<double> sorted;
            for (std::size_t i = 0; i < n; ++i) {
                est.add(sample[i]);
                sorted.push_back(sample[i]);
            }
            std::sort(sorted.begin(), sorted.end());
            EXPECT_EQ(est.value(),
                      percentileSorted(sorted, target));
        }
    }
}

TEST(P2Quantile, ApproximatesLargeUniformSample)
{
    const std::size_t n = 20000;
    DetUniform rng(42);
    P2Quantile p50(0.50), p95(0.95), p99(0.99);
    std::vector<double> all;
    all.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = rng.next();
        all.push_back(x);
        p50.add(x);
        p95.add(x);
        p99.add(x);
    }
    std::sort(all.begin(), all.end());
    // Error well under 1% of the distribution's scale (here [0,1)).
    EXPECT_NEAR(p50.value(), percentileSorted(all, 0.50), 0.01);
    EXPECT_NEAR(p95.value(), percentileSorted(all, 0.95), 0.01);
    EXPECT_NEAR(p99.value(), percentileSorted(all, 0.99), 0.01);
    EXPECT_EQ(p99.count(), n);
}

TEST(P2Quantile, SkewedSampleStaysOrdered)
{
    // A heavy-tailed sample (x^4 pushes mass toward 0): estimates
    // stay ordered p50 <= p95 <= p99 and inside the sample range.
    DetUniform rng(7);
    P2Quantile p50(0.50), p95(0.95), p99(0.99);
    for (std::size_t i = 0; i < 5000; ++i) {
        const double u = rng.next();
        const double x = u * u * u * u * 10.0;
        p50.add(x);
        p95.add(x);
        p99.add(x);
    }
    EXPECT_LE(p50.value(), p95.value());
    EXPECT_LE(p95.value(), p99.value());
    EXPECT_GE(p50.value(), 0.0);
    EXPECT_LE(p99.value(), 10.0);
}

TEST(P2Quantile, DeterministicAcrossInstances)
{
    // Same observation sequence -> bitwise identical estimate (the
    // property per-replica estimators rely on to stay byte-stable
    // across cluster worker counts).
    DetUniform a_rng(99), b_rng(99);
    P2Quantile a(0.95), b(0.95);
    for (std::size_t i = 0; i < 4096; ++i) {
        a.add(a_rng.next());
        b.add(b_rng.next());
    }
    EXPECT_EQ(a.value(), b.value());
    EXPECT_EQ(a.count(), b.count());
}

/**
 * selectPercentiles picks what percentileSorted picks from a sorted
 * copy, bit for bit: random samples of every size from 1 to 257, with
 * ties (values drawn from a few levels) and without, at the ranks the
 * cluster reports (p50, p95, p99), at repeated ranks, and at the ends
 * (q = 0 and 1). An empty sample gives NaN.
 */
TEST(Percentiles, SelectionMatchesSortedPick)
{
    DetUniform rng(2718);
    const std::vector<std::vector<double>> rank_sets = {
        {0.50, 0.95, 0.99}, {0.95}, {0.0, 0.5, 0.5, 1.0}, {0.99, 0.99}};
    std::uint64_t checked = 0;
    for (std::size_t n = 1; n <= 257; ++n) {
        for (const bool ties : {false, true}) {
            std::vector<double> values(n);
            for (double &v : values) {
                v = ties ? std::floor(rng.next() * 5.0) * 0.25
                         : rng.next();
            }
            std::vector<double> sorted = values;
            std::sort(sorted.begin(), sorted.end());
            for (const std::vector<double> &qs : rank_sets) {
                std::vector<double> work = values;
                std::vector<double> picks(qs.size());
                selectPercentiles(work, qs, picks);
                for (std::size_t k = 0; k < qs.size(); ++k) {
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(picks[k]),
                              std::bit_cast<std::uint64_t>(
                                  percentileSorted(sorted, qs[k])))
                        << "n " << n << " ties " << ties << " q "
                        << qs[k];
                    ++checked;
                }
                // Selection only reorders the sample.
                std::sort(work.begin(), work.end());
                EXPECT_EQ(work, sorted) << "n " << n;
            }
        }
    }
    EXPECT_EQ(checked, 257u * 2 * 10);
    std::vector<double> empty;
    const double qs[] = {0.5, 0.99};
    double picks[2] = {0.0, 0.0};
    selectPercentiles(empty, qs, picks);
    EXPECT_TRUE(std::isnan(picks[0]));
    EXPECT_TRUE(std::isnan(picks[1]));
}

} // namespace
