/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * All stochastic behaviour in the simulator (trace generation,
 * speculative-decoding acceptance) draws from an explicitly seeded
 * Rng so experiments are exactly reproducible.
 */

#ifndef PAPI_SIM_RNG_HH
#define PAPI_SIM_RNG_HH

#include <cstdint>
#include <random>

namespace papi::sim {

/** Seeded random source with the distributions the workloads need. */
class Rng
{
  public:
    /** A source seeded with @p seed: equal seeds draw equal
     *  sequences on every platform. */
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : _engine(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli trial with probability @p p of true. */
    bool bernoulli(double p);

    /**
     * Log-normal sample parameterised by the target mean/stddev of the
     * resulting (not underlying normal) distribution. Used for
     * sequence-length synthesis where real datasets are heavy-tailed.
     */
    double logNormalByMoments(double mean, double stddev);

    /** Geometric sample: number of failures before first success. */
    std::int64_t geometric(double p);

    /** Exponential sample with the given mean. */
    double exponential(double mean);

    /** Access to the underlying engine for std distributions. */
    std::mt19937_64 &engine() { return _engine; }

  private:
    std::mt19937_64 _engine;
};

} // namespace papi::sim

#endif // PAPI_SIM_RNG_HH
