/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Stats are registered with a StatGroup which can render them as a
 * flat name = value listing. Supported kinds:
 *  - Scalar: a single accumulating value.
 *  - Vector: a fixed set of named bins.
 *  - Histogram: fixed-width bucketing with mean/stddev.
 *  - Formula: a value derived from other stats at dump time.
 */

#ifndef PAPI_SIM_STATS_HH
#define PAPI_SIM_STATS_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace papi::sim::stats {

/** Base class for all statistics. */
class StatBase
{
  public:
    /** A stat named @p name (unqualified) described by @p desc. */
    StatBase(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    virtual ~StatBase() = default;

    /** The unqualified stat name. */
    const std::string &name() const { return _name; }
    /** The one-line description printed after the value. */
    const std::string &desc() const { return _desc; }

    /** Render this stat as one or more "name value # desc" lines. */
    virtual void print(std::ostream &os) const = 0;

    /** Reset the stat to its initial state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A single accumulating scalar value. */
class Scalar : public StatBase
{
  public:
    /** A scalar at 0 (StatBase's name and description). */
    using StatBase::StatBase;

    /** Add @p v. */
    Scalar &operator+=(double v) { _value += v; return *this; }
    /** Add 1. */
    Scalar &operator++() { _value += 1.0; return *this; }
    /** Overwrite the value with @p v. */
    void set(double v) { _value = v; }
    /** The current value. */
    double value() const { return _value; }

    /** One "name value # desc" line. */
    void print(std::ostream &os) const override;
    /** Back to 0. */
    void reset() override { _value = 0.0; }

  private:
    double _value = 0.0;
};

/** A fixed set of named bins, each an accumulating scalar. */
class Vector : public StatBase
{
  public:
    /** A vector of one zeroed bin per name in @p bin_names. */
    Vector(std::string name, std::string desc,
           std::vector<std::string> bin_names)
        : StatBase(std::move(name), std::move(desc)),
          _binNames(std::move(bin_names)), _values(_binNames.size(), 0.0)
    {}

    /** Accumulate into bin @p i. */
    void
    add(std::size_t i, double v)
    {
        if (i >= _values.size())
            panic("stats::Vector '", name(), "': bin ", i, " out of range");
        _values[i] += v;
    }

    /** The value of bin @p i (panics when out of range). */
    double
    value(std::size_t i) const
    {
        if (i >= _values.size())
            panic("stats::Vector '", name(), "': bin ", i, " out of range");
        return _values[i];
    }

    /** Number of bins. */
    std::size_t size() const { return _values.size(); }
    /** Sum over every bin. */
    double total() const;

    /** One "name::bin value # desc" line per bin, then the total. */
    void print(std::ostream &os) const override;
    /** Every bin back to 0. */
    void reset() override { _values.assign(_values.size(), 0.0); }

  private:
    std::vector<std::string> _binNames;
    std::vector<double> _values;
};

/** Fixed-width bucketed histogram with running mean/stddev. */
class Histogram : public StatBase
{
  public:
    /**
     * @param lo Lower edge of the first bucket.
     * @param hi Upper edge of the last bucket.
     * @param buckets Number of buckets; samples outside [lo,hi) land in
     *        underflow/overflow counters.
     */
    Histogram(std::string name, std::string desc, double lo, double hi,
              std::size_t buckets);

    /** Record one sample. */
    void sample(double v);

    /** Samples recorded, in range or not. */
    std::uint64_t samples() const { return _count; }
    /** Mean of every sample (0 before the first). */
    double mean() const { return _count ? _sum / _count : 0.0; }
    /** Sample standard deviation (n - 1) of every sample; 0 below
     *  two samples. */
    double stddev() const;
    /** Smallest sample recorded. */
    double minSample() const { return _min; }
    /** Largest sample recorded. */
    double maxSample() const { return _max; }
    /** Samples in bucket @p i (throws when out of range). */
    std::uint64_t bucketCount(std::size_t i) const { return _buckets.at(i); }
    /** Samples below the first bucket. */
    std::uint64_t underflows() const { return _under; }
    /** Samples at or above the last bucket's upper edge. */
    std::uint64_t overflows() const { return _over; }

    /** Sample count, mean and stddev lines, then one line per
     *  bucket. */
    void print(std::ostream &os) const override;
    /** Drop every sample. */
    void reset() override;

  private:
    double _lo;
    double _hi;
    double _width;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _under = 0;
    std::uint64_t _over = 0;
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/** A value computed from other stats at dump time. */
class Formula : public StatBase
{
  public:
    /** A stat whose value is @p fn evaluated when read. */
    Formula(std::string name, std::string desc,
            std::function<double()> fn)
        : StatBase(std::move(name), std::move(desc)), _fn(std::move(fn))
    {}

    /** @p fn's current value (0 for a null function). */
    double value() const { return _fn ? _fn() : 0.0; }

    /** One "name value # desc" line. */
    void print(std::ostream &os) const override;
    /** Nothing to reset: the value is computed. */
    void reset() override {}

  private:
    std::function<double()> _fn;
};

/**
 * Owner and registry for a set of stats.
 *
 * Groups are named; stat names are qualified as "group.stat". Creating
 * two stats with the same name in one group is a user error.
 */
class StatGroup
{
  public:
    /** An empty group named @p name (dump() prints it as the
     *  section header). */
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    /** The group name. */
    const std::string &name() const { return _name; }

    /** Register a Scalar; fatal if @p name is taken. The reference
     *  stays valid for the group's lifetime. */
    Scalar &addScalar(const std::string &name, const std::string &desc);
    /** Register a Vector with bins @p bin_names; fatal if @p name is
     *  taken. */
    Vector &addVector(const std::string &name, const std::string &desc,
                      std::vector<std::string> bin_names);
    /** Register a Histogram (see its constructor); fatal if @p name
     *  is taken. */
    Histogram &addHistogram(const std::string &name,
                            const std::string &desc, double lo, double hi,
                            std::size_t buckets);
    /** Register a Formula over @p fn; fatal if @p name is taken. */
    Formula &addFormula(const std::string &name, const std::string &desc,
                        std::function<double()> fn);

    /** Find a stat by unqualified name; nullptr if absent. */
    const StatBase *find(const std::string &name) const;

    /** Number of registered stats. */
    std::size_t size() const { return _order.size(); }

    /** Print all stats in registration order. */
    void dump(std::ostream &os) const;

    /** Reset all stats. */
    void resetAll();

  private:
    void registerStat(std::unique_ptr<StatBase> stat);

    std::string _name;
    std::vector<std::unique_ptr<StatBase>> _order;
    std::map<std::string, StatBase *> _byName;
};

} // namespace papi::sim::stats

#endif // PAPI_SIM_STATS_HH
