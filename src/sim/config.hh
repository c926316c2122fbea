/**
 * @file
 * A typed key/value configuration store.
 *
 * Benchmarks, examples, and tests use Config to override model
 * parameters without recompiling. Keys are dotted strings
 * ("gpu.peak_tflops"); values are stored as strings and parsed on
 * access. Unknown keys with no default are a fatal (user) error.
 */

#ifndef PAPI_SIM_CONFIG_HH
#define PAPI_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace papi::sim {

/** Typed key/value configuration store with dotted keys. */
class Config
{
  public:
    /** An empty store. */
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    /** Set (or overwrite) a key to a double, stored as its text. */
    void set(const std::string &key, double value);
    /** Set (or overwrite) a key to an integer, stored as its text. */
    void set(const std::string &key, std::int64_t value);
    /** Set (or overwrite) a key to "true" or "false". */
    void set(const std::string &key, bool value);

    /** True if @p key has been set. */
    bool has(const std::string &key) const;

    /** Get a string value; fatal if absent. */
    std::string getString(const std::string &key) const;
    /** Get a string value or @p def if absent. */
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** Get a double; fatal if absent or unparseable. */
    double getDouble(const std::string &key) const;
    /** Get a double or @p def if absent; fatal if unparseable. */
    double getDouble(const std::string &key, double def) const;

    /** Get a signed integer; fatal if absent or unparseable. */
    std::int64_t getInt(const std::string &key) const;
    /** Get a signed integer or @p def if absent; fatal if
     *  unparseable. */
    std::int64_t getInt(const std::string &key, std::int64_t def) const;

    /** Get a bool ("true"/"false"/"1"/"0"); fatal if unparseable. */
    bool getBool(const std::string &key) const;
    /** Get a bool or @p def if absent; fatal if unparseable. */
    bool getBool(const std::string &key, bool def) const;

    /**
     * Parse a "key=value" assignment (as from a command line) and set
     * it. Fatal on malformed input.
     */
    void parseAssignment(const std::string &assignment);

    /** All keys in sorted order (for dumps). */
    std::vector<std::string> keys() const;

    /** Merge @p other into this config; other's values win. */
    void merge(const Config &other);

  private:
    std::optional<std::string> lookup(const std::string &key) const;

    std::map<std::string, std::string> _values;
};

} // namespace papi::sim

#endif // PAPI_SIM_CONFIG_HH
