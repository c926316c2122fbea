/**
 * @file
 * Status and error reporting in the gem5 style.
 *
 * panic()  - an internal simulator invariant was violated (a bug in this
 *            library); throws sim::PanicError so tests can assert on it.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); throws
 *            sim::FatalError.
 * warn()   - something may be modelled imprecisely but execution can
 *            continue.
 * inform() - plain status output.
 *
 * Unlike gem5 we throw exceptions instead of calling abort()/exit() so
 * that the library is embeddable and unit-testable.
 */

#ifndef PAPI_SIM_LOGGING_HH
#define PAPI_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace papi::sim {

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    /** An error carrying the panic message @p msg. */
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    /** An error carrying the fatal message @p msg. */
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail {

/** Concatenate a pack of streamable arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report an internal simulator bug: throws a PanicError whose
 *  message concatenates @p args. Never returns. */
template <typename... Args> [[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(detail::concat("panic: ",
                                    std::forward<Args>(args)...));
}

/** Report an unrecoverable user/configuration error: throws a
 *  FatalError whose message concatenates @p args. Never returns. */
template <typename... Args> [[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::concat("fatal: ",
                                    std::forward<Args>(args)...));
}

/** Enable or disable warn()/inform() console output (default on). */
void setLogEnabled(bool enabled);

/** True if console output is currently enabled. */
bool logEnabled();

/** Print a warning to stderr (if logging is enabled). */
void warnStr(const std::string &msg);

/** Print an informational message to stdout (if logging is enabled). */
void informStr(const std::string &msg);

/** Print a warning built from streamable arguments. */
template <typename... Args>
void
warn(Args &&...args)
{
    warnStr(detail::concat(std::forward<Args>(args)...));
}

/** Print an informational message built from streamable arguments. */
template <typename... Args>
void
inform(Args &&...args)
{
    informStr(detail::concat(std::forward<Args>(args)...));
}

} // namespace papi::sim

#endif // PAPI_SIM_LOGGING_HH
