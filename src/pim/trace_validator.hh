/**
 * @file
 * Independent validation of PIM command traces.
 *
 * GemvEngine can record the exact (tick, command) stream it issues;
 * TraceValidator re-checks that stream against the JEDEC constraints
 * with a completely separate implementation. This is
 * defense-in-depth for the timing model: the engine's scheduling
 * logic and the validator's rule set would have to contain the same
 * bug to let a violation through.
 */

#ifndef PAPI_PIM_TRACE_VALIDATOR_HH
#define PAPI_PIM_TRACE_VALIDATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dram/command.hh"
#include "dram/timing.hh"
#include "sim/types.hh"

namespace papi::pim {

/** One recorded command issue. */
struct TraceEntry
{
    sim::Tick tick = 0;     ///< Issue tick.
    dram::Command command;  ///< Command and its coordinates.
};

/** A recorded command stream. */
using CommandTrace = std::vector<TraceEntry>;

/** Result of validating a trace. */
struct ValidationResult
{
    bool ok = true;              ///< No rule was violated.
    std::size_t violations = 0;  ///< Number of violations found.
    /** First violation description (empty when ok). */
    std::string firstViolation;
};

/** Re-checks command streams against DRAM timing rules. */
class TraceValidator
{
  public:
    /** Validator for streams on a channel of @p spec. */
    explicit TraceValidator(const dram::DramSpec &spec)
        : _spec(spec)
    {}

    /**
     * Validate @p trace. Checked rules:
     *  - non-decreasing issue ticks;
     *  - ACT only on a closed bank; column commands only on the
     *    addressed open row; PRE only on an open bank;
     *  - per-bank tRCD (ACT to column), tRAS (ACT to PRE), tRP
     *    (PRE to ACT), tRC (ACT to ACT);
     *  - per-bank column cadence >= tCCD_S (PIM) / tCCD_L (ext);
     *  - channel tRRD_S/tRRD_L between ACTs and the tFAW window.
     */
    ValidationResult validate(const CommandTrace &trace) const;

  private:
    dram::DramSpec _spec;
};

} // namespace papi::pim

#endif // PAPI_PIM_TRACE_VALIDATOR_HH
