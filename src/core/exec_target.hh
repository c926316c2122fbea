/**
 * @file
 * The execution-target registry: an N-way description of where a
 * kernel phase may run.
 *
 * The paper evaluates a fixed two-way choice (GPU processing units
 * vs FC-PIM devices) for the FC phase. Real deployments - and the
 * heterogeneous-cluster scenarios this repository grows toward -
 * need more shapes: attention offload targets, multiple PIM device
 * classes, GPU-less systems. An ExecTarget names one compute
 * resource and binds the platform's latency/energy cost functions
 * for the phases it can run; a TargetRegistry (owned by
 * core::Platform) holds the platform's full target list and is the
 * domain over which per-phase DispatchPolicy instances select.
 */

#ifndef PAPI_CORE_EXEC_TARGET_HH
#define PAPI_CORE_EXEC_TARGET_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "llm/model_config.hh"

namespace papi::core {

/** Kernel phases a per-phase dispatch decision is made for. */
enum class Phase : std::uint8_t
{
    Prefill,   ///< Prompt processing at admission.
    Fc,        ///< Decode fully-connected kernels (QKV/proj/FFN).
    Attention, ///< Decode multi-head attention over the KV caches.
};

/** Printable phase name ("prefill", "fc", "attention"). */
const char *phaseName(Phase phase);

/** Hardware resource class backing an execution target. */
enum class TargetKind : std::uint8_t
{
    Gpu,     ///< GPU processing units.
    FcPim,   ///< Near-bank compute on the FC-weight devices.
    AttnPim, ///< Near-bank compute on the KV-cache devices.
};

/** Printable kind name ("gpu", "fc-pim", "attn-pim"). */
const char *targetKindName(TargetKind kind);

/** Index of a target in its platform's registry. */
using TargetId = std::uint32_t;

/** Sentinel: no target. */
inline constexpr TargetId kInvalidTargetId = ~TargetId{0};

/** Timing/energy outcome of one kernel phase on the platform. */
struct KernelExec
{
    double seconds = 0.0;      ///< Total phase time.
    double commSeconds = 0.0;  ///< Included in seconds.
    double energyJoules = 0.0; ///< Total phase energy.
    double commJoules = 0.0;   ///< Included in energyJoules.
    bool computeBound = false; ///< Roofline regime of the kernel.
};

/** FC-phase cost of @p tokens = RLP x TLP tokens on a target. */
using FcCostFn = std::function<KernelExec(
    const llm::ModelConfig &model, std::uint32_t tokens)>;

/**
 * Attention-phase cost on a target over a decode batch's aggregates:
 * @p ctx_sum context tokens summed over @p requests live requests,
 * each verifying @p tlp tokens. Attention reads the contexts only
 * through their sum and count, so no per-request vector is needed.
 */
using AttnCostFn = std::function<KernelExec(
    const llm::ModelConfig &model, std::uint64_t ctx_sum,
    std::uint32_t requests, std::uint32_t tlp)>;

/** Prefill cost over admitted prompt lengths on a target. */
using PrefillCostFn = std::function<KernelExec(
    const llm::ModelConfig &model,
    const std::vector<std::uint32_t> &input_lens)>;

/**
 * One execution target: a named compute resource plus the cost
 * callbacks for the phases it supports. A null callback means the
 * target cannot run that phase (e.g. plain GPU HBM has no near-bank
 * compute, so its "fc-pim" slot is simply never registered; the
 * AttnPim devices never run FC).
 */
struct ExecTarget
{
    std::string name;                   ///< Registry-unique name.
    TargetKind kind = TargetKind::Gpu;  ///< Resource class.
    FcCostFn fcCost;                    ///< FC phase, or null.
    AttnCostFn attnCost;                ///< Attention phase, or null.
    PrefillCostFn prefillCost;          ///< Prefill phase, or null.

    /** True if the target has a cost callback for @p phase. */
    bool supports(Phase phase) const;
};

/**
 * The ordered target list of one platform. Ids are dense indexes in
 * registration order, so they are stable for a given platform
 * configuration and cheap to use as array keys (per-target counters,
 * memo-cache keys).
 */
class TargetRegistry
{
  public:
    /**
     * Register @p target and return its id. Fatal on an empty or
     * duplicate name.
     */
    TargetId add(ExecTarget target);

    /** Registered target count. */
    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(_targets.size());
    }

    /** The target with id @p id; fatal if out of range. */
    const ExecTarget &at(TargetId id) const;

    /** Id of the target named @p name, if registered. */
    std::optional<TargetId> find(std::string_view name) const;

    /** Id of the target named @p name; fatal if absent. */
    TargetId require(std::string_view name) const;

    /** Id of the first target of @p kind, if any. */
    std::optional<TargetId> firstOfKind(TargetKind kind) const;

    /** Ids of all targets that support @p phase, in id order. */
    std::vector<TargetId> supporting(Phase phase) const;

    /** All targets, in id order. */
    const std::vector<ExecTarget> &all() const { return _targets; }

  private:
    std::vector<ExecTarget> _targets;
};

} // namespace papi::core

#endif // PAPI_CORE_EXEC_TARGET_HH
