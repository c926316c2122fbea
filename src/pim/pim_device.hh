/**
 * @file
 * A complete PIM device: HBM stack + near-bank compute + energy.
 *
 * PimDevice is the unit the platform layer composes: the system has
 * N FC-PIM devices holding FC weights and M Attn-PIM devices holding
 * KV caches (or AttAcc/HBM-PIM devices in the baselines). The device
 * exposes kernel-level timing/energy queries; command-level detail
 * comes from pim::GemvEngine on the dram substrate.
 */

#ifndef PAPI_PIM_PIM_DEVICE_HH
#define PAPI_PIM_PIM_DEVICE_HH

#include <cstdint>

#include "pim/attention_engine.hh"
#include "pim/data_layout.hh"
#include "pim/energy_model.hh"
#include "pim/gemv_engine.hh"
#include "pim/pim_config.hh"
#include "pim/power_model.hh"

namespace papi::pim {

/** Timing and energy of one kernel invocation on a device fleet. */
struct PimKernelResult
{
    double seconds = 0.0; ///< Kernel latency, launch included.
    /** Energy across all participating devices, joules. */
    PimEnergyBreakdown energy;
    bool computeBound = false; ///< FPU service, not DRAM, set the pace.
    /** Bytes streamed from the cell arrays, all devices. */
    std::uint64_t streamedBytes = 0;
};

/** One PIM device type plus fleet-level kernel queries. */
class PimDevice
{
  public:
    /** Device of type @p config with energy constants @p params. */
    explicit PimDevice(const PimConfig &config,
                       const PimEnergyParams &params = {});

    /** The device configuration. */
    const PimConfig &config() const { return _config; }
    /** The energy constants kernels are charged with. */
    const PimEnergyParams &energyParams() const { return _params; }
    /** The device's power model. */
    const PowerModel &powerModel() const { return _power; }
    /** The GEMV engine that times FC kernels. */
    const GemvEngine &gemvEngine() const { return _gemv; }

    /**
     * Fully-connected GEMV: @p weight_bytes of FP16 weights sharded
     * over @p num_devices devices of this type, each weight element
     * combined with @p reuse (= RLP x TLP) input vectors.
     *
     * Includes the fixed kernel-launch latency of the PIM command
     * path; input broadcast and output collection are charged by the
     * interconnect layer, not here.
     */
    PimKernelResult fcGemv(std::uint64_t weight_bytes,
                           std::uint32_t reuse,
                           std::uint32_t num_devices) const;

    /**
     * One decode iteration of multi-head attention.
     *
     * @param kv_bytes_total Total K+V bytes live this iteration
     *        (across all requests, heads, layers being executed).
     * @param num_heads Head count used for distribution.
     * @param tlp Speculation length (KV reuse factor).
     * @param score_elements Total score elements for softmax.
     * @param num_devices Attn-PIM devices holding KV data.
     */
    PimKernelResult attention(std::uint64_t kv_bytes_total,
                              std::uint32_t num_heads,
                              std::uint32_t tlp,
                              std::uint64_t score_elements,
                              std::uint32_t num_devices) const;

    /** Fixed PIM kernel launch overhead, seconds. */
    double launchOverheadSeconds() const { return _launchOverhead; }

  private:
    PimConfig _config;
    PimEnergyParams _params;
    GemvEngine _gemv;
    AttentionEngine _attn;
    PowerModel _power;
    DataLayout _layout;
    double _launchOverhead = 2.0e-6; // host -> PIM command dispatch
};

} // namespace papi::pim

#endif // PAPI_PIM_PIM_DEVICE_HH
