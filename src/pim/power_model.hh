/**
 * @file
 * PIM device power model (paper Fig. 7(c)).
 *
 * Two views are provided:
 *
 *  - fullyFedPower(): the design-space view the paper uses in Fig.
 *    7(c): assume the FPUs are always busy ("fully fed") and the DRAM
 *    fetch rate equals the FPU consumption rate divided by the data
 *    reuse level. This is the frame in which 4P1B without reuse draws
 *    ~480 W and reuse brings it under the 116 W HBM3 budget.
 *
 *  - executionPower(): average power of an actual simulated kernel
 *    (energy / time) for reporting end-to-end energy efficiency.
 */

#ifndef PAPI_PIM_POWER_MODEL_HH
#define PAPI_PIM_POWER_MODEL_HH

#include <cstdint>

#include "pim/energy_model.hh"
#include "pim/gemv_engine.hh"
#include "pim/pim_config.hh"

namespace papi::pim {

/** HBM3 8-high 16 GB cube power budget (JEDEC IDD7 frame), watts. */
constexpr double hbm3PowerBudgetWatts = 116.0;

/** Power split for reporting. */
struct PimPowerBreakdown
{
    double dramAccess = 0.0; ///< Activation + cell read watts.
    double transfer = 0.0;   ///< Activation-data movement watts.
    double compute = 0.0; ///< FPU dynamic.
    double fpuStatic = 0.0; ///< FPU leakage watts.

    /** Total watts. */
    double
    total() const
    {
        return dramAccess + transfer + compute + fpuStatic;
    }
};

/** Power model bound to one PIM configuration. */
class PowerModel
{
  public:
    /** Power model of @p config with energy constants @p params. */
    PowerModel(const PimConfig &config, const PimEnergyParams &params);

    /**
     * Fully-fed sustained power of the whole device at a given data
     * reuse level (Fig. 7(c) frame; see file comment).
     */
    PimPowerBreakdown fullyFedPower(std::uint32_t reuse) const;

    /** True if fullyFedPower(reuse) fits in the HBM3 budget. */
    bool
    withinBudget(std::uint32_t reuse) const
    {
        return fullyFedPower(reuse).total() <= hbm3PowerBudgetWatts;
    }

    /** Smallest reuse level at which the config fits the budget,
     *  searching up to @p max_reuse. Returns 0 if none fits. */
    std::uint32_t minReuseWithinBudget(std::uint32_t max_reuse) const;

    /**
     * Average power of an actual kernel execution whose timing and
     * counts are in @p result (per pseudo-channel; scaled to the
     * device by the caller or via whole_device).
     */
    double executionPower(const GemvResult &result,
                          std::uint32_t reuse) const;

  private:
    PimConfig _config;
    PimEnergyParams _params;
};

} // namespace papi::pim

#endif // PAPI_PIM_POWER_MODEL_HH
