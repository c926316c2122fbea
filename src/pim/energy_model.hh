/**
 * @file
 * PIM execution energy model (paper Fig. 7).
 *
 * Energy of a near-bank PIM kernel splits into three components:
 *  - DRAM Access: row activation/precharge plus cell-array reads of
 *    the weight data.
 *  - Transfer: moving activation (input) data from the buffer die via
 *    TSV / global controller / bank-group controller to the FPUs.
 *  - Computation: the FPU MACs themselves.
 *
 * The constants are calibrated so that, with no data reuse, DRAM
 * Access is ~96.7% of the total (paper Fig. 7(a)) and at reuse level
 * 64 it falls to ~33% (Fig. 7(b)).
 */

#ifndef PAPI_PIM_ENERGY_MODEL_HH
#define PAPI_PIM_ENERGY_MODEL_HH

#include <cstdint>

#include "dram/energy.hh"
#include "pim/pim_config.hh"

namespace papi::pim {

/** Energy constants for PIM execution. */
struct PimEnergyParams
{
    /** DRAM-side constants (activation + cell read). */
    dram::DramEnergyParams dram;
    /**
     * Joules per byte of activation data moved buffer-die -> FPU
     * (TSV + global + bank-group controller hops).
     */
    double transferEnergyPerByte = 0.9e-12;
    /** Joules per FP16 FLOP in the near-bank FPU. */
    double fpuEnergyPerFlop = 0.42e-12;
    /** Static power per FPU in watts (leakage + clocking). */
    double fpuStaticPowerPerFpu = 0.02;
};

/** Energy split of one PIM kernel execution. */
struct PimEnergyBreakdown
{
    double dramAccess = 0.0; ///< Activation + cell read joules.
    double transfer = 0.0;   ///< Activation-data movement joules.
    double compute = 0.0;    ///< FPU joules.

    /** Total joules. */
    double total() const { return dramAccess + transfer + compute; }

    /** DRAM-access share of the total in [0,1]; 0 when empty. */
    double
    dramShare() const
    {
        double t = total();
        return t > 0.0 ? dramAccess / t : 0.0;
    }
};

/**
 * Energy for a weight-stationary GEMV execution.
 *
 * @param params Energy constants.
 * @param activations Row activations performed.
 * @param streamed_bytes Weight bytes read from the cell arrays.
 * @param reuse Input vectors served per weight element (data-reuse
 *        level). Transfer and compute scale with reuse; DRAM access
 *        does not - that asymmetry is the entire point of Fig. 7.
 */
PimEnergyBreakdown pimGemvEnergy(const PimEnergyParams &params,
                                 std::uint64_t activations,
                                 std::uint64_t streamed_bytes,
                                 std::uint32_t reuse);

} // namespace papi::pim

#endif // PAPI_PIM_ENERGY_MODEL_HH
