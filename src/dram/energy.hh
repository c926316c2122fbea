/**
 * @file
 * DRAM energy accounting from command counts.
 *
 * Constants are HBM3-class estimates; the PAPI reproduction cares
 * about the relative split between row activation energy, data
 * transfer energy, and compute energy (paper Fig. 7), so the model
 * keeps those components separable. Absolute joules are documented
 * estimates, not silicon measurements.
 */

#ifndef PAPI_DRAM_ENERGY_HH
#define PAPI_DRAM_ENERGY_HH

#include <cstdint>

#include "dram/hbm_stack.hh"

namespace papi::dram {

/** Energy parameters for one HBM pseudo-channel/bank fabric. */
struct DramEnergyParams
{
    /** Joules per row activate + matching precharge (1 KiB row). */
    double actPreEnergy = 12.0e-9;
    /** Joules per byte read from the cell array to the bank edge
     *  (3.75 pJ/bit). */
    double cellReadEnergyPerByte = 30.0e-12;
    /** Joules per byte written into the cell array. */
    double cellWriteEnergyPerByte = 33.0e-12;
    /** Joules per byte through TSV + PHY to the external interface
     *  (6 pJ/bit). */
    double externalIoEnergyPerByte = 48.0e-12;
    /** Background (standby/refresh) power per pseudo-channel, watts. */
    double backgroundPowerPerChannel = 0.35;
};

/** Accumulated DRAM energy, split by component. */
struct DramEnergyBreakdown
{
    double actPre = 0.0;     ///< Activation/precharge joules.
    double cellAccess = 0.0; ///< Cell array read/write joules.
    double externalIo = 0.0; ///< TSV/PHY transfer joules.
    double background = 0.0; ///< Standby joules over elapsed time.

    /** Sum of the four components, in joules. */
    double
    total() const
    {
        return actPre + cellAccess + externalIo + background;
    }
};

/**
 * Compute energy for a command mix.
 *
 * @param params Energy constants.
 * @param activations Row activate (+precharge) count.
 * @param internal_bytes Bytes moved cell-array <-> bank edge
 *        (includes both external accesses and near-bank PIM reads).
 * @param external_bytes Bytes that additionally crossed TSV/PHY.
 * @param elapsed_seconds Wall-clock span for background energy.
 * @param num_channels Pseudo-channels drawing background power.
 */
DramEnergyBreakdown dramEnergy(const DramEnergyParams &params,
                               std::uint64_t activations,
                               std::uint64_t internal_bytes,
                               std::uint64_t external_bytes,
                               double elapsed_seconds,
                               std::uint32_t num_channels);

} // namespace papi::dram

#endif // PAPI_DRAM_ENERGY_HH
