/**
 * @file
 * PIM device configuration: the xPyB design space of the PAPI paper.
 *
 * "xPyB" means x FPUs shared across y DRAM banks. The paper evaluates
 * 1P1B (AttAcc), 1P2B (Samsung HBM-PIM and PAPI's Attn-PIM) and 4P1B
 * (PAPI's FC-PIM).
 */

#ifndef PAPI_PIM_PIM_CONFIG_HH
#define PAPI_PIM_PIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "dram/timing.hh"

namespace papi::pim {

/** Near-bank floating-point unit description. */
struct FpuSpec
{
    /** FP16 MAC lanes per FPU (one 32 B column feeds 16 lanes). */
    std::uint32_t lanes = 16;
    /** FPU clock in MHz (the paper uses 666 MHz). */
    double clockMhz = 666.0;

    /** FLOPs per cycle of one FPU (MAC = 2 FLOPs per lane). */
    double
    flopsPerCycle() const
    {
        return 2.0 * static_cast<double>(lanes);
    }

    /** Peak FLOP/s of one FPU. */
    double
    peakFlops() const
    {
        return flopsPerCycle() * clockMhz * 1e6;
    }

    /** FPU clock period in ticks. */
    sim::Tick
    periodTicks() const
    {
        return sim::periodFromMhz(clockMhz);
    }
};

/** A complete PIM device (HBM stack + near-bank compute) config. */
struct PimConfig
{
    std::string name = "pim"; ///< Preset name, e.g. "fc-pim".
    /** FPUs per bank-sharing group (the "x" in xPyB). */
    std::uint32_t fpusPerGroup = 1;
    /** Banks sharing that FPU group (the "y" in xPyB). */
    std::uint32_t banksPerGroup = 1;
    /** Pseudo-channels in the stack (16 => 16 GB; 12 => 12 GB). */
    std::uint32_t pseudoChannels = 16;
    /** DRAM spec for each pseudo-channel. */
    dram::DramSpec dramSpec;
    /** FPU description. */
    FpuSpec fpu;

    /** FPUs per bank as a real number (may be fractional, e.g. 0.5). */
    double
    fpusPerBank() const
    {
        return static_cast<double>(fpusPerGroup) /
               static_cast<double>(banksPerGroup);
    }

    /** Total banks in the device. */
    std::uint32_t
    totalBanks() const
    {
        return pseudoChannels * dramSpec.org.banks();
    }

    /** Total FPUs in the device. */
    double
    totalFpus() const
    {
        return fpusPerBank() * static_cast<double>(totalBanks());
    }

    /** Device capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(pseudoChannels) *
               dramSpec.org.capacityBytes();
    }

    /** Peak compute of the whole device in FLOP/s. */
    double
    peakDeviceFlops() const
    {
        return totalFpus() * fpu.peakFlops();
    }

    /** The xPyB label, e.g. "4P1B". */
    std::string xPyBLabel() const;
};

/** AttAcc-style device: one FPU per bank, full 16 GB capacity. */
PimConfig attAccConfig();

/** Samsung HBM-PIM-style device: one FPU per two banks, 16 GB. */
PimConfig hbmPimConfig();

/**
 * PAPI FC-PIM: four FPUs per bank; capacity reduced to 12 GB (96 of
 * 128 banks' cell area kept) per the area model of Section 6.1.
 */
PimConfig fcPimConfig();

/** PAPI Attn-PIM: one FPU per two banks, 16 GB, disaggregated. */
PimConfig attnPimConfig();

} // namespace papi::pim

#endif // PAPI_PIM_PIM_CONFIG_HH
