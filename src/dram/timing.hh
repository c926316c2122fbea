/**
 * @file
 * DRAM timing and organization parameters.
 *
 * Timings are stored in ticks (picoseconds) and derived from an HBM3
 * datasheet-style description (JEDEC HBM3, 5.2 Gbps/pin as used in the
 * PAPI paper). The organization describes one pseudo-channel; a stack
 * aggregates pseudo-channels (see dram/hbm_stack.hh).
 */

#ifndef PAPI_DRAM_TIMING_HH
#define PAPI_DRAM_TIMING_HH

#include <cstdint>

#include "sim/types.hh"

namespace papi::dram {

/** DRAM timing is in simulator ticks (picoseconds). */
using sim::Tick;

/** Per-pseudo-channel organization parameters. */
struct OrgParams
{
    /** Bank groups per pseudo-channel. */
    std::uint32_t bankGroups = 2;
    /** Banks per bank group. */
    std::uint32_t banksPerGroup = 4;
    /** Rows per bank. */
    std::uint32_t rowsPerBank = 65536;
    /** Row (page) size in bytes per bank. */
    std::uint32_t rowBytes = 1024;
    /** Bytes transferred by one column access (burst). */
    std::uint32_t accessBytes = 32;
    /** Data bus width in bits. */
    std::uint32_t busBits = 32;

    /** Total banks in the pseudo-channel. */
    std::uint32_t banks() const { return bankGroups * banksPerGroup; }

    /** Column accesses per row. */
    std::uint32_t
    columnsPerRow() const
    {
        return rowBytes / accessBytes;
    }

    /** Capacity of the pseudo-channel in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(banks()) * rowsPerBank *
               rowBytes;
    }
};

/** DRAM timing constraints, all in ticks. */
struct TimingParams
{
    Tick tRCD = 0;   ///< ACT to internal RD/WR delay.
    Tick tRP = 0;    ///< PRE to ACT delay.
    Tick tRAS = 0;   ///< ACT to PRE minimum.
    Tick tRC = 0;    ///< ACT to ACT (same bank) minimum.
    Tick tCL = 0;    ///< RD to first data.
    Tick tWL = 0;    ///< WR to first data.
    Tick tBURST = 0; ///< Data burst duration for one access.
    Tick tCCD_S = 0; ///< Column-to-column, different bank group.
    Tick tCCD_L = 0; ///< Column-to-column, same bank group.
    Tick tRRD_S = 0; ///< ACT-to-ACT, different bank group.
    Tick tRRD_L = 0; ///< ACT-to-ACT, same bank group.
    Tick tFAW = 0;   ///< Four-activate window.
    Tick tWR = 0;    ///< Write recovery (end of write data to PRE).
    Tick tRTP = 0;   ///< Read to PRE delay.
    Tick tREFI = 0;  ///< Refresh interval.
    Tick tRFC = 0;   ///< Refresh cycle time.
    Tick tCK = 0;    ///< Command-bus cycle (one command per tCK).
    Tick tWTR = 0;   ///< Write-burst end to read command (turnaround).
    Tick tRTW = 0;   ///< Read-burst end to write command.

    /** Data-pin rate in Gbit/s (for bandwidth math). */
    double dataRateGbps = 0.0;
};

/** A complete device description: organization plus timing. */
struct DramSpec
{
    OrgParams org;       ///< Banks, rows and access sizes.
    TimingParams timing; ///< Command timing in ticks.

    /**
     * Peak data bandwidth of one pseudo-channel in bytes/second:
     * one access of accessBytes every tBURST.
     */
    double
    peakChannelBandwidth() const
    {
        return static_cast<double>(org.accessBytes) /
               sim::ticksToSeconds(timing.tBURST);
    }
};

/**
 * HBM3-class pseudo-channel spec at 5.2 Gbps/pin.
 *
 * 32-bit pseudo-channel, BL8 -> 32 bytes per access in
 * 8 / 5.2e9 s = 1539 ps. Core timings follow published HBM3 values.
 */
DramSpec hbm3Spec();

} // namespace papi::dram

#endif // PAPI_DRAM_TIMING_HH
