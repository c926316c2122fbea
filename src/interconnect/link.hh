/**
 * @file
 * Interconnect link models: NVLink, PCIe, CXL (paper Section 6.3).
 *
 * FC-PIM devices sit on the high-speed processor fabric (NVLink);
 * the disaggregated Attn-PIM devices hang off a commodity PCIe or
 * CXL fabric, which suffices because attention moves only small Q
 * vectors and outputs.
 */

#ifndef PAPI_INTERCONNECT_LINK_HH
#define PAPI_INTERCONNECT_LINK_HH

#include <cstdint>
#include <string>

namespace papi::interconnect {

/** A point-to-point (or switched, abstracted) link. */
struct Link
{
    /** Label for reports and Link::describe(). */
    std::string name = "link";
    /** Per-direction bandwidth, bytes/second. */
    double bandwidthBytesPerSec = 64.0e9;
    /** One-way message latency, seconds. */
    double latencySeconds = 1.0e-6;
    /** Per-message software/protocol overhead, seconds. */
    double messageOverheadSeconds = 0.5e-6;
    /** Transfer energy per byte, joules. */
    double energyPerByte = 10.0e-12;
    /** Maximum devices addressable on this fabric. */
    std::uint32_t maxDevices = 32;

    /** Time to move @p bytes in one message. */
    double
    transferSeconds(std::uint64_t bytes) const
    {
        return latencySeconds + messageOverheadSeconds +
               static_cast<double>(bytes) / bandwidthBytesPerSec;
    }

    /** Transfer energy for @p bytes. */
    double
    transferJoules(std::uint64_t bytes) const
    {
        return static_cast<double>(bytes) * energyPerByte;
    }

    /**
     * Fatal unless the link is physically meaningful: positive
     * finite bandwidth, non-negative finite latency/overhead/energy,
     * at least one addressable device. Without this, a non-positive
     * bandwidth silently yields infinite (or negative) transfer
     * times that poison every downstream timestamp. Called wherever
     * a caller-supplied link enters an engine.
     */
    void validate() const;

    /** Human-readable one-liner: "name (X GB/s, Y us)". */
    std::string describe() const;
};

/** NVLink 3-class link: 300 GB/s per direction, sub-microsecond. */
Link nvlink();

/** PCIe 5.0 x16: 64 GB/s, up to 32 devices per bus. */
Link pcie5();

/** CXL 2.0 over PCIe 5 PHY: 64 GB/s, scales to 4096 devices. */
Link cxl2();

/** The fabric topology of a PAPI-style system. */
struct Topology
{
    Link gpuFabric = nvlink();  ///< PUs <-> FC-PIM devices.
    Link attnFabric = pcie5();  ///< Host/PUs <-> Attn-PIM devices.
    Link hostLink = pcie5();    ///< Host CPU <-> processor.
};

} // namespace papi::interconnect

#endif // PAPI_INTERCONNECT_LINK_HH
