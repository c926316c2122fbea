/**
 * @file
 * An HBM stack: a set of pseudo-channels with aggregate properties.
 *
 * A 16 GB-class HBM3 stack has 16 pseudo-channels (8 dies x 2); the
 * FC-PIM variant in PAPI trades a quarter of the cell area for FPUs,
 * modelled as 12 pseudo-channels' worth of capacity (12 GB, 96 banks)
 * per stack.
 */

#ifndef PAPI_DRAM_HBM_STACK_HH
#define PAPI_DRAM_HBM_STACK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/pseudo_channel.hh"
#include "dram/timing.hh"

namespace papi::dram {

/** A complete HBM stack (device). */
class HbmStack
{
  public:
    /**
     * @param spec Per-pseudo-channel description.
     * @param num_pseudo_channels Pseudo-channels in the stack.
     */
    HbmStack(const DramSpec &spec, std::uint32_t num_pseudo_channels);

    /** The per-pseudo-channel description every channel shares. */
    const DramSpec &spec() const { return _spec; }

    /** Pseudo-channels in the stack. */
    std::uint32_t numPseudoChannels() const
    {
        return static_cast<std::uint32_t>(_channels.size());
    }

    /** Pseudo-channel @p i; panics when out of range. */
    PseudoChannel &channel(std::uint32_t i);
    /** Read-only channel(@p i). */
    const PseudoChannel &channel(std::uint32_t i) const;

    /** Total banks across the stack. */
    std::uint32_t totalBanks() const;

    /** Stack capacity in bytes. */
    std::uint64_t capacityBytes() const;

    /** Peak external data bandwidth of the stack in bytes/second. */
    double peakBandwidth() const;

    /**
     * Peak *internal* (near-bank) read bandwidth in bytes/second:
     * every bank streaming a column access each tCCD_L. This is the
     * bandwidth PIM compute can harvest without touching the external
     * interface.
     */
    double peakInternalBandwidth() const;

  private:
    DramSpec _spec;
    std::vector<std::unique_ptr<PseudoChannel>> _channels;
};

} // namespace papi::dram

#endif // PAPI_DRAM_HBM_STACK_HH
