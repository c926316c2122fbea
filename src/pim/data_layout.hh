/**
 * @file
 * Data partitioning across PIM devices, pseudo-channels and banks
 * (paper Section 6.4).
 *
 * FC weights: the weight matrix is split into 2D blocks across
 * devices; within a device, blocks are partitioned column-wise at the
 * pseudo-channel and bank-group levels and row-wise at the bank
 * level (same scheme as AttAcc's K^T mapping).
 *
 * Attention KV: attention heads are distributed across Attn-PIM
 * devices; K^T is partitioned column-wise at pseudo-channel /
 * bank-group level and row-wise at bank level; V conversely.
 * For the streaming-time model what matters is the resident bytes
 * per bank, which both schemes balance.
 */

#ifndef PAPI_PIM_DATA_LAYOUT_HH
#define PAPI_PIM_DATA_LAYOUT_HH

#include <cstdint>

#include "pim/pim_config.hh"

namespace papi::pim {

/** Result of partitioning a tensor over a set of PIM devices. */
struct Partition
{
    /** Devices the tensor spans. */
    std::uint32_t devices = 0;
    /** Bytes resident in each bank (balanced, rounded up). */
    std::uint64_t bytesPerBank = 0;
    /** Total banks participating. */
    std::uint64_t totalBanks = 0;
    /** Load imbalance: max/mean bank bytes (1.0 = perfect). */
    double imbalance = 1.0;
};

/** Partitioning helpers for one device configuration. */
class DataLayout
{
  public:
    /** Layout helpers for devices of @p config. */
    explicit DataLayout(const PimConfig &config) : _config(config) {}

    /**
     * Partition @p total_bytes of FC weight data evenly over
     * @p num_devices devices of this configuration. Fatal if capacity
     * is exceeded.
     */
    Partition partitionWeights(std::uint64_t total_bytes,
                               std::uint32_t num_devices) const;

    /**
     * Partition a KV cache over @p num_devices devices:
     * @p num_heads attention heads, each holding @p bytes_per_head of
     * K^T plus V data. Heads map to devices round-robin; within a
     * device the head's matrices spread over all banks.
     */
    Partition partitionKvCache(std::uint64_t bytes_per_head,
                               std::uint32_t num_heads,
                               std::uint32_t num_devices) const;

    /**
     * Check whether @p total_bytes fits in @p num_devices devices.
     */
    bool fits(std::uint64_t total_bytes,
              std::uint32_t num_devices) const;

  private:
    PimConfig _config;
};

} // namespace papi::pim

#endif // PAPI_PIM_DATA_LAYOUT_HH
