/**
 * @file
 * Explicit tensor-to-PIM mapping (paper Section 6.4).
 *
 * Attention: heads are distributed across Attn-PIM devices, one head
 * per HBM device at a time (round-robin). Within a device, K^T is
 * partitioned column-wise at the pseudo-channel and bank-group
 * levels and row-wise at the bank (and lane) level; V conversely -
 * row-wise at pseudo-channel/bank-group and column-wise at
 * bank/lane level. This orients each matrix so that the per-bank
 * GEMV streams rows of the resident shard while the reduction
 * dimension stays local.
 *
 * FC: the weight matrix is blocked 2D across devices and mapped
 * like K^T within each device.
 *
 * These structures make the mapping checkable: shards must tile the
 * matrix exactly, and per-bank loads must be balanced to within one
 * row; pim::DataLayout's byte counts are derived from the same
 * partition.
 */

#ifndef PAPI_PIM_MAPPING_HH
#define PAPI_PIM_MAPPING_HH

#include <cstdint>
#include <vector>

#include "pim/pim_config.hh"

namespace papi::pim {

/** Orientation of a matrix's partition at each hierarchy level. */
enum class PartitionAxis : std::uint8_t { ColumnWise, RowWise };

/** The (channel, bank-group, bank) shard of one matrix. */
struct BankShard
{
    std::uint32_t device = 0;        ///< Device index.
    std::uint32_t pseudoChannel = 0; ///< Pseudo-channel in the device.
    std::uint32_t bankGroup = 0;     ///< Bank group in the channel.
    std::uint32_t bank = 0;          ///< Bank within the group.
    /** Half-open row range of the matrix mapped to this bank. */
    std::uint64_t rowBegin = 0;
    std::uint64_t rowEnd = 0; ///< End of the row range (exclusive).
    /** Half-open column range of the matrix mapped to this bank. */
    std::uint64_t colBegin = 0;
    std::uint64_t colEnd = 0; ///< End of the column range (exclusive).

    /** Matrix elements in this shard. */
    std::uint64_t
    elements() const
    {
        return (rowEnd - rowBegin) * (colEnd - colBegin);
    }
};

/** A full mapping of one matrix onto one device. */
struct DeviceMapping
{
    /** Split across pseudo-channels and bank groups. */
    PartitionAxis channelAxis = PartitionAxis::ColumnWise;
    PartitionAxis bankAxis = PartitionAxis::RowWise; ///< Split in a group.
    std::uint64_t rows = 0;         ///< Matrix rows.
    std::uint64_t cols = 0;         ///< Matrix columns.
    std::vector<BankShard> shards;  ///< One shard per bank used.

    /** Max shard elements (the streaming-critical bank). */
    std::uint64_t maxShardElements() const;
    /** Sum of shard elements (must equal rows x cols). */
    std::uint64_t totalElements() const;
};

/** Head-to-device placement for multi-head attention. */
struct HeadPlacement
{
    /** device[h] = device index hosting head h. */
    std::vector<std::uint32_t> deviceOfHead;
    std::uint32_t devices = 0; ///< Devices the heads spread over.

    /** Heads resident on the busiest device. */
    std::uint32_t maxHeadsPerDevice() const;
};

/** Mapping planner for one PIM configuration. */
class MappingPlanner
{
  public:
    /** Planner for devices of @p config. */
    explicit MappingPlanner(const PimConfig &config)
        : _config(config)
    {}

    /** Round-robin head placement (Section 6.4). */
    HeadPlacement placeHeads(std::uint32_t num_heads,
                             std::uint32_t num_devices) const;

    /**
     * Map a K^T matrix (rows = head_dim, cols = seq_len) onto one
     * device: column-wise at channel/bank-group level, row-wise at
     * bank level.
     */
    DeviceMapping mapKTranspose(std::uint64_t head_dim,
                                std::uint64_t seq_len) const;

    /**
     * Map a V matrix (rows = seq_len, cols = head_dim) onto one
     * device: row-wise at channel/bank-group level, column-wise at
     * bank level.
     */
    DeviceMapping mapV(std::uint64_t seq_len,
                       std::uint64_t head_dim) const;

    /**
     * Map an FC weight block (rows x cols) onto one device using
     * the K^T scheme.
     */
    DeviceMapping mapWeights(std::uint64_t rows,
                             std::uint64_t cols) const;

  private:
    DeviceMapping mapMatrix(std::uint64_t rows, std::uint64_t cols,
                            PartitionAxis channel_axis,
                            PartitionAxis bank_axis) const;

    PimConfig _config;
};

} // namespace papi::pim

#endif // PAPI_PIM_MAPPING_HH
