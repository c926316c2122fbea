/**
 * @file
 * Linear-address to DRAM-coordinate mapping.
 */

#ifndef PAPI_DRAM_ADDRESS_HH
#define PAPI_DRAM_ADDRESS_HH

#include <cstdint>
#include <string>

#include "dram/command.hh"
#include "dram/timing.hh"

namespace papi::dram {

/** Interleaving order for decomposing a linear address. */
enum class MappingPolicy : std::uint8_t
{
    /**
     * Row : Bank : BankGroup : Column (RoBaBgCo) - consecutive column
     * accesses stay within a row; banks interleave above columns.
     * Good for streaming (weights).
     */
    RoBaBgCo,
    /**
     * Row : Column : Bank : BankGroup (RoCoBaBg) - consecutive
     * accesses rotate across bank groups first, maximising bank-level
     * parallelism for random traffic.
     */
    RoCoBaBg,
};

/** Decompose linear byte addresses into pseudo-channel coordinates. */
class AddressMapping
{
  public:
    /** Mapping of one pseudo-channel of @p org under @p policy. */
    AddressMapping(const OrgParams &org, MappingPolicy policy);

    /**
     * Map the byte address @p addr (within one pseudo-channel's
     * address space) to coordinates. Addresses are truncated to
     * access-granularity boundaries. Fatal if out of capacity.
     */
    Coord decompose(std::uint64_t addr) const;

    /** Inverse of decompose (for round-trip checks). */
    std::uint64_t compose(const Coord &coord) const;

    /** The bit-order policy the mapping applies. */
    MappingPolicy policy() const { return _policy; }

  private:
    OrgParams _org;
    MappingPolicy _policy;
    std::uint64_t _capacity;
};

} // namespace papi::dram

#endif // PAPI_DRAM_ADDRESS_HH
