/**
 * @file
 * Request-level interface to a memory controller.
 */

#ifndef PAPI_DRAM_REQUEST_HH
#define PAPI_DRAM_REQUEST_HH

#include <cstdint>
#include <functional>

#include "sim/types.hh"

namespace papi::dram {

/** A single access-granularity memory request. */
struct MemRequest
{
    std::uint64_t addr = 0; ///< Byte address within the channel.
    bool isWrite = false;   ///< WR when true, RD otherwise.
    sim::Tick arrival = 0; ///< Set by the controller on enqueue.
    std::uint64_t id = 0;  ///< Set by the controller on enqueue.

    /** Invoked at the tick the data burst completes. */
    std::function<void(sim::Tick)> onComplete;
};

} // namespace papi::dram

#endif // PAPI_DRAM_REQUEST_HH
