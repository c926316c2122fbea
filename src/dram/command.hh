/**
 * @file
 * DRAM command vocabulary and coordinates.
 */

#ifndef PAPI_DRAM_COMMAND_HH
#define PAPI_DRAM_COMMAND_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace papi::dram {

/** Command types issued to a pseudo-channel. */
enum class CommandType : std::uint8_t
{
    Act,   ///< Activate a row into the bank's row buffer.
    Pre,   ///< Precharge (close) the bank's row buffer.
    Rd,    ///< Column read burst.
    Wr,    ///< Column write burst.
    Ref,   ///< All-bank refresh.
    PimMac ///< Near-bank column read feeding the bank's FPUs.
};

/** Number of CommandType values (for per-type timing tables). */
constexpr std::size_t commandTypeCount = 6;

/** Printable command name. */
const char *commandName(CommandType type);

/** Coordinates addressing a location within one pseudo-channel. */
struct Coord
{
    std::uint32_t bankGroup = 0; ///< Bank group in the channel.
    std::uint32_t bank = 0; ///< Bank index within the bank group.
    std::uint32_t row = 0;  ///< Row within the bank.
    std::uint32_t column = 0; ///< Column-access index within the row.

    /** True when all four coordinates match. */
    bool
    operator==(const Coord &other) const
    {
        return bankGroup == other.bankGroup && bank == other.bank &&
               row == other.row && column == other.column;
    }
};

/** A command plus its target coordinates. */
struct Command
{
    CommandType type = CommandType::Act; ///< What to do.
    Coord coord;                         ///< Where to do it.
};

} // namespace papi::dram

#endif // PAPI_DRAM_COMMAND_HH
