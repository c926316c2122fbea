/**
 * @file
 * Unit tests for pseudo-channel inter-bank timing and address
 * mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dram/address.hh"
#include "dram/pseudo_channel.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace {

using namespace papi::dram;
using papi::sim::FatalError;
using papi::sim::PanicError;
using papi::sim::Tick;

class ChannelTest : public ::testing::Test
{
  protected:
    ChannelTest() : spec(hbm3Spec()), ch(spec) {}

    Command
    act(std::uint32_t bg, std::uint32_t b, std::uint32_t row)
    {
        return Command{CommandType::Act, Coord{bg, b, row, 0}};
    }

    Command
    rd(std::uint32_t bg, std::uint32_t b, std::uint32_t row,
       std::uint32_t col)
    {
        return Command{CommandType::Rd, Coord{bg, b, row, col}};
    }

    DramSpec spec;
    PseudoChannel ch;
};

TEST_F(ChannelTest, ActSpacingSameGroupUsesRrdL)
{
    ch.issue(act(0, 0, 1), 0);
    Tick earliest = ch.earliestIssue(act(0, 1, 1), 0);
    EXPECT_EQ(earliest, spec.timing.tRRD_L);
}

TEST_F(ChannelTest, ActSpacingCrossGroupUsesRrdS)
{
    ch.issue(act(0, 0, 1), 0);
    Tick earliest = ch.earliestIssue(act(1, 0, 1), 0);
    EXPECT_EQ(earliest, spec.timing.tRRD_S);
}

TEST_F(ChannelTest, FourActivateWindowEnforced)
{
    // Issue four activates as fast as legal, alternating groups.
    Tick now = 0;
    std::uint32_t banks[4][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
    Tick first_act = 0;
    for (int i = 0; i < 4; ++i) {
        Command c = act(banks[i][0], banks[i][1], 1);
        Tick at = ch.earliestIssue(c, now);
        if (i == 0)
            first_act = at;
        ch.issue(c, at);
        now = at;
    }
    // The fifth activate must wait for tFAW from the first.
    Command fifth = act(0, 2, 1);
    Tick earliest = ch.earliestIssue(fifth, now);
    EXPECT_GE(earliest, first_act + spec.timing.tFAW);
}

TEST_F(ChannelTest, ColumnSpacingDependsOnGroup)
{
    ch.issue(act(0, 0, 1), 0);
    ch.issue(act(1, 0, 1), spec.timing.tRRD_S);
    Tick t0 = spec.timing.tRRD_S + spec.timing.tRCD;
    ch.issue(rd(0, 0, 1, 0), t0);
    // Same group: tCCD_L; different group: tCCD_S.
    EXPECT_EQ(ch.earliestIssue(rd(0, 0, 1, 1), t0),
              t0 + spec.timing.tCCD_L);
    EXPECT_EQ(ch.earliestIssue(rd(1, 0, 1, 0), t0),
              t0 + spec.timing.tCCD_S);
}

TEST_F(ChannelTest, PimMacsBypassSharedColumnFabric)
{
    ch.issue(act(0, 0, 1), 0);
    ch.issue(act(1, 0, 1), spec.timing.tRRD_S);
    Tick t0 = spec.timing.tRRD_S + spec.timing.tRCD;
    Command pim0{CommandType::PimMac, Coord{0, 0, 1, 0}};
    Command pim1{CommandType::PimMac, Coord{1, 0, 1, 0}};
    ch.issue(pim0, t0);
    // A PIM read on another bank may go out immediately: banks
    // stream independently through their near-bank datapaths.
    EXPECT_EQ(ch.earliestIssue(pim1, t0), t0);
}

TEST_F(ChannelTest, WriteToReadTurnaroundEnforced)
{
    ch.issue(act(0, 0, 1), 0);
    Tick t0 = spec.timing.tRCD;
    Command wr{CommandType::Wr, Coord{0, 0, 1, 0}};
    Tick wr_data_end = ch.issue(wr, t0);
    // A read anywhere on the channel must wait out tWTR after the
    // write burst ends.
    Tick earliest_rd = ch.earliestIssue(rd(0, 0, 1, 1), t0);
    EXPECT_GE(earliest_rd, wr_data_end + spec.timing.tWTR);
}

TEST_F(ChannelTest, ReadToWriteTurnaroundEnforced)
{
    ch.issue(act(0, 0, 1), 0);
    Tick t0 = spec.timing.tRCD;
    Tick rd_data_end = ch.issue(rd(0, 0, 1, 0), t0);
    Command wr{CommandType::Wr, Coord{0, 0, 1, 1}};
    Tick earliest_wr = ch.earliestIssue(wr, t0);
    // The write's data (tWL after issue) must not start before the
    // read burst has ended plus tRTW.
    EXPECT_GE(earliest_wr + spec.timing.tWL,
              rd_data_end + spec.timing.tRTW);
}

TEST_F(ChannelTest, CommandBusSpacingOneCommandPerTck)
{
    ch.issue(act(0, 0, 1), 0);
    // The very next command on the bus must wait a command cycle,
    // even when its own bank timing would allow it immediately.
    Tick earliest = ch.earliestIssue(act(1, 0, 1), 0);
    EXPECT_GE(earliest, spec.timing.tCK);
}

TEST_F(ChannelTest, PimMacsBypassCommandBus)
{
    ch.issue(act(0, 0, 1), 0);
    ch.issue(act(1, 0, 1), spec.timing.tRRD_S);
    Tick t0 = spec.timing.tRRD_S + spec.timing.tRCD;
    Command pim{CommandType::PimMac, Coord{0, 0, 1, 0}};
    ch.issue(pim, t0);
    // An external command right after a PIM read needs no tCK gap
    // from it (the PIM read never used the bus).
    Command pre{CommandType::Pre, Coord{1, 0, 1, 0}};
    Tick earliest = ch.earliestIssue(pre, t0);
    EXPECT_LE(earliest,
              std::max<Tick>(t0, ch.bank(1, 0).earliestIssue(
                                     CommandType::Pre)) +
                  spec.timing.tCK);
}

TEST_F(ChannelTest, IllegalIssuePanics)
{
    EXPECT_THROW(ch.issue(rd(0, 0, 1, 0), 0), PanicError);
}

TEST_F(ChannelTest, OutOfRangeBankPanics)
{
    EXPECT_THROW(ch.bank(9, 0), PanicError);
    EXPECT_THROW(ch.bank(0, 9), PanicError);
}

TEST_F(ChannelTest, IssueAtEarliestReportsIssueTime)
{
    ch.issue(act(0, 0, 1), 0);
    Tick issued_at = 0;
    ch.issueAtEarliest(rd(0, 0, 1, 0), 0, issued_at);
    EXPECT_EQ(issued_at, spec.timing.tRCD);
}

TEST_F(ChannelTest, RefreshBlocksSubsequentCommands)
{
    Tick done = ch.refresh(0);
    EXPECT_EQ(done, spec.timing.tRFC);
    EXPECT_GE(ch.earliestIssue(act(0, 0, 1), 0), done);
}

TEST_F(ChannelTest, RefreshWithOpenBankPanics)
{
    ch.issue(act(0, 0, 1), 0);
    EXPECT_THROW(ch.refresh(spec.timing.tRAS), PanicError);
}

/**
 * An all-bank refresh is legal only once every bank can take REF:
 * after ACT at 0 and PRE at tRAS (28,000 ticks on HBM3), bank 0.0
 * takes REF only at tRC = tRAS + tRP (42,000). A refresh one tick
 * after the PRE used to skip bank 0.0 silently; it panics like
 * issue() and changes nothing, and refreshEarliest() names the legal
 * tick, at which every bank refreshes.
 */
TEST_F(ChannelTest, RefreshBeforeEveryBankCanTakeRefPanics)
{
    const Tick pre_at = spec.timing.tRAS;
    ch.issue(act(0, 0, 1), 0);
    ch.issue(Command{CommandType::Pre, Coord{0, 0, 1, 0}}, pre_at);
    const Tick legal = ch.refreshEarliest(pre_at + 1);
    EXPECT_EQ(legal, pre_at + spec.timing.tRP);
    EXPECT_EQ(legal, ch.bank(0, 0).earliestIssue(CommandType::Ref));
    EXPECT_THROW(ch.refresh(pre_at + 1), PanicError);
    EXPECT_THROW(ch.refresh(legal - 1), PanicError);
    // The rejected refreshes left every bank untouched.
    EXPECT_EQ(ch.bank(0, 1).earliestIssue(CommandType::Act), 0u);
    EXPECT_EQ(ch.refreshEarliest(0), legal);

    const Tick done = ch.refresh(legal);
    EXPECT_EQ(done, legal + spec.timing.tRFC);
    for (std::uint32_t g = 0; g < spec.org.bankGroups; ++g) {
        for (std::uint32_t b = 0; b < spec.org.banksPerGroup; ++b) {
            EXPECT_GE(ch.bank(g, b).earliestIssue(CommandType::Act), done)
                << "bank " << g << "." << b << " was not refreshed";
        }
    }
}

TEST_F(ChannelTest, AggregateCounters)
{
    ch.issue(act(0, 0, 1), 0);
    Tick t0 = spec.timing.tRCD;
    ch.issue(rd(0, 0, 1, 0), t0);
    Command pim{CommandType::PimMac, Coord{0, 0, 1, 1}};
    ch.issue(pim, t0 + spec.timing.tCCD_L);
    EXPECT_EQ(ch.totalActivations(), 1u);
    EXPECT_EQ(ch.totalColumnAccesses(), 2u);
    EXPECT_EQ(ch.totalPimMacs(), 1u);
}

/**
 * earliestIssue is the bank's own tick and the channel bound, nothing
 * more: after every command of a random legal history (ACT, PRE, RD,
 * WR, PIM_MAC and all-bank refreshes at random delays), for every
 * bank and command type, earliestIssue(cmd, 0) equals
 * max(Bank::earliestIssue, channelEarliest), and the PRE and PIM_MAC
 * bounds are the same for every bank group (pim::GemvEngine re-plans
 * waiting banks from one PRE bound).
 */
TEST_F(ChannelTest, EarliestIssueIsBankTickAndChannelBound)
{
    const CommandType types[] = {CommandType::Act, CommandType::Pre,
                                 CommandType::PimMac, CommandType::Rd,
                                 CommandType::Wr};
    const std::uint32_t groups = spec.org.bankGroups;
    const std::uint32_t per_group = spec.org.banksPerGroup;
    std::uint64_t refreshes = 0;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        PseudoChannel channel(spec);
        papi::sim::Rng rng(seed);
        std::vector<int> open_row(spec.org.banks(), -1);
        Tick now = 0;
        for (int step = 0; step < 1500; ++step) {
            const bool all_closed =
                std::all_of(open_row.begin(), open_row.end(),
                            [](int r) { return r < 0; });
            if (all_closed && rng.bernoulli(0.2)) {
                // The tick dram::Controller refreshes at: the latest
                // bank REF tick.
                now = channel.refreshEarliest(now);
                channel.refresh(now);
                ++refreshes;
            } else {
                const auto g = static_cast<std::uint32_t>(
                    rng.uniformInt(0, groups - 1));
                const auto b = static_cast<std::uint32_t>(
                    rng.uniformInt(0, per_group - 1));
                int &row = open_row[channel.flatIndex(g, b)];
                Command cmd{CommandType::Act, Coord{g, b, 0, 0}};
                if (row < 0) {
                    row = static_cast<int>(rng.uniformInt(0, 63));
                    cmd.coord.row = static_cast<std::uint32_t>(row);
                } else {
                    cmd.type = types[rng.uniformInt(1, 4)];
                    cmd.coord.row = static_cast<std::uint32_t>(row);
                    if (cmd.type == CommandType::Pre)
                        row = -1;
                }
                const Tick delay =
                    static_cast<Tick>(rng.uniformInt(0, 8));
                now = channel.earliestIssue(cmd, now + delay);
                channel.issue(cmd, now);
            }
            for (CommandType type : types) {
                const Tick shared = channel.channelEarliest(type, 0);
                for (std::uint32_t g = 0; g < groups; ++g) {
                    const Tick bound = channel.channelEarliest(type, g);
                    if (type == CommandType::Pre ||
                        type == CommandType::PimMac) {
                        EXPECT_EQ(bound, shared) << commandName(type);
                    }
                    for (std::uint32_t b = 0; b < per_group; ++b) {
                        const Command cmd{type, Coord{g, b, 0, 0}};
                        EXPECT_EQ(channel.earliestIssue(cmd, 0),
                                  std::max(channel.bank(g, b)
                                               .earliestIssue(type),
                                           bound))
                            << commandName(type) << " bank " << g
                            << "." << b << " step " << step;
                        EXPECT_EQ(channel.earliestIssue(cmd, now + 5),
                                  std::max(now + 5,
                                           channel.earliestIssue(cmd,
                                                                 0)));
                    }
                }
            }
            if (::testing::Test::HasFailure())
                return;
        }
    }
    EXPECT_GT(refreshes, 0u);
    EXPECT_THROW(ch.channelEarliest(CommandType::Act, groups),
                 PanicError);
}

class AddressMappingParam
    : public ::testing::TestWithParam<MappingPolicy>
{
};

TEST_P(AddressMappingParam, RoundTripsAllFields)
{
    DramSpec spec = hbm3Spec();
    AddressMapping map(spec.org, GetParam());
    // Probe a spread of addresses, aligned to access granularity.
    for (std::uint64_t addr = 0; addr < spec.org.capacityBytes();
         addr += spec.org.capacityBytes() / 97) {
        std::uint64_t aligned = addr / spec.org.accessBytes *
                                spec.org.accessBytes;
        Coord c = map.decompose(aligned);
        EXPECT_LT(c.bankGroup, spec.org.bankGroups);
        EXPECT_LT(c.bank, spec.org.banksPerGroup);
        EXPECT_LT(c.row, spec.org.rowsPerBank);
        EXPECT_LT(c.column, spec.org.columnsPerRow());
        EXPECT_EQ(map.compose(c), aligned);
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AddressMappingParam,
                         ::testing::Values(MappingPolicy::RoBaBgCo,
                                           MappingPolicy::RoCoBaBg));

TEST(AddressMapping, SequentialAddressesStayInRowForStreamPolicy)
{
    DramSpec spec = hbm3Spec();
    AddressMapping map(spec.org, MappingPolicy::RoBaBgCo);
    Coord first = map.decompose(0);
    Coord second = map.decompose(spec.org.accessBytes);
    EXPECT_EQ(first.row, second.row);
    EXPECT_EQ(first.bankGroup, second.bankGroup);
    EXPECT_EQ(first.bank, second.bank);
    EXPECT_EQ(second.column, first.column + 1);
}

TEST(AddressMapping, SequentialAddressesRotateBanksForParallelPolicy)
{
    DramSpec spec = hbm3Spec();
    AddressMapping map(spec.org, MappingPolicy::RoCoBaBg);
    Coord first = map.decompose(0);
    Coord second = map.decompose(spec.org.accessBytes);
    EXPECT_NE(first.bankGroup, second.bankGroup);
}

TEST(AddressMapping, BeyondCapacityIsFatal)
{
    DramSpec spec = hbm3Spec();
    AddressMapping map(spec.org, MappingPolicy::RoCoBaBg);
    EXPECT_THROW(map.decompose(spec.org.capacityBytes()), FatalError);
}

} // namespace
