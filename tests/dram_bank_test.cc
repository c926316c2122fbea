/**
 * @file
 * Unit tests for the DRAM bank state machine and timing.
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"
#include "dram/timing.hh"
#include "sim/logging.hh"

namespace {

using namespace papi::dram;
using papi::sim::PanicError;
using papi::sim::maxTick;
using papi::sim::Tick;

class BankTest : public ::testing::Test
{
  protected:
    BankTest() : spec(hbm3Spec()), table(spec.timing), bank(table) {}

    DramSpec spec;
    BankTimingTable table;
    Bank bank;
};

TEST_F(BankTest, StartsClosed)
{
    EXPECT_EQ(bank.state(0), Bank::State::Closed);
    EXPECT_FALSE(bank.openRow().has_value());
}

TEST_F(BankTest, ActivateOpensRowAfterTrcd)
{
    Tick open_at = bank.issue(CommandType::Act, 42, 0);
    EXPECT_EQ(open_at, spec.timing.tRCD);
    EXPECT_EQ(bank.state(0), Bank::State::Opening);
    EXPECT_EQ(bank.state(open_at), Bank::State::Open);
    ASSERT_TRUE(bank.openRow().has_value());
    EXPECT_EQ(*bank.openRow(), 42u);
}

TEST_F(BankTest, ReadRequiresOpenRow)
{
    EXPECT_FALSE(bank.canIssue(CommandType::Rd, 0, 0));
    bank.issue(CommandType::Act, 7, 0);
    // Wrong row never legal.
    EXPECT_FALSE(bank.canIssue(CommandType::Rd, 8, spec.timing.tRCD));
    // Right row legal only after tRCD.
    EXPECT_FALSE(bank.canIssue(CommandType::Rd, 7,
                               spec.timing.tRCD - 1));
    EXPECT_TRUE(bank.canIssue(CommandType::Rd, 7, spec.timing.tRCD));
}

TEST_F(BankTest, DoubleActivateIsIllegal)
{
    bank.issue(CommandType::Act, 1, 0);
    EXPECT_FALSE(bank.canIssue(CommandType::Act, 2,
                               spec.timing.tRC));
    EXPECT_THROW(bank.issue(CommandType::Act, 2, spec.timing.tRC),
                 PanicError);
}

TEST_F(BankTest, PrechargeRespectsTras)
{
    bank.issue(CommandType::Act, 1, 0);
    EXPECT_FALSE(bank.canIssue(CommandType::Pre, 0,
                               spec.timing.tRAS - 1));
    EXPECT_TRUE(bank.canIssue(CommandType::Pre, 0, spec.timing.tRAS));
    bank.issue(CommandType::Pre, 0, spec.timing.tRAS);
    EXPECT_EQ(bank.state(spec.timing.tRAS), Bank::State::Closed);
}

TEST_F(BankTest, ActToActRespectsTrc)
{
    bank.issue(CommandType::Act, 1, 0);
    bank.issue(CommandType::Pre, 0, spec.timing.tRAS);
    Tick pre_done = spec.timing.tRAS + spec.timing.tRP;
    // tRC from the first ACT also applies; it is the binding limit.
    Tick trc_limit = spec.timing.tRC;
    Tick earliest = bank.earliestIssue(CommandType::Act);
    EXPECT_EQ(earliest, std::max(pre_done, trc_limit));
}

TEST_F(BankTest, ReadToPrechargeRespectsTrtp)
{
    bank.issue(CommandType::Act, 3, 0);
    Tick rd_at = spec.timing.tRCD;
    bank.issue(CommandType::Rd, 3, rd_at);
    Tick earliest_pre = bank.earliestIssue(CommandType::Pre);
    EXPECT_GE(earliest_pre, rd_at + spec.timing.tRTP);
}

TEST_F(BankTest, WriteRecoveryDelaysPrecharge)
{
    bank.issue(CommandType::Act, 3, 0);
    Tick wr_at = spec.timing.tRCD;
    Tick data_end = bank.issue(CommandType::Wr, 3, wr_at);
    EXPECT_EQ(data_end, wr_at + spec.timing.tWL + spec.timing.tBURST);
    EXPECT_GE(bank.earliestIssue(CommandType::Pre),
              data_end + spec.timing.tWR);
}

TEST_F(BankTest, ExternalReadsPaceAtTccdL)
{
    bank.issue(CommandType::Act, 3, 0);
    Tick t0 = spec.timing.tRCD;
    bank.issue(CommandType::Rd, 3, t0);
    EXPECT_EQ(bank.earliestIssue(CommandType::Rd),
              t0 + spec.timing.tCCD_L);
}

TEST_F(BankTest, PimReadsPaceAtBurstCadence)
{
    bank.issue(CommandType::Act, 3, 0);
    Tick t0 = spec.timing.tRCD;
    bank.issue(CommandType::PimMac, 3, t0);
    // Near-bank reads pipeline at tCCD_S (= tBURST), the basis of
    // the paper's 20.8 GB/s-per-bank figure.
    EXPECT_EQ(bank.earliestIssue(CommandType::PimMac),
              t0 + spec.timing.tCCD_S);
    EXPECT_LT(spec.timing.tCCD_S, spec.timing.tCCD_L);
}

/**
 * A PIM_MAC burst committed at once leaves the bank exactly as the
 * same PIM_MACs issued one by one: column cadence past the last one,
 * PRE at tRTP past it (here later than tRAS), and the MAC count.
 */
TEST_F(BankTest, MacBurstMatchesPerCommandIssue)
{
    const Tick gap = spec.timing.tCCD_S;
    const Tick ticks[] = {spec.timing.tRCD, spec.timing.tRCD + gap,
                          spec.timing.tRCD + 5 * gap,
                          spec.timing.tRCD + 20 * gap};
    Bank single(table);
    single.issue(CommandType::Act, 3, 0);
    for (Tick t : ticks)
        single.issue(CommandType::PimMac, 3, t);

    bank.issue(CommandType::Act, 3, 0);
    bank.issueMacBurst(MacBurst{3, ticks[0], ticks[3], gap, 4});
    for (CommandType type :
         {CommandType::Act, CommandType::Pre, CommandType::Rd,
          CommandType::Wr, CommandType::Ref, CommandType::PimMac}) {
        EXPECT_EQ(bank.earliestIssue(type), single.earliestIssue(type))
            << commandName(type);
    }
    EXPECT_EQ(bank.earliestIssue(CommandType::Pre),
              ticks[3] + spec.timing.tRTP);
    EXPECT_GT(bank.earliestIssue(CommandType::Pre), spec.timing.tRAS);
    EXPECT_EQ(bank.pimMacs(), single.pimMacs());
    EXPECT_EQ(bank.pimMacs(), 4u);
}

/** A burst is checked as issue() checks each of its PIM_MACs. */
TEST_F(BankTest, MacBurstRejectsIllegalBursts)
{
    const Tick t0 = spec.timing.tRCD;
    const Tick gap = spec.timing.tCCD_S;
    // Closed bank.
    EXPECT_THROW(bank.issueMacBurst(MacBurst{3, t0, t0, maxTick, 1}),
                 PanicError);
    bank.issue(CommandType::Act, 3, 0);
    // Another row than the open one.
    EXPECT_THROW(bank.issueMacBurst(MacBurst{4, t0, t0 + gap, gap, 2}),
                 PanicError);
    // First PIM_MAC before the row is open.
    EXPECT_THROW(
        bank.issueMacBurst(MacBurst{3, t0 - 1, t0 - 1 + gap, gap, 2}),
        PanicError);
    // Two PIM_MACs closer than tCCD_S.
    EXPECT_THROW(
        bank.issueMacBurst(MacBurst{3, t0, t0 + 3 * gap, gap - 1, 4}),
        PanicError);
    // An empty burst, and one whose last tick precedes its first.
    EXPECT_THROW(bank.issueMacBurst(MacBurst{3, t0, t0, maxTick, 0}),
                 PanicError);
    EXPECT_THROW(bank.issueMacBurst(MacBurst{3, t0 + gap, t0, gap, 2}),
                 PanicError);
    EXPECT_EQ(bank.pimMacs(), 0u);
    bank.issueMacBurst(MacBurst{3, t0, t0 + gap, gap, 2});
    EXPECT_EQ(bank.pimMacs(), 2u);
}

TEST_F(BankTest, CountersTrackCommands)
{
    bank.issue(CommandType::Act, 1, 0);
    Tick t = spec.timing.tRCD;
    bank.issue(CommandType::Rd, 1, t);
    t += spec.timing.tCCD_L;
    bank.issue(CommandType::Wr, 1, t);
    t += spec.timing.tCCD_L;
    bank.issue(CommandType::PimMac, 1, t);
    EXPECT_EQ(bank.activations(), 1u);
    EXPECT_EQ(bank.reads(), 1u);
    EXPECT_EQ(bank.writes(), 1u);
    EXPECT_EQ(bank.pimMacs(), 1u);
}

TEST_F(BankTest, RefreshRequiresClosedBank)
{
    bank.issue(CommandType::Act, 1, 0);
    EXPECT_FALSE(bank.canIssue(CommandType::Ref, 0,
                               spec.timing.tRAS));
    bank.issue(CommandType::Pre, 0, spec.timing.tRAS);
    Tick ready = bank.earliestIssue(CommandType::Ref);
    EXPECT_TRUE(bank.canIssue(CommandType::Ref, 0, ready));
    bank.issue(CommandType::Ref, 0, ready);
    // ACT blocked for tRFC after refresh.
    EXPECT_GE(bank.earliestIssue(CommandType::Act),
              ready + spec.timing.tRFC);
}

TEST(DramSpecTest, Hbm3OrganizationIsConsistent)
{
    DramSpec spec = hbm3Spec();
    EXPECT_EQ(spec.org.banks(), 8u);
    EXPECT_EQ(spec.org.columnsPerRow(), 32u);
    // 8 banks x 131072 rows x 1 KiB = 1 GiB per pseudo-channel.
    EXPECT_EQ(spec.org.capacityBytes(), 1ULL << 30);
    // 32 B per 1539 ps ~= 20.8 GB/s per pseudo-channel pin rate.
    EXPECT_NEAR(spec.peakChannelBandwidth(), 20.8e9, 0.2e9);
}

TEST(DramSpecTest, TimingOrderingSane)
{
    DramSpec spec = hbm3Spec();
    const auto &t = spec.timing;
    EXPECT_LT(t.tCCD_S, t.tCCD_L);
    EXPECT_LT(t.tRRD_S, t.tRRD_L);
    EXPECT_GE(t.tRC, t.tRAS + t.tRP);
    EXPECT_GT(t.tRAS, t.tRCD);
    EXPECT_GT(t.tREFI, t.tRFC);
}

} // namespace
