/**
 * @file
 * Tests for the PIM command-trace validator: every stream the GEMV
 * engine emits must pass independent JEDEC-rule checking, and
 * corrupted streams must fail.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "pim/gemv_engine.hh"
#include "pim/trace_validator.hh"

namespace {

using namespace papi::pim;
using papi::dram::CommandType;

class TraceValidation
    : public ::testing::TestWithParam<
          std::tuple<const char *, std::uint32_t, std::uint64_t>>
{
  protected:
    static std::optional<PimConfig>
    configFor(const std::string &name)
    {
        if (name == "attacc")
            return attAccConfig();
        if (name == "hbm-pim")
            return hbmPimConfig();
        if (name == "fc-pim")
            return fcPimConfig();
        if (name == "attn-pim")
            return attnPimConfig();
        return std::nullopt;
    }
};

TEST_P(TraceValidation, EngineTracesObeyAllRules)
{
    const std::string name = std::get<0>(GetParam());
    std::optional<PimConfig> cfg = configFor(name);
    ASSERT_TRUE(cfg.has_value()) << "unknown PIM preset '" << name << "'";
    std::uint32_t reuse = std::get<1>(GetParam());
    std::uint64_t bytes = std::get<2>(GetParam());

    GemvEngine engine(*cfg);
    CommandTrace trace;
    engine.setTraceRecorder(&trace);
    engine.run(bytes, reuse);
    engine.setTraceRecorder(nullptr);

    ASSERT_FALSE(trace.empty());
    TraceValidator validator(cfg->dramSpec);
    ValidationResult v = validator.validate(trace);
    EXPECT_TRUE(v.ok) << v.firstViolation;
    EXPECT_EQ(v.violations, 0u);
}

// 8 KiB is 8 rows per bank (exact replay); 40 KiB + 96 B is 41 rows
// with a partial last row, replayed as 16 rows and scaled.
INSTANTIATE_TEST_SUITE_P(
    ConfigsAndReuse, TraceValidation,
    ::testing::Combine(::testing::Values("attacc", "hbm-pim",
                                         "fc-pim", "attn-pim"),
                       ::testing::Values(1u, 8u, 64u),
                       ::testing::Values(std::uint64_t{8 * 1024},
                                         std::uint64_t{40 * 1024 + 96})));

class CorruptedTrace : public ::testing::Test
{
  protected:
    CorruptedTrace() : cfg(attAccConfig()), validator(cfg.dramSpec)
    {
        GemvEngine engine(cfg);
        engine.setTraceRecorder(&trace);
        engine.run(4 * 1024, 2);
    }

    PimConfig cfg;
    TraceValidator validator;
    CommandTrace trace;
};

TEST_F(CorruptedTrace, BaselineIsClean)
{
    EXPECT_TRUE(validator.validate(trace).ok);
}

TEST_F(CorruptedTrace, CompressedColumnCadenceIsCaught)
{
    // Pull a PIM column read earlier than tCCD_S allows.
    for (std::size_t i = 1; i < trace.size(); ++i) {
        if (trace[i].command.type == CommandType::PimMac &&
            trace[i - 1].command.type == CommandType::PimMac &&
            trace[i].command.coord.bank ==
                trace[i - 1].command.coord.bank &&
            trace[i].command.coord.bankGroup ==
                trace[i - 1].command.coord.bankGroup) {
            trace[i].tick = trace[i - 1].tick + 1;
            break;
        }
    }
    ValidationResult v = validator.validate(trace);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.firstViolation.find("cadence"), std::string::npos);
}

TEST_F(CorruptedTrace, EarlyPrechargeIsCaught)
{
    for (auto &e : trace) {
        if (e.command.type == CommandType::Pre) {
            e.tick = 1; // long before tRAS can have elapsed
            break;
        }
    }
    ValidationResult v = validator.validate(trace);
    EXPECT_FALSE(v.ok);
}

TEST_F(CorruptedTrace, WrongRowAccessIsCaught)
{
    for (auto &e : trace) {
        if (e.command.type == CommandType::PimMac) {
            e.command.coord.row += 1;
            break;
        }
    }
    ValidationResult v = validator.validate(trace);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.firstViolation.find("row"), std::string::npos);
}

TEST_F(CorruptedTrace, DoubleActivateIsCaught)
{
    // Duplicate the first ACT right after itself.
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].command.type == CommandType::Act) {
            TraceEntry dup = trace[i];
            dup.tick += 1;
            trace.insert(trace.begin() +
                             static_cast<std::ptrdiff_t>(i) + 1,
                         dup);
            break;
        }
    }
    ValidationResult v = validator.validate(trace);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.firstViolation.find("ACT"), std::string::npos);
}

TEST_F(CorruptedTrace, RegressingTicksAreCaught)
{
    ASSERT_GE(trace.size(), 3u);
    trace[2].tick = 0;
    trace[1].tick = 1000000;
    ValidationResult v = validator.validate(trace);
    EXPECT_FALSE(v.ok);
}

TEST(TraceRecorder, CacheBypassedWhileRecording)
{
    GemvEngine engine(attAccConfig());
    // Prime the cache.
    auto warm = engine.run(4 * 1024, 2);
    CommandTrace trace;
    engine.setTraceRecorder(&trace);
    auto recorded = engine.run(4 * 1024, 2);
    EXPECT_FALSE(trace.empty());
    EXPECT_EQ(recorded.ticks, warm.ticks); // identical replay
}

} // namespace
