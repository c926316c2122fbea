/**
 * @file
 * Long randomized differential of the GEMV command-stream replay
 * (pim::GemvEngine::runExact) against the global earliest-first scan
 * (gemv_replay_oracle.hh): 50,000 seeded cases over random DRAM
 * specs, xPyB shapes, shard sizes and reuse levels, on a seed the
 * tier-1 sweep in pim_gemv_replay_test does not use. It carries the
 * "soak" ctest label (ctest -L soak runs it; ctest -LE soak, the
 * tier-1 gate, skips it) and takes a few seconds in Release.
 */

#include <gtest/gtest.h>

#include "gemv_replay_oracle.hh"

namespace {

TEST(GemvReplayDifferential, SoakRandomSpecsMatchGlobalScan)
{
    papi::pim::test::expectRandomSpecsMatchGlobalScan(0x5851f42d4c957f2dULL,
                                                      50000);
}

} // namespace
