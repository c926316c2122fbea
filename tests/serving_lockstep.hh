/**
 * @file
 * Lockstep checks of core::ServingSim against the executable
 * specification test::ServingModel (tests/serving_model.hh), shared
 * by serving_soa_diff_test and serving_prefix_test.
 *
 * Doubles are compared with EXPECT_EQ on purpose: the determinism
 * contract is bitwise, not approximate.
 */

#ifndef PAPI_TESTS_SERVING_LOCKSTEP_HH
#define PAPI_TESTS_SERVING_LOCKSTEP_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/serving_engine.hh"
#include "serving_model.hh"

namespace papi::core::test {

#define PAPI_SAME(field) EXPECT_EQ(a.field, b.field) << #field

inline void
expectSameResult(const ServingResult &a, const ServingResult &b)
{
    PAPI_SAME(makespanSeconds);
    PAPI_SAME(energyJoules);
    PAPI_SAME(iterations);
    PAPI_SAME(tokensGenerated);
    PAPI_SAME(admissions);
    PAPI_SAME(reschedules);
    PAPI_SAME(reschedulesToGpu);
    PAPI_SAME(fcOnGpuIterations);
    PAPI_SAME(fcOnPimIterations);
    PAPI_SAME(meanLatencySeconds);
    PAPI_SAME(p95LatencySeconds);
    PAPI_SAME(meanRlp);
    PAPI_SAME(peakKvUtilization);
    PAPI_SAME(preemptions);
    PAPI_SAME(resumes);
    PAPI_SAME(recomputedPrefillTokens);
    PAPI_SAME(evictionStallSeconds);
    PAPI_SAME(swapInducedStallSeconds);
    PAPI_SAME(handoffs);
    PAPI_SAME(prefillHandoffTokens);
    PAPI_SAME(shedRequests);
    PAPI_SAME(prefixLookups);
    PAPI_SAME(prefixHits);
    PAPI_SAME(prefixHitTokens);
    PAPI_SAME(prefixMissTokens);
    PAPI_SAME(prefixEvictedBytes);
    PAPI_SAME(evictionOrder);
}

inline void
expectSameTimed(const llm::TimedRequest &a, const llm::TimedRequest &b)
{
    PAPI_SAME(request.id);
    PAPI_SAME(request.inputLen);
    PAPI_SAME(request.outputLen);
    PAPI_SAME(request.generated);
    PAPI_SAME(request.prefixKey);
    PAPI_SAME(request.prefixTokens);
    PAPI_SAME(request.insertKey);
    PAPI_SAME(request.insertTokens);
    PAPI_SAME(arrivalSeconds);
    PAPI_SAME(sessionId);
}

inline void
expectSameHandoffs(const std::vector<HandoffRecord> &x,
                   const std::vector<HandoffRecord> &y)
{
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        SCOPED_TRACE("handoff " + std::to_string(i));
        const HandoffRecord &a = x[i];
        const HandoffRecord &b = y[i];
        expectSameTimed(a.request, b.request);
        PAPI_SAME(readySeconds);
        PAPI_SAME(kvTokens);
        PAPI_SAME(kvBlocks);
        PAPI_SAME(kvBytes);
    }
}

inline void
expectSameLost(const std::vector<LostRequest> &x,
               const std::vector<LostRequest> &y)
{
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        SCOPED_TRACE("lost request " + std::to_string(i));
        const LostRequest &a = x[i];
        const LostRequest &b = y[i];
        expectSameTimed(a.request, b.request);
        PAPI_SAME(admitted);
        PAPI_SAME(generatedLost);
        PAPI_SAME(prefillLostTokens);
    }
}

/**
 * One lockstep step: the peeked iteration must agree before the step
 * runs it, the clocks and queues after. Handoffs are taken from both
 * sides, compared, and appended to @p handoffs. @p probe goes to both
 * prefix-cache probes.
 */
inline void
stepBoth(ServingSim &sim, ServingModel &model,
         const llm::TimedRequest &probe,
         std::vector<HandoffRecord> &handoffs)
{
    ASSERT_EQ(sim.canStep(), model.canStep());
    ASSERT_EQ(sim.hasActive(), model.hasActive());
    if (sim.hasActive()) {
        ASSERT_EQ(sim.peekIterationSeconds(),
                  model.peekIterationSeconds());
    }
    sim.step();
    model.step();
    ASSERT_EQ(sim.now(), model.now());
    ASSERT_EQ(sim.outstanding(), model.outstanding());
    ASSERT_EQ(sim.pendingCount(), model.pendingCount());
    ASSERT_EQ(sim.preemptedCount(), model.preemptedCount());
    ASSERT_EQ(sim.busySeconds(), model.busySeconds());
    ASSERT_EQ(sim.probePrefixHitTokens(probe),
              model.probePrefixHitTokens(probe));
    ASSERT_EQ(sim.hasHandoffs(), model.hasHandoffs());
    if (sim.hasHandoffs()) {
        const std::vector<HandoffRecord> h = sim.takeHandoffs();
        expectSameHandoffs(h, model.takeHandoffs());
        handoffs.insert(handoffs.end(), h.begin(), h.end());
    }
}

/** After the run: the results (ServingSim's goes to @p result),
 *  then every per-request, per-component, per-target and
 *  per-iteration record. */
inline void
expectSameFinish(ServingSim &sim, ServingModel &model,
                 ServingResult *result)
{
    *result = sim.finish();
    expectSameResult(*result, model.finish());
    ASSERT_EQ(sim.records().size(), model.records().size());
    for (std::size_t i = 0; i < sim.records().size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        const RequestRecord &a = sim.records()[i];
        const RequestRecord &b = model.records()[i];
        PAPI_SAME(id);
        PAPI_SAME(arrivalSeconds);
        PAPI_SAME(admissionSeconds);
        PAPI_SAME(firstTokenSeconds);
        PAPI_SAME(finishSeconds);
        PAPI_SAME(outputTokens);
        PAPI_SAME(preemptions);
        PAPI_SAME(stallSeconds);
        PAPI_SAME(prefixHitTokens);
        PAPI_SAME(prefixMissTokens);
    }
    {
        const RunBreakdown &a = sim.breakdown();
        const RunBreakdown &b = model.breakdown();
        PAPI_SAME(prefillSeconds);
        PAPI_SAME(fcSeconds);
        PAPI_SAME(attnSeconds);
        PAPI_SAME(commSeconds);
        PAPI_SAME(otherSeconds);
    }
    EXPECT_EQ(sim.perTargetIterations(), model.perTargetIterations());
    ASSERT_EQ(sim.trace().size(), model.trace().size());
    for (std::size_t i = 0; i < sim.trace().size(); ++i) {
        SCOPED_TRACE("trace row " + std::to_string(i));
        const IterationTrace &a = sim.trace()[i];
        const IterationTrace &b = model.trace()[i];
        PAPI_SAME(iteration);
        PAPI_SAME(rlp);
        PAPI_SAME(tlp);
        PAPI_SAME(estimatedAi);
        PAPI_SAME(targetId);
        PAPI_SAME(rescheduled);
        PAPI_SAME(eosCount);
        PAPI_SAME(iterationSeconds);
    }
}

#undef PAPI_SAME

} // namespace papi::core::test

#endif // PAPI_TESTS_SERVING_LOCKSTEP_HH
