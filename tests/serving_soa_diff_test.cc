/**
 * @file
 * Differential lockstep test: the SoA serving core vs the frozen
 * pre-refactor scalar reference (core/serving_reference.hh).
 *
 * Every config in a seeded grid (chunked prefill x preemption policy
 * x disaggregated roles x static batch x admission policy x
 * deadlines) runs the same request stream through both
 * implementations step by step, asserting bit-identical peeked
 * iteration durations, clocks, and final results at every boundary.
 * Doubles are compared with EXPECT_EQ on purpose: the determinism
 * contract is bitwise, not approximate.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/serving_engine.hh"
#include "core/serving_reference.hh"
#include "llm/arrival.hh"
#include "llm/model_config.hh"
#include "llm/trace.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;

std::vector<llm::TimedRequest>
stream(llm::TraceCategory cat, double rate_rps, std::uint32_t count,
       std::uint64_t seed)
{
    llm::ArrivalProcess arrivals(cat, rate_rps, seed);
    return arrivals.generate(count);
}

/** Exact (bitwise for doubles) equality of two serving results. */
void
expectResultsEqual(const ServingResult &a, const ServingResult &b)
{
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    EXPECT_EQ(a.admissions, b.admissions);
    EXPECT_EQ(a.reschedules, b.reschedules);
    EXPECT_EQ(a.reschedulesToGpu, b.reschedulesToGpu);
    EXPECT_EQ(a.fcOnGpuIterations, b.fcOnGpuIterations);
    EXPECT_EQ(a.fcOnPimIterations, b.fcOnPimIterations);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.p95LatencySeconds, b.p95LatencySeconds);
    EXPECT_EQ(a.meanRlp, b.meanRlp);
    EXPECT_EQ(a.peakKvUtilization, b.peakKvUtilization);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.resumes, b.resumes);
    EXPECT_EQ(a.recomputedPrefillTokens, b.recomputedPrefillTokens);
    EXPECT_EQ(a.evictionStallSeconds, b.evictionStallSeconds);
    EXPECT_EQ(a.swapInducedStallSeconds, b.swapInducedStallSeconds);
    EXPECT_EQ(a.handoffs, b.handoffs);
    EXPECT_EQ(a.prefillHandoffTokens, b.prefillHandoffTokens);
    EXPECT_EQ(a.shedRequests, b.shedRequests);
    EXPECT_EQ(a.evictionOrder, b.evictionOrder);
}

void
expectRecordsEqual(const std::vector<RequestRecord> &a,
                   const std::vector<RequestRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "record " << i;
        EXPECT_EQ(a[i].arrivalSeconds, b[i].arrivalSeconds);
        EXPECT_EQ(a[i].admissionSeconds, b[i].admissionSeconds);
        EXPECT_EQ(a[i].firstTokenSeconds, b[i].firstTokenSeconds);
        EXPECT_EQ(a[i].finishSeconds, b[i].finishSeconds);
        EXPECT_EQ(a[i].outputTokens, b[i].outputTokens);
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
        EXPECT_EQ(a[i].stallSeconds, b[i].stallSeconds);
    }
}

struct DiffCase
{
    std::string name;
    ServingOptions opt;
    llm::SpeculativeConfig spec;
    StaticBatchMode mode;
    double rateRps = 100.0;
    std::uint32_t count = 48;
    std::uint64_t streamSeed = 7;
    llm::TraceCategory cat = llm::TraceCategory::GeneralQa;
    /** When nonzero, shrink the KV pool to about this many tokens
     *  per device (so decode growth actually hits capacity). */
    std::uint64_t poolTokens = 0;
    /** When non-empty, the request stream to deliver instead of an
     *  ArrivalProcess draw from cat, rateRps, count and streamSeed. */
    std::vector<llm::TimedRequest> requests;
    /** Deliveries of the stream. Episode e arrives shifted to the
     *  clock at the end of episode e - 1, with ids offset by e times
     *  the stream size, so every episode repeats the first one's
     *  batch trajectory and the SoA core can answer its plans from
     *  the plan memo. */
    std::uint32_t episodes = 1;
};

/**
 * Drive both implementations in lockstep over the same stream and
 * assert equality at every step boundary and at the end (void so
 * gtest fatal asserts can return out of it; @p out receives the SoA
 * result so cases can assert the scenario they meant to exercise
 * actually occurred).
 */
void
runLockstepImpl(const DiffCase &c, ServingResult *out)
{
    SCOPED_TRACE(c.name);
    const PlatformConfig cfg = makePapiConfig();
    Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    const auto reqs =
        c.requests.empty()
            ? stream(c.cat, c.rateRps, c.count, c.streamSeed)
            : c.requests;

    ServingOptions opt = c.opt;
    if (c.poolTokens > 0)
        opt.kvCapacityOverrideBytes = llm::kvPoolBytesPerDevice(
            model, c.poolTokens, cfg.numAttnDevices);

    ServingSim soa(papi, c.spec, model, opt, {}, {}, c.mode);
    refimpl::ReferenceServingSim ref(papi, c.spec, model, opt, {},
                                     {}, c.mode);
    std::vector<HandoffRecord> soaHandoffs;
    std::vector<HandoffRecord> refHandoffs;
    std::uint64_t steps = 0;
    for (std::uint32_t e = 0; e < c.episodes; ++e) {
        // The step loop asserts that both clocks agree.
        const double offset = soa.now();
        const std::uint64_t id_base =
            std::uint64_t{e} * reqs.size();
        for (const auto &tr : reqs) {
            llm::TimedRequest t = tr;
            t.request.id += id_base;
            t.arrivalSeconds += offset;
            soa.deliver(t);
            ref.deliver(t);
        }

        while (soa.canStep() || ref.canStep()) {
            ASSERT_EQ(soa.canStep(), ref.canStep());
            ASSERT_EQ(soa.hasActive(), ref.hasActive());
            if (soa.hasActive()) {
                // The iteration plan the two cores computed must
                // match bit for bit BEFORE the step executes it.
                ASSERT_EQ(soa.peekIterationSeconds(),
                          ref.peekIterationSeconds())
                    << "step " << steps;
            }
            soa.step();
            ref.step();
            ASSERT_EQ(soa.now(), ref.now()) << "step " << steps;
            ASSERT_EQ(soa.outstanding(), ref.outstanding());
            ASSERT_EQ(soa.preemptedCount(), ref.preemptedCount());
            if (soa.hasHandoffs() || ref.hasHandoffs()) {
                auto hs = soa.takeHandoffs();
                auto hr = ref.takeHandoffs();
                soaHandoffs.insert(soaHandoffs.end(), hs.begin(),
                                   hs.end());
                refHandoffs.insert(refHandoffs.end(), hr.begin(),
                                   hr.end());
            }
            ASSERT_LT(++steps, 2'000'000u)
                << "lockstep diverged into a non-terminating run";
        }
    }

    ASSERT_EQ(soaHandoffs.size(), refHandoffs.size());
    for (std::size_t i = 0; i < soaHandoffs.size(); ++i) {
        EXPECT_EQ(soaHandoffs[i].request.request.id,
                  refHandoffs[i].request.request.id);
        EXPECT_EQ(soaHandoffs[i].readySeconds,
                  refHandoffs[i].readySeconds);
        EXPECT_EQ(soaHandoffs[i].kvTokens, refHandoffs[i].kvTokens);
        EXPECT_EQ(soaHandoffs[i].kvBlocks,
                  refHandoffs[i].kvBlocks);
        EXPECT_EQ(soaHandoffs[i].kvBytes, refHandoffs[i].kvBytes);
    }

    const ServingResult result = soa.finish();
    expectResultsEqual(result, ref.finish());
    expectRecordsEqual(soa.records(), ref.records());

    // The per-component split must agree too (it is derived from
    // the same plan fields the hot loop reorganized).
    const RunBreakdown &ba = soa.breakdown();
    const RunBreakdown &bb = ref.breakdown();
    EXPECT_EQ(ba.prefillSeconds, bb.prefillSeconds);
    EXPECT_EQ(ba.fcSeconds, bb.fcSeconds);
    EXPECT_EQ(ba.attnSeconds, bb.attnSeconds);
    EXPECT_EQ(ba.commSeconds, bb.commSeconds);
    EXPECT_EQ(ba.otherSeconds, bb.otherSeconds);
    *out = result;
}

ServingResult
runLockstep(const DiffCase &c)
{
    ServingResult result;
    runLockstepImpl(c, &result);
    return result;
}

// ------------------------------------------------------ the grid

TEST(SoaDiff, TokenLevelPlain)
{
    DiffCase c;
    c.name = "token-level, monolithic prefill";
    c.opt.maxRlp = 16;
    runLockstep(c);
}

TEST(SoaDiff, BatchLevelAdmission)
{
    DiffCase c;
    c.name = "batch-level fill rule";
    c.opt.maxRlp = 8;
    c.opt.admission = AdmissionPolicy::BatchLevel;
    c.opt.batchTimeoutSeconds = 0.05;
    runLockstep(c);
}

TEST(SoaDiff, ChunkedPrefill)
{
    DiffCase c;
    c.name = "chunked prefill";
    c.opt.maxRlp = 16;
    c.opt.prefillChunkTokens = 64;
    runLockstep(c);
}

TEST(SoaDiff, SpeculativeDecode)
{
    DiffCase c;
    c.name = "speculative decoding, token-level";
    c.opt.maxRlp = 16;
    c.spec.length = 4;
    c.spec.acceptanceRate = 0.7;
    runLockstep(c);
}

TEST(SoaDiff, PreemptRecompute)
{
    DiffCase c;
    c.name = "KV preemption, recompute policy";
    c.opt.maxRlp = 24;
    c.opt.preemptOnKvPressure = true;
    c.opt.preemptPolicy = KvPreemptPolicy::Recompute;
    // Long generations against a ~2k-token pool: decode growth
    // must hit capacity.
    c.cat = llm::TraceCategory::CreativeWriting;
    c.poolTokens = 2048;
    c.opt.maxRlp = 12;
    c.rateRps = 300.0;
    c.count = 24;
    c.streamSeed = 11;
    const ServingResult r = runLockstep(c);
    EXPECT_GT(r.preemptions, 0u) << "case exercised no evictions";
}

TEST(SoaDiff, PreemptSwapRestore)
{
    DiffCase c;
    c.name = "KV preemption, swap-restore policy";
    c.opt.maxRlp = 24;
    c.opt.preemptOnKvPressure = true;
    c.opt.preemptPolicy = KvPreemptPolicy::SwapRestore;
    c.opt.kvSwapGBps = 32.0;
    c.cat = llm::TraceCategory::CreativeWriting;
    c.poolTokens = 2048;
    c.opt.maxRlp = 12;
    c.rateRps = 300.0;
    c.count = 24;
    c.streamSeed = 11;
    const ServingResult r = runLockstep(c);
    EXPECT_GT(r.preemptions, 0u) << "case exercised no evictions";
}

TEST(SoaDiff, PreemptChunkedRecompute)
{
    DiffCase c;
    c.name = "chunked prefill + recompute preemption";
    c.opt.maxRlp = 24;
    c.opt.prefillChunkTokens = 128;
    c.opt.preemptOnKvPressure = true;
    c.opt.preemptPolicy = KvPreemptPolicy::Recompute;
    c.cat = llm::TraceCategory::CreativeWriting;
    c.poolTokens = 2048;
    c.opt.maxRlp = 12;
    c.rateRps = 300.0;
    c.count = 24;
    c.streamSeed = 11;
    const ServingResult r = runLockstep(c);
    EXPECT_GT(r.preemptions, 0u) << "case exercised no evictions";
}

TEST(SoaDiff, PrefillRole)
{
    DiffCase c;
    c.name = "disaggregated prefill pool, chunked";
    c.opt.maxRlp = 16;
    c.opt.role = ServingRole::Prefill;
    c.opt.prefillChunkTokens = 256;
    const ServingResult r = runLockstep(c);
    EXPECT_GT(r.handoffs, 0u) << "case exercised no handoffs";
}

TEST(SoaDiff, DeadlineShedding)
{
    DiffCase c;
    c.name = "SLO deadline shedding";
    c.opt.maxRlp = 4;
    c.opt.deadlineSeconds = 0.8;
    c.rateRps = 300.0;
    c.count = 64;
    const ServingResult r = runLockstep(c);
    EXPECT_GT(r.shedRequests, 0u) << "case exercised no shedding";
}

TEST(SoaDiff, StaticBatch)
{
    DiffCase c;
    c.name = "static batch (decode engine semantics)";
    c.opt.maxRlp = 16;
    c.opt.admission = AdmissionPolicy::BatchLevel;
    c.mode.enabled = true;
    c.mode.includePrefill = true;
    c.mode.recordTrace = true;
    c.rateRps = 1e9; // everything effectively arrives together
    c.count = 16;
    runLockstep(c);
}

TEST(SoaDiff, MaxBatchUniformDecodeEpisodes)
{
    // 512 uniform requests (64 prompt + 688 output tokens, the
    // largest single admission wave whose worst-case KV fits the
    // 60-device Attn-PIM fleet) all arriving at once, maxRlp 512,
    // one token per iteration, delivered twice. The second episode
    // repeats the first one's batch shapes, so the SoA core answers
    // its plans from the plan memo and runs the O(1) steady-state
    // advance through a full-width batch; every other case caps the
    // batch at 16 requests or fewer.
    DiffCase c;
    c.name = "max-batch uniform decode, two episodes";
    c.opt.maxRlp = 512;
    c.opt.alpha = 24.0;
    c.spec.length = 1;
    c.episodes = 2;
    llm::TraceGenerator gen(llm::TraceCategory::Uniform, 1);
    std::uint64_t id = 1;
    for (const llm::Request &r : gen.generateUniform(512, 64, 688)) {
        llm::TimedRequest tr;
        tr.request = r;
        tr.request.id = id++;
        tr.arrivalSeconds = 0.0;
        c.requests.push_back(tr);
    }
    const ServingResult r = runLockstep(c);
    EXPECT_EQ(r.tokensGenerated, 2u * 512u * 688u);
    EXPECT_EQ(r.admissions, 2u * 512u);
}

TEST(SoaDiff, SeededGridFuzz)
{
    // A small randomized-by-seed grid on top of the directed cases:
    // every combination re-runs with three different arrival seeds
    // and mixed workload categories.
    const std::uint64_t seeds[] = {11, 23, 61};
    const llm::TraceCategory cats[] = {
        llm::TraceCategory::GeneralQa,
        llm::TraceCategory::PrefillHeavy,
    };
    const std::uint32_t chunks[] = {0, 96};
    for (std::uint64_t seed : seeds) {
        for (auto cat : cats) {
            for (std::uint32_t chunk : chunks) {
                DiffCase c;
                c.name = "fuzz seed=" + std::to_string(seed) +
                         " cat=" +
                         std::to_string(static_cast<int>(cat)) +
                         " chunk=" + std::to_string(chunk);
                c.opt.maxRlp = 12;
                c.opt.prefillChunkTokens = chunk;
                c.streamSeed = seed;
                c.cat = cat;
                c.count = 40;
                c.rateRps = 150.0;
                runLockstep(c);

                // Preempting variant of the same cell.
                DiffCase p = c;
                p.name += " preempt";
                p.opt.preemptOnKvPressure = true;
                p.opt.preemptPolicy =
                    (seed % 2) ? KvPreemptPolicy::Recompute
                               : KvPreemptPolicy::SwapRestore;
                // PrefillHeavy prompts alone can exceed a 2k
                // pool; 8k keeps single requests admissible while
                // still forcing evictions at RLP 12.
                p.poolTokens = 8192;
                p.opt.maxRlp = 12;
                runLockstep(p);
            }
        }
    }
}

} // namespace
