/**
 * @file
 * Steady-state allocation test for the serving hot loop.
 *
 * PR 8's scratch-hoisting contract: once the batch is formed and the
 * per-platform kernel memos are warm, a decode iteration performs
 * ZERO heap allocations - the chunk plans, context refills, plan
 * memo and advance/retire passes all run in preallocated storage.
 * This test instruments the global allocator (this binary only) and
 * counts allocations across a long no-retirement decode window.
 *
 * The memos below the serving loop are filled lazily: the ServingSim
 * plan memo (keyed on batch size, FC tokens and context sum), the
 * platform's dense FC table and prefill memo, and the GEMV command-
 * stream memo under attention. A first run over the workload warms
 * them; the counted run replays the identical iteration sequence and
 * must hit them without inserting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/serving_engine.hh"
#include "llm/model_config.hh"

namespace {

// ----------------------------------------------- allocator probe

bool g_counting = false;
std::uint64_t g_allocCount = 0;

} // namespace

void *
operator new(std::size_t size)
{
    if (g_counting)
        ++g_allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace papi::core;
namespace llm = papi::llm;

/** A uniform all-at-once batch: every request retires together at
 *  the far end, leaving a long pure-decode window in the middle. */
std::vector<llm::TimedRequest>
uniformStream(std::uint32_t count, std::uint32_t input_len,
              std::uint32_t output_len)
{
    std::vector<llm::TimedRequest> reqs(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        reqs[i].request.id = i + 1;
        reqs[i].request.inputLen = input_len;
        reqs[i].request.outputLen = output_len;
        reqs[i].arrivalSeconds = 0.0;
    }
    return reqs;
}

TEST(ServingZeroAlloc, SteadyStateDecodeDoesNotAllocate)
{
    Platform papi(makePapiConfig());
    const llm::ModelConfig model = llm::llama65b();
    const auto reqs = uniformStream(16, 256, 512);

    // Monolithic prefill, with worst-case KV reservation and then
    // with on-demand growth (whose decode iterations also run the
    // bulk KV grow and the headroom check).
    for (bool preempt : {false, true}) {
        SCOPED_TRACE(preempt ? "on-demand KV" : "reserved KV");
        ServingOptions opt;
        opt.maxRlp = 16;
        opt.preemptOnKvPressure = preempt;

        // Warm-up run: walks the exact iteration sequence the
        // counted run will take, populating the platform kernel
        // memos for every (batch size, context sum) the window
        // visits.
        {
            ServingSim warm(papi, {}, model, opt);
            for (const auto &tr : reqs)
                warm.deliver(tr);
            while (warm.canStep())
                warm.step();
            (void)warm.finish();
        }

        // Counted run: form the batch, let early iterations size the
        // scratch, then count a long mid-stream window - far from
        // both the admission wave and the retirement wave.
        ServingSim sim(papi, {}, model, opt);
        for (const auto &tr : reqs)
            sim.deliver(tr);
        for (int i = 0; i < 10; ++i) {
            ASSERT_TRUE(sim.canStep());
            sim.step();
        }
        ASSERT_TRUE(sim.hasActive());

        g_allocCount = 0;
        g_counting = true;
        for (int i = 0; i < 400; ++i)
            sim.step();
        g_counting = false;

        EXPECT_TRUE(sim.hasActive()); // still mid-decode: no retirement
        EXPECT_EQ(g_allocCount, 0u)
            << "steady-state decode iterations touched the heap";

        while (sim.canStep())
            sim.step();
        ServingResult r = sim.finish();
        EXPECT_EQ(r.tokensGenerated, 16ull * 512ull);
        EXPECT_EQ(r.preemptions, 0u);
    }
}

TEST(ServingZeroAlloc, ChunkedSteadyStateDecodeDoesNotAllocate)
{
    // Same contract on the chunked-prefill path once prefill has
    // drained: the all-decoding fast path plans from the context
    // sum and reuses every scratch vector.
    Platform papi(makePapiConfig());
    const llm::ModelConfig model = llm::llama65b();
    const auto reqs = uniformStream(16, 256, 512);

    ServingOptions opt;
    opt.maxRlp = 16;
    opt.prefillChunkTokens = 128;

    {
        ServingSim warm(papi, {}, model, opt);
        for (const auto &tr : reqs)
            warm.deliver(tr);
        while (warm.canStep())
            warm.step();
        (void)warm.finish();
    }

    ServingSim sim(papi, {}, model, opt);
    for (const auto &tr : reqs)
        sim.deliver(tr);
    // 16 requests x 256 prompt tokens / 128-token chunks = 32
    // prefill iterations; step well past them before counting.
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(sim.canStep());
        sim.step();
    }
    ASSERT_TRUE(sim.hasActive());

    g_allocCount = 0;
    g_counting = true;
    for (int i = 0; i < 300; ++i)
        sim.step();
    g_counting = false;

    EXPECT_TRUE(sim.hasActive());
    EXPECT_EQ(g_allocCount, 0u)
        << "steady-state chunked iterations touched the heap";

    while (sim.canStep())
        sim.step();
    ServingResult r = sim.finish();
    EXPECT_EQ(r.tokensGenerated, 16ull * 512ull);
}

TEST(ServingZeroAlloc, MixedChunkedPrefillWindowDoesNotAllocate)
{
    // Mixed iterations: one request's prompt chunk runs beside the
    // decodes of the requests already prefilled, with on-demand KV
    // growth. The chunk cost goes through Platform::prefillChunkExec
    // and the KV growth through the batch's slot handles; neither
    // may touch the heap once the memos are warm.
    Platform papi(makePapiConfig());
    const llm::ModelConfig model = llm::llama65b();
    const auto reqs = uniformStream(16, 256, 512);

    ServingOptions opt;
    opt.maxRlp = 16;
    opt.prefillChunkTokens = 64;
    opt.preemptOnKvPressure = true;

    {
        ServingSim warm(papi, {}, model, opt);
        for (const auto &tr : reqs)
            warm.deliver(tr);
        while (warm.canStep())
            warm.step();
        (void)warm.finish();
    }

    ServingSim sim(papi, {}, model, opt);
    for (const auto &tr : reqs)
        sim.deliver(tr);
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(sim.canStep());
        sim.step();
    }
    ASSERT_TRUE(sim.hasActive());

    // 16 prompts x 256 tokens / 64-token chunks = 64 chunked
    // iterations, one chunk each; steps 8..48 all mix a chunk with
    // the decodes of the requests prefilled before it.
    g_allocCount = 0;
    g_counting = true;
    for (int i = 0; i < 40; ++i)
        sim.step();
    g_counting = false;

    EXPECT_EQ(g_allocCount, 0u)
        << "mixed prefill/decode iterations touched the heap";

    while (sim.canStep())
        sim.step();
    ServingResult r = sim.finish();
    EXPECT_EQ(r.tokensGenerated, 16ull * 512ull);
    EXPECT_EQ(r.preemptions, 0u);
}

} // namespace
