/**
 * @file
 * Identity grid: one FNV-1a digest per whole ServingSim run over a
 * grid of serving configurations, pinned against goldens.
 *
 * The lockstep tests compare ServingSim with the executable
 * specification, but both share llm::KvCacheManager and Platform, so
 * a change inside those moves both sides alike and the lockstep stays
 * green. This grid pins the runs themselves: trace x chunked prefill
 * x pool size x speculation length x preemption policy x prefix cache.
 * Each digest covers every ServingResult field the determinism
 * contract covers (ServingResult::work, the work counters, is left
 * out on purpose: perf changes are meant to move it), every
 * RequestRecord, the breakdown and the per-target iteration counts.
 *
 * The goldens were recorded from the serving core as it stood before
 * KV growth was restricted to block crossings; four chunked cells
 * were re-recorded when chunked runs began sampling KV utilization
 * before the advance (peakKvUtilization). Never re-record them to
 * make a change pass; a change that moves simulated results on
 * purpose says so and re-records them in its own commit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/serving_engine.hh"
#include "llm/arrival.hh"
#include "llm/kv_cache.hh"
#include "llm/model_config.hh"

namespace {

using namespace papi::core;
namespace llm = papi::llm;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

void
fnvMix(std::uint64_t &h, double v)
{
    fnvMix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t
runDigest(const ServingResult &r, const ServingSim &sim)
{
    std::uint64_t h = kFnvOffset;
    fnvMix(h, r.makespanSeconds);
    fnvMix(h, r.energyJoules);
    fnvMix(h, r.iterations);
    fnvMix(h, r.tokensGenerated);
    fnvMix(h, r.admissions);
    fnvMix(h, r.reschedules);
    fnvMix(h, r.reschedulesToGpu);
    fnvMix(h, r.fcOnGpuIterations);
    fnvMix(h, r.fcOnPimIterations);
    fnvMix(h, r.meanLatencySeconds);
    fnvMix(h, r.p95LatencySeconds);
    fnvMix(h, r.meanRlp);
    fnvMix(h, r.peakKvUtilization);
    fnvMix(h, r.preemptions);
    fnvMix(h, r.resumes);
    fnvMix(h, r.recomputedPrefillTokens);
    fnvMix(h, r.evictionStallSeconds);
    fnvMix(h, r.swapInducedStallSeconds);
    fnvMix(h, r.handoffs);
    fnvMix(h, r.prefillHandoffTokens);
    fnvMix(h, r.shedRequests);
    fnvMix(h, r.prefixLookups);
    fnvMix(h, r.prefixHits);
    fnvMix(h, r.prefixHitTokens);
    fnvMix(h, r.prefixMissTokens);
    fnvMix(h, r.prefixEvictedBytes);
    fnvMix(h, std::uint64_t{r.evictionOrder.size()});
    for (const std::uint64_t id : r.evictionOrder)
        fnvMix(h, id);
    fnvMix(h, std::uint64_t{sim.records().size()});
    for (const RequestRecord &rec : sim.records()) {
        fnvMix(h, rec.id);
        fnvMix(h, rec.arrivalSeconds);
        fnvMix(h, rec.admissionSeconds);
        fnvMix(h, rec.firstTokenSeconds);
        fnvMix(h, rec.finishSeconds);
        fnvMix(h, std::uint64_t{rec.outputTokens});
        fnvMix(h, std::uint64_t{rec.preemptions});
        fnvMix(h, rec.stallSeconds);
        fnvMix(h, std::uint64_t{rec.prefixHitTokens});
        fnvMix(h, std::uint64_t{rec.prefixMissTokens});
    }
    const RunBreakdown &b = sim.breakdown();
    fnvMix(h, b.prefillSeconds);
    fnvMix(h, b.fcSeconds);
    fnvMix(h, b.attnSeconds);
    fnvMix(h, b.commSeconds);
    fnvMix(h, b.otherSeconds);
    for (const std::uint64_t n : sim.perTargetIterations())
        fnvMix(h, n);
    return h;
}

struct GridTrace
{
    const char *name;
    llm::TraceCategory cat;
    double rateRps;
};

/** Cells in golden order: trace, chunk, pool, TLP, preemption
 *  (off, Recompute, SwapRestore), prefix cache (off, on). */
struct GridCell
{
    std::string name;
    std::uint64_t digest = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t prefixHits = 0;
};

std::vector<GridCell>
runGrid()
{
    const PlatformConfig cfg = makePapiConfig();
    const Platform papi(cfg);
    const llm::ModelConfig model = llm::llama65b();
    // Long decodes (the spec-decode shape), a hot shared system
    // prompt, and agentic sessions whose prompts chain prefixes.
    const GridTrace traces[] = {
        {"creative", llm::TraceCategory::CreativeWriting, 100.0},
        {"shared-qa", llm::TraceCategory::SharedQa, 100.0},
        {"agentic", llm::TraceCategory::AgenticLoop, 20.0},
    };
    // 0 = the platform's own pool; the token pools force evictions.
    const std::uint64_t pools[] = {0, 4096, 2048};
    const std::uint32_t chunks[] = {0, 64};
    const std::uint32_t tlps[] = {1, 4};
    std::vector<GridCell> cells;
    for (const GridTrace &t : traces) {
        llm::ArrivalProcess arrivals(t.cat, t.rateRps, 5);
        const std::vector<llm::TimedRequest> reqs = arrivals.generate(64);
        for (const std::uint32_t chunk : chunks) {
            for (const std::uint64_t pool : pools) {
                for (const std::uint32_t tlp : tlps) {
                    for (int preempt = 0; preempt < 3; ++preempt) {
                        for (const bool prefix : {false, true}) {
                            ServingOptions opt;
                            opt.maxRlp = 24;
                            opt.prefillChunkTokens = chunk;
                            opt.preemptOnKvPressure = preempt > 0;
                            opt.preemptPolicy =
                                preempt == 2
                                    ? KvPreemptPolicy::SwapRestore
                                    : KvPreemptPolicy::Recompute;
                            opt.prefixCacheEnabled = prefix;
                            if (pool > 0)
                                opt.kvCapacityOverrideBytes =
                                    llm::kvPoolBytesPerDevice(
                                        model, pool, cfg.numAttnDevices);
                            llm::SpeculativeConfig spec;
                            spec.length = tlp;
                            spec.acceptanceRate = tlp > 1 ? 0.7 : 1.0;
                            ServingSim sim(papi, spec, model, opt);
                            for (const llm::TimedRequest &r : reqs)
                                sim.deliver(r);
                            while (sim.canStep())
                                sim.step();
                            const ServingResult res = sim.finish();
                            GridCell c;
                            c.name = std::string(t.name) +
                                     " chunk=" + std::to_string(chunk) +
                                     " pool=" + std::to_string(pool) +
                                     " tlp=" + std::to_string(tlp) +
                                     " preempt=" +
                                     std::to_string(preempt) +
                                     " prefix=" + (prefix ? "on" : "off");
                            c.digest = runDigest(res, sim);
                            c.preemptions = res.preemptions;
                            c.prefixHits = res.prefixHits;
                            cells.push_back(c);
                        }
                    }
                }
            }
        }
    }
    return cells;
}

// Recorded from the serving core before block-crossing KV growth;
// cells 108, 127, 138 and 186 (chunked, peak reached at an admission)
// re-recorded when every mode began sampling KV utilization before
// the advance as well.
const std::uint64_t kGolden[] = {
    // creative chunk 0: pool 0/4096/2048 x TLP 1/4 x preemption x cache
    0x77e4dc28f47bbbcbULL, 0x99f9f66a7a89e886ULL, 0x7a19cbbeb2b254d7ULL,
    0x1ad1875afe53b11aULL, 0x7a19cbbeb2b254d7ULL, 0x1ad1875afe53b11aULL,
    0x58b1152576e3e21bULL, 0x80455781b75d5e2eULL, 0x9d02820e28ebacafULL,
    0xce811d63e7cfa16aULL, 0x9d02820e28ebacafULL, 0xce811d63e7cfa16aULL,
    0xac4c45c65b547d5dULL, 0x9baa25a7d067235cULL, 0xfc18f12ae86ce343ULL,
    0x22f9f76025385632ULL, 0xa840c53429c2676dULL, 0xeddad85ad931cf34ULL,
    0x767facc0184178ffULL, 0x7db2a5b0470345a2ULL, 0x2d903ab7caa9c245ULL,
    0xc092ea854d676f90ULL, 0xb66725c02565962dULL, 0xf4f49056fcd03718ULL,
    0xf9b7c7bf5783d3eaULL, 0xb17abd80343340f3ULL, 0x2a65afe940ff81b8ULL,
    0x6afd5c5a1f501fe9ULL, 0x41c18bfa1d1d2687ULL, 0x46df9c8349cf7f3eULL,
    0x9684f80976eebf55ULL, 0x17d3ed8aa4657f90ULL, 0x5490f08924b867f9ULL,
    0x70bf5ee253351e80ULL, 0x1515d2b5d80be91eULL, 0xdb82e493348a3883ULL,
    // creative chunk 64: pool 0/4096/2048 x TLP 1/4 x preemption x cache
    0xd7ef486f0ead07d5ULL, 0xa716018f348d0bc4ULL, 0x3291c1085b5a0b97ULL,
    0x3614aa44b2cc8f72ULL, 0x3291c1085b5a0b97ULL, 0x3614aa44b2cc8f72ULL,
    0xd07116fbccb0ebd9ULL, 0x68708d39885fbe6cULL, 0x3645d188c245dbf7ULL,
    0x18895e307688a3f6ULL, 0x3645d188c245dbf7ULL, 0x18895e307688a3f6ULL,
    0x255c858d9e18d0f1ULL, 0x6eaf9db1239ae25cULL, 0x6928853f4f0eee9aULL,
    0x6039a8c8ccd7010fULL, 0x13b2c1f1d64867d0ULL, 0x928a9454dc3f9aa9ULL,
    0x7bc27dcc0b810da9ULL, 0x880f66d729539f70ULL, 0xf46d3422aecc9d17ULL,
    0x9dabcf3d32a24ef2ULL, 0x52c11c01be3b15deULL, 0x51b92516d03eef5bULL,
    0xb0faa29e78568dc9ULL, 0x59db35b3d9f19564ULL, 0x07b0a3ef61a4cff9ULL,
    0x4c7520659c20abacULL, 0x13308939c8bb1cc6ULL, 0xda789036d508044bULL,
    0xa2aa3e9597b8885eULL, 0x8b0619fd17d3477bULL, 0xf65bbef5a421639eULL,
    0x06023049dffc5d0fULL, 0x8631740ec6a80947ULL, 0x9c953b4a404941c6ULL,
    // shared-qa chunk 0: pool 0/4096/2048 x TLP 1/4 x preemption x cache
    0x331c9269b484af64ULL, 0x1ff661994874f3f0ULL, 0x35a186acf2628939ULL,
    0x1c012c1b79c6d2fbULL, 0x35a186acf2628939ULL, 0x1c012c1b79c6d2fbULL,
    0xf2e3c62fe600b21bULL, 0xebf111e9180fbb5bULL, 0x78cce72c785ceed5ULL,
    0xe6cdd18be4496e14ULL, 0x78cce72c785ceed5ULL, 0xe6cdd18be4496e14ULL,
    0xb8fdd436b878a36aULL, 0xb43915f4e7245f32ULL, 0x6da5db24318bb2dbULL,
    0xd01a7f593e172d71ULL, 0x1f7f5cb7b8397b22ULL, 0xc24856192f3b4221ULL,
    0xbd7a90d1ca356b47ULL, 0xd6fc45abb4675a51ULL, 0x7a21755c26342b3aULL,
    0xff033baaf3d4d31aULL, 0x9d2935dbc8542578ULL, 0x9fc1b705c4d4702cULL,
    0xb21fc97c702fb197ULL, 0xa4de0fc69bb42ab8ULL, 0xaaec788fcde48253ULL,
    0x31bc6df199148f6dULL, 0x3ddc712cb3934435ULL, 0xa40df2fe7ca82067ULL,
    0xd7198b1a97a12183ULL, 0x32dbb4e35acb14deULL, 0x35206eeb676e5416ULL,
    0xc3e2fa27a3cfaadcULL, 0x5777ae3a65a13bf2ULL, 0x5ac576bb760c1c55ULL,
    // shared-qa chunk 64: pool 0/4096/2048 x TLP 1/4 x preemption x cache
    0x53e2ae3e8a8c6603ULL, 0xf94993898d61e5bcULL, 0x0c5ea0cd8f70f72aULL,
    0x7e80534b24e03119ULL, 0x0c5ea0cd8f70f72aULL, 0x7e80534b24e03119ULL,
    0x8ea10cfe5a4e5edcULL, 0x209fae2e3c99d865ULL, 0x91401ebe15995a8bULL,
    0xe0f693f020407e52ULL, 0x91401ebe15995a8bULL, 0xe0f693f020407e52ULL,
    0x8a64069da02a1933ULL, 0x3b5c5af7c0abfc65ULL, 0x0d523e9dbec3e7f2ULL,
    0x3fcbff1870400d1dULL, 0x46764a994a80de74ULL, 0xb52bb3f595ee88a6ULL,
    0x87ffcfaacf616d6cULL, 0xbe86345b56bb71c7ULL, 0x074a981d0cf2c22cULL,
    0xee022722f3e0df9fULL, 0x074a981d0cf2c22cULL, 0xf0f59b7d0ee89cf9ULL,
    0xb5cba285383588bcULL, 0xf1072bd00ad5f0caULL, 0x6b0f86274175bed9ULL,
    0x22017af5af555b37ULL, 0xdd26b10018a13b19ULL, 0x34e1fbc4dfc4dc24ULL,
    0xd39f023f54777660ULL, 0xb8ed5f8a7b95365cULL, 0x50e91a4d090fe814ULL,
    0x802c868fa72e2474ULL, 0xf7ada8dc59361b82ULL, 0x60d9c72ab4b569cfULL,
    // agentic chunk 0: pool 0/4096/2048 x TLP 1/4 x preemption x cache
    0x342d83c1763e846aULL, 0x80492b49a6fdc7f4ULL, 0x2c32147d3f014a54ULL,
    0x80492b49a6fdc7f4ULL, 0x2c32147d3f014a54ULL, 0x80492b49a6fdc7f4ULL,
    0x5f4bb254b288771fULL, 0x7957d8519630d884ULL, 0x1cfd01b78143da87ULL,
    0x7957d8519630d884ULL, 0x1cfd01b78143da87ULL, 0x7957d8519630d884ULL,
    0xf99eeb71feefae47ULL, 0x6c314eeda8c71717ULL, 0xe8aa2ad1cfc7b90bULL,
    0xb3eb1034fd689460ULL, 0x97fa1d30d1df61d2ULL, 0x169c05212ae31ea0ULL,
    0x57b1befb9d282e05ULL, 0x96caa4111c4da7a9ULL, 0x39137d6d6f7f265dULL,
    0x9428696dafbfb26aULL, 0x7e7c1b9c1d4c53dcULL, 0xf4ffea75d50d818fULL,
    0xfda73ee612caa44eULL, 0xc3f470bbde7b258bULL, 0x3951d4fefc6a9266ULL,
    0x3bbeea6455c05d5aULL, 0xc265f174082ae41bULL, 0xb1b05dd6278bc939ULL,
    0xccf5c4c43021ec7cULL, 0x0aa8b85aeee7b210ULL, 0x4a42b9e6f01c5698ULL,
    0x69285156e641b2b3ULL, 0x6d752e85a86d5644ULL, 0x667604db144b8ed3ULL,
    // agentic chunk 64: pool 0/4096/2048 x TLP 1/4 x preemption x cache
    0x65ab6e70bcf49cf3ULL, 0x5a28e28126b4ec65ULL, 0xeba7e4a08a19b3f6ULL,
    0x5a28e28126b4ec65ULL, 0xeba7e4a08a19b3f6ULL, 0x5a28e28126b4ec65ULL,
    0x8ecb596fdbccedbfULL, 0xd263d53d780a66c7ULL, 0x9092daef48a3c1ccULL,
    0xd263d53d780a66c7ULL, 0x9092daef48a3c1ccULL, 0xd263d53d780a66c7ULL,
    0x02f3d9d07569d33dULL, 0xb4816679fed72448ULL, 0x0417b5ef7454bc8aULL,
    0x9ea0103da154baf6ULL, 0x584473f900608ab0ULL, 0x16c30218d8e0ff4dULL,
    0x10ed7059500bd279ULL, 0x8c15dc070e26fbc7ULL, 0x85609c39eec627b6ULL,
    0xcd7a8ae9ea954d3fULL, 0x85609c39eec627b6ULL, 0xcd7a8ae9ea954d3fULL,
    0xe56efe5914ae0797ULL, 0x41af081d8a7bc242ULL, 0x0ccd7c00e9b5ad0cULL,
    0xcb4f65dda0c924a0ULL, 0xf78fe114b9041f00ULL, 0x1ee66d6ab90e1969ULL,
    0x7aab4395216e13adULL, 0x54e15d7e5f87eee3ULL, 0x5aa2415432586fa1ULL,
    0xc0b61d0ad4ccf6a9ULL, 0x69b6187666073b22ULL, 0xb9a1864b38845b25ULL,
};

TEST(ServingIdentityGrid, DigestsMatchGoldens)
{
    const std::vector<GridCell> cells = runGrid();
    ASSERT_EQ(cells.size(), std::size(kGolden));
    std::uint64_t preemptions = 0;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].digest, kGolden[i])
            << "cell " << i << " (" << cells[i].name << ")";
        preemptions += cells[i].preemptions;
        hits += cells[i].prefixHits;
    }
    // The grid must reach evictions and prefix hits somewhere.
    EXPECT_GT(preemptions, 0u);
    EXPECT_GT(hits, 0u);
}

} // namespace
