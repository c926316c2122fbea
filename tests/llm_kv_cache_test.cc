/**
 * @file
 * Tests for the block-granular KV-cache allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <numeric>
#include <vector>

#include "llm/kv_cache.hh"
#include "llm/model_config.hh"
#include "sim/logging.hh"

namespace {

using namespace papi::llm;
using papi::sim::FatalError;
using papi::sim::PanicError;

class KvCacheTest : public ::testing::Test
{
  protected:
    KvCacheTest()
        : model(opt30b()),
          mgr(model, /*devices=*/4, /*capacity=*/1ULL << 30,
              /*block_tokens=*/16)
    {}

    ModelConfig model;
    KvCacheManager mgr;
};

TEST_F(KvCacheTest, BlockGeometry)
{
    EXPECT_EQ(mgr.blockBytes(), 16 * model.kvBytesPerToken());
    EXPECT_EQ(mgr.blocksForTokens(1), 1u);
    EXPECT_EQ(mgr.blocksForTokens(16), 1u);
    EXPECT_EQ(mgr.blocksForTokens(17), 2u);
    EXPECT_EQ(mgr.blocksForTokens(0), 0u);
}

TEST_F(KvCacheTest, AdmitGrowRelease)
{
    std::uint64_t before = mgr.freeBlocks();
    mgr.admit(1, 32); // 2 blocks
    EXPECT_EQ(mgr.freeBlocks(), before - 2);
    EXPECT_EQ(mgr.liveRequests(), 1u);
    mgr.grow(1, 40); // still 3 blocks? 40 tokens -> 3 blocks
    EXPECT_EQ(mgr.freeBlocks(), before - 3);
    mgr.grow(1, 48); // exactly 3 blocks - no change
    EXPECT_EQ(mgr.freeBlocks(), before - 3);
    mgr.release(1);
    EXPECT_EQ(mgr.freeBlocks(), before);
    EXPECT_EQ(mgr.liveRequests(), 0u);
}

TEST_F(KvCacheTest, BlocksSpreadAcrossDevices)
{
    // Allocate many blocks; the least-loaded-first policy must keep
    // devices balanced.
    mgr.admit(1, 16 * 40); // 40 blocks across 4 devices
    KvOccupancy occ = mgr.occupancy();
    EXPECT_EQ(occ.usedBlocks, 40u);
    EXPECT_NEAR(occ.deviceImbalance, 1.0, 1e-9);
}

TEST_F(KvCacheTest, AdmissionGating)
{
    std::uint64_t capacity_tokens = mgr.freeBlocks() * 16;
    EXPECT_TRUE(mgr.canAdmit(capacity_tokens));
    EXPECT_FALSE(mgr.canAdmit(capacity_tokens + 16));
    mgr.admit(9, capacity_tokens);
    EXPECT_FALSE(mgr.canAdmit(1));
    EXPECT_EQ(mgr.occupancy().utilization(), 1.0);
    mgr.release(9);
    EXPECT_TRUE(mgr.canAdmit(1));
}

TEST_F(KvCacheTest, ExhaustionIsFatal)
{
    std::uint64_t capacity_tokens = mgr.freeBlocks() * 16;
    mgr.admit(1, capacity_tokens);
    EXPECT_THROW(mgr.admit(2, 16), FatalError);
    EXPECT_THROW(mgr.grow(1, capacity_tokens + 16), FatalError);
}

TEST_F(KvCacheTest, MisuseIsFatal)
{
    mgr.admit(1, 16);
    EXPECT_THROW(mgr.admit(1, 16), FatalError);  // duplicate id
    EXPECT_THROW(mgr.grow(2, 16), FatalError);   // unknown id
    EXPECT_THROW(mgr.grow(1, 8), FatalError);    // shrink
    EXPECT_THROW(mgr.release(2), FatalError);    // unknown id
}

TEST_F(KvCacheTest, InvalidConstructionIsFatal)
{
    ModelConfig m = opt30b();
    EXPECT_THROW(KvCacheManager(m, 0, 1ULL << 30), FatalError);
    EXPECT_THROW(KvCacheManager(m, 4, 1ULL << 30, 0), FatalError);
    // Block larger than a device.
    EXPECT_THROW(KvCacheManager(m, 4, 1024, 16), FatalError);
}

TEST_F(KvCacheTest, ManyRequestsChurn)
{
    // Admit/grow/release a churn of requests; the pool must return
    // to empty with no leaks. (Use a roomy pool: one OPT-30B block
    // of 16 tokens is ~22 MB.)
    KvCacheManager roomy(model, 8, 16ULL << 30, 16);
    std::uint64_t before = roomy.freeBlocks();
    for (std::uint64_t round = 0; round < 20; ++round) {
        for (std::uint64_t id = 0; id < 10; ++id)
            roomy.admit(round * 100 + id, 64 + id * 16);
        for (std::uint64_t id = 0; id < 10; ++id)
            roomy.grow(round * 100 + id, 256 + id * 16);
        for (std::uint64_t id = 0; id < 10; ++id)
            roomy.release(round * 100 + id);
    }
    EXPECT_EQ(roomy.freeBlocks(), before);
    EXPECT_EQ(roomy.liveRequests(), 0u);
    EXPECT_NEAR(roomy.occupancy().utilization(), 0.0, 1e-12);
}

TEST_F(KvCacheTest, ExportImportMigratesBlocksAcrossPools)
{
    // The disaggregated handoff: export snapshots the footprint and
    // frees the source pool; import re-admits the same context into
    // a destination pool with identical block arithmetic.
    KvCacheManager dest(model, 4, 1ULL << 30, 16);
    const std::uint64_t before = mgr.freeBlocks();
    mgr.admit(7, 100);
    EXPECT_EQ(mgr.requestTokens(7), 100u);
    EXPECT_EQ(mgr.requestBlocks(7), mgr.blocksForTokens(100));

    KvExport x = mgr.exportRequest(7);
    EXPECT_EQ(x.tokens, 100u);
    EXPECT_EQ(x.blocks, mgr.blocksForTokens(100));
    EXPECT_EQ(x.bytes, x.blocks * mgr.blockBytes());
    // Source pool fully freed; the id is gone.
    EXPECT_EQ(mgr.freeBlocks(), before);
    EXPECT_EQ(mgr.liveRequests(), 0u);
    EXPECT_THROW(mgr.requestTokens(7), FatalError);

    dest.importRequest(7, x.tokens);
    EXPECT_EQ(dest.requestTokens(7), x.tokens);
    EXPECT_EQ(dest.requestBlocks(7), x.blocks);
    // Imported requests grow like any other.
    dest.grow(7, x.tokens + 64);
    EXPECT_EQ(dest.requestTokens(7), x.tokens + 64);
    // Double-import of a live id is a ledger error.
    EXPECT_THROW(dest.importRequest(7, 10), FatalError);
    EXPECT_THROW(mgr.exportRequest(99), FatalError);
}

/** Property sweep over block sizes: geometry invariants hold. */
class KvBlockSizes : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(KvBlockSizes, GeometryInvariants)
{
    ModelConfig m = opt30b();
    KvCacheManager mgr(m, 8, 4ULL << 30, GetParam());
    // blocksForTokens is monotone and tight.
    std::uint64_t prev = 0;
    for (std::uint64_t t = 1; t <= 4096; t *= 2) {
        std::uint64_t b = mgr.blocksForTokens(t);
        EXPECT_GE(b, prev);
        EXPECT_GE(b * GetParam(), t);
        EXPECT_LT((b - 1) * GetParam(), t);
        prev = b;
    }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, KvBlockSizes,
                         ::testing::Values(1u, 8u, 16u, 64u, 256u));

// ------------------------------------------- water-fill equivalence

/**
 * The bulk allocator's closed-form water-filling (used for large
 * grows) must reproduce the sequential least-loaded-lowest-index
 * scan (used for small grows) EXACTLY - same per-device placement,
 * not just the same totals. Randomized preloads create uneven
 * device levels; a one-call bulk grow on manager A must then leave
 * the same per-device state as block-at-a-time growth on manager B.
 */
TEST(KvWaterFill, BulkGrowMatchesSequentialScanExactly)
{
    const ModelConfig m = opt30b();
    const std::uint32_t bt = 16;
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    auto rnd = [&lcg](std::uint64_t bound) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % bound;
    };

    for (int round = 0; round < 50; ++round) {
        const std::uint32_t devices =
            static_cast<std::uint32_t>(2 + rnd(7)); // 2..8
        KvCacheManager a(m, devices, 4ULL << 30, bt);
        KvCacheManager b(m, devices, 4ULL << 30, bt);

        // Uneven preload: a few requests of random footprint, some
        // released again to leave holes.
        const std::uint64_t preload = 1 + rnd(6);
        for (std::uint64_t id = 100; id < 100 + preload; ++id) {
            const std::uint64_t tokens = 1 + rnd(20) * bt;
            a.admit(id, tokens);
            b.admit(id, tokens);
            if (rnd(3) == 0) {
                a.release(id);
                b.release(id);
            }
        }
        ASSERT_EQ(a.usedPerDevice(), b.usedPerDevice());

        // The victim grows by a random large amount (far past the
        // <= 8-block scan threshold) in one call on A...
        a.admit(1, 1);
        b.admit(1, 1);
        const std::uint64_t target =
            bt + (9 + rnd(60)) * bt + rnd(bt);
        const std::uint64_t blocks_a = a.grow(1, target);

        // ...and one block at a time on B (every call is a 1-block
        // grow, which takes the sequential scan path by
        // construction).
        std::uint64_t blocks_b = 0;
        for (std::uint64_t t = bt + 1; ; t += bt) {
            const std::uint64_t step = std::min(t, target);
            blocks_b = b.grow(1, step);
            if (step == target)
                break;
        }

        EXPECT_EQ(blocks_a, blocks_b) << "round " << round;
        EXPECT_EQ(a.usedPerDevice(), b.usedPerDevice())
            << "round " << round << ": bulk water-fill diverged "
            << "from the sequential least-loaded definition";
        EXPECT_EQ(a.freeBlocks(), b.freeBlocks());
    }
}

/**
 * Test-local placement reference: every block goes to the least-used
 * device, lowest index on ties, found by a full scan per block - the
 * definition, written independently of both of the manager's
 * allocation paths (the closed-form bulk fill and the small-grow
 * pick it carries between blocks). The prefix cache's LRU and
 * evict-before-fail rules are restated on top, because evictions
 * are what move device levels other than through placement.
 */
class ScanPlacementModel
{
  public:
    struct Holding
    {
        std::uint64_t tokens = 0;
        std::uint64_t blocks = 0;
        std::vector<std::uint64_t> perDevice;
    };

    ScanPlacementModel(std::uint32_t devices,
                       std::uint64_t blocks_per_device,
                       std::uint32_t block_tokens)
        : used(devices, 0), _capacity(blocks_per_device),
          _blockTokens(block_tokens)
    {}

    std::uint64_t
    blocksFor(std::uint64_t tokens) const
    {
        return (tokens + _blockTokens - 1) / _blockTokens;
    }

    std::uint64_t
    freeBlocks() const
    {
        return _capacity * used.size() -
               std::accumulate(used.begin(), used.end(),
                               std::uint64_t{0});
    }

    std::uint64_t
    cachedBlocks() const
    {
        std::uint64_t s = 0;
        for (const auto &e : lru)
            s += e.second.blocks;
        return s;
    }

    /** Whether the manager can grow a holding by @p add blocks
     *  without failing (cached blocks are reclaimable). */
    bool
    fits(std::uint64_t add) const
    {
        return add <= freeBlocks() + cachedBlocks();
    }

    void
    admit(std::uint64_t id, std::uint64_t tokens)
    {
        Holding &h = live[id];
        h.perDevice.assign(used.size(), 0);
        grow(id, std::max<std::uint64_t>(tokens, 1));
    }

    void
    grow(std::uint64_t id, std::uint64_t tokens)
    {
        Holding &h = live.at(id);
        const std::uint64_t need = blocksFor(tokens);
        if (need > h.blocks) {
            const std::uint64_t add = need - h.blocks;
            reclaim(add);
            ASSERT_LE(add, freeBlocks());
            place(h, add);
        }
        h.tokens = tokens;
    }

    void
    release(std::uint64_t id)
    {
        drop(live.at(id));
        live.erase(id);
    }

    void
    insert(std::uint64_t key, std::uint64_t tokens)
    {
        auto it = findEntry(key);
        if (it != lru.end()) {
            // Unlinked first, so the extension's reclaim cannot
            // evict the entry itself.
            std::list<std::pair<std::uint64_t, Holding>> self;
            self.splice(self.begin(), lru, it);
            Holding &h = self.front().second;
            if (tokens > h.tokens) {
                const std::uint64_t need = blocksFor(tokens);
                if (need > h.blocks) {
                    const std::uint64_t add = need - h.blocks;
                    reclaim(add);
                    if (add <= freeBlocks()) {
                        place(h, add);
                        h.tokens = tokens;
                    }
                } else {
                    h.tokens = tokens;
                }
            }
            lru.splice(lru.begin(), self);
            return;
        }
        const std::uint64_t need = blocksFor(tokens);
        reclaim(need);
        if (need > freeBlocks())
            return; // dropped: the pool is too hot
        Holding h;
        h.tokens = tokens;
        h.perDevice.assign(used.size(), 0);
        place(h, need);
        lru.emplace_front(key, std::move(h));
    }

    void
    lookup(std::uint64_t key, std::uint64_t max_tokens)
    {
        auto it = findEntry(key);
        if (it == lru.end())
            return;
        const std::uint64_t hit = std::min(it->second.tokens,
                                           max_tokens);
        if (hit / _blockTokens > 0)
            lru.splice(lru.begin(), lru, it); // promote to MRU
    }

    std::vector<std::uint64_t> used;
    std::map<std::uint64_t, Holding> live;
    /** Prefix entries, most recently used first. */
    std::list<std::pair<std::uint64_t, Holding>> lru;

  private:
    std::list<std::pair<std::uint64_t, Holding>>::iterator
    findEntry(std::uint64_t key)
    {
        return std::find_if(lru.begin(), lru.end(),
                            [key](const auto &e) {
                                return e.first == key;
                            });
    }

    void
    place(Holding &h, std::uint64_t add)
    {
        for (std::uint64_t b = 0; b < add; ++b) {
            std::size_t best = 0;
            for (std::size_t d = 1; d < used.size(); ++d) {
                if (used[d] < used[best])
                    best = d;
            }
            ++used[best];
            ++h.perDevice[best];
        }
        h.blocks += add;
    }

    void
    drop(const Holding &h)
    {
        for (std::size_t d = 0; d < used.size(); ++d)
            used[d] -= h.perDevice[d];
    }

    /** Evict LRU entries until @p need blocks are free. */
    void
    reclaim(std::uint64_t need)
    {
        while (freeBlocks() < need && !lru.empty()) {
            drop(lru.back().second);
            lru.pop_back();
        }
    }

    std::uint64_t _capacity;
    std::uint32_t _blockTokens;
};

/**
 * Seeded churn of admits, 1-8-block grows, releases, prefix inserts
 * (new and re-inserted keys) and lookups on a tight pool, so prefix
 * entries are LRU-evicted by growth and by other inserts. After
 * every operation the manager's per-device levels must equal the
 * scan model's, at small fleets and at the platforms' 60 devices.
 */
TEST(KvWaterFill, ChurnMatchesIndependentScanModel)
{
    const ModelConfig m = opt30b();
    const std::uint32_t bt = 16;
    const std::uint64_t block_bytes = bt * m.kvBytesPerToken();
    std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
    auto rnd = [&lcg](std::uint64_t bound) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % bound;
    };

    std::vector<std::uint32_t> fleets;
    for (std::uint32_t d = 2; d <= 8; ++d)
        fleets.insert(fleets.end(), {d, d});
    fleets.insert(fleets.end(), {60, 60, 60});

    std::uint64_t evicted_bytes = 0;
    std::uint64_t bulk_placements = 0; // admits/inserts over 8 blocks
    for (std::size_t round = 0; round < fleets.size(); ++round) {
        const std::uint32_t devices = fleets[round];
        const std::uint64_t per_device = 6 + rnd(10);
        KvCacheManager mgr(m, devices, per_device * block_bytes, bt);
        mgr.setPrefixCacheEnabled(true);
        ScanPlacementModel ref(devices, per_device, bt);
        // Footprints scale with the fleet so the pool stays tight;
        // admits and inserts above 8 blocks take the bulk fill.
        const std::uint64_t max_blocks =
            std::max<std::uint64_t>(12, per_device * devices / 6);
        std::uint64_t next_id = 1;
        const int ops = devices >= 60 ? 3000 : 600;

        for (int op = 0; op < ops; ++op) {
            const std::uint64_t kind = rnd(100);
            if (kind < 25) {
                const std::uint64_t tokens = 1 + rnd(max_blocks * bt);
                if (!ref.fits(ref.blocksFor(tokens)))
                    continue;
                bulk_placements += ref.blocksFor(tokens) > 8;
                mgr.admit(next_id, tokens);
                ref.admit(next_id, tokens);
                ++next_id;
            } else if (kind < 60) {
                if (ref.live.empty())
                    continue;
                auto it = ref.live.begin();
                std::advance(it, static_cast<long>(
                                     rnd(ref.live.size())));
                const std::uint64_t k = 1 + rnd(8);
                if (!ref.fits(k))
                    continue;
                const std::uint64_t tokens =
                    it->second.blocks * bt + (k - 1) * bt + 1 +
                    rnd(bt);
                mgr.grow(it->first, tokens);
                ref.grow(it->first, tokens);
            } else if (kind < 78) {
                if (ref.live.empty())
                    continue;
                auto it = ref.live.begin();
                std::advance(it, static_cast<long>(
                                     rnd(ref.live.size())));
                const std::uint64_t id = it->first;
                mgr.release(id);
                ref.release(id);
            } else if (kind < 93) {
                const std::uint64_t key = 1 + rnd(12);
                const std::uint64_t tokens = 1 + rnd(max_blocks * bt);
                mgr.prefixInsert(key, tokens);
                ref.insert(key, tokens);
            } else {
                const std::uint64_t key = 1 + rnd(12);
                const std::uint64_t max_tokens = 1 + rnd(4 * bt);
                mgr.prefixLookup(key, max_tokens);
                ref.lookup(key, max_tokens);
            }
            ASSERT_EQ(mgr.usedPerDevice(), ref.used)
                << "round " << round << " (" << devices
                << " devices), op " << op;
            ASSERT_EQ(mgr.cachedBlocks(), ref.cachedBlocks())
                << "round " << round << ", op " << op;
            ASSERT_EQ(mgr.prefixEntries(), ref.lru.size())
                << "round " << round << ", op " << op;
            ASSERT_EQ(mgr.liveRequests(), ref.live.size());
        }
        evicted_bytes += mgr.prefixEvictedBytes();
    }
    // The churn must exercise LRU eviction and the bulk fill.
    EXPECT_GT(evicted_bytes, 0u);
    EXPECT_GT(bulk_placements, 0u);
}

// ------------------------------------------------------ KV handles

/**
 * The handle API is the id API without the hash lookup. A seeded
 * churn drives one manager through KvHandle slots (admit's slot,
 * grow, growMany, release) and a twin through request ids, with
 * prefix inserts LRU-evicted by growth on both. Released slots are
 * reused by later admissions. After every operation the twins must
 * agree on per-device levels and on every live request's blocks
 * and tokens.
 */
TEST(KvHandle, ChurnMatchesIdApi)
{
    const ModelConfig m = opt30b();
    const std::uint32_t bt = 16;
    const std::uint64_t block_bytes = bt * m.kvBytesPerToken();
    std::uint64_t lcg = 0xD1B54A32D192ED03ull;
    auto rnd = [&lcg](std::uint64_t bound) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % bound;
    };

    std::uint64_t slot_reuses = 0;
    std::uint64_t evicted_bytes = 0;
    for (const std::uint32_t devices : {2u, 3u, 8u, 60u}) {
        const std::uint64_t per_device = 6 + rnd(10);
        KvCacheManager by_handle(m, devices, per_device * block_bytes,
                                 bt);
        KvCacheManager by_id(m, devices, per_device * block_bytes, bt);
        by_handle.setPrefixCacheEnabled(true);
        by_id.setPrefixCacheEnabled(true);
        const std::uint64_t max_blocks =
            std::max<std::uint64_t>(12, per_device * devices / 6);
        std::vector<KvHandle> live; // admission order
        std::vector<bool> slot_used;
        std::uint64_t next_id = 1;
        // Tokens that grow request @p id by exactly @p k blocks.
        const auto grown = [&](std::uint64_t id, std::uint64_t k) {
            return by_id.requestBlocks(id) * bt + (k - 1) * bt + 1 +
                   rnd(bt);
        };
        const int ops = devices >= 60 ? 3000 : 800;

        for (int op = 0; op < ops; ++op) {
            const std::uint64_t kind = rnd(100);
            if (kind < 25) {
                const std::uint64_t tokens = 1 + rnd(max_blocks * bt);
                if (by_id.blocksForTokens(tokens) >
                    by_id.availableBlocks())
                    continue;
                const KvAdmission a = by_handle.admit(next_id, tokens);
                const KvAdmission b = by_id.admit(next_id, tokens);
                ASSERT_EQ(a.blocks, b.blocks);
                if (a.slot >= slot_used.size())
                    slot_used.resize(a.slot + 1, false);
                slot_reuses += slot_used[a.slot];
                slot_used[a.slot] = true;
                live.push_back({next_id, a.slot});
                ++next_id;
            } else if (kind < 45) {
                if (live.empty())
                    continue;
                const KvHandle h = live[rnd(live.size())];
                const std::uint64_t k = 1 + rnd(8);
                if (k > by_id.availableBlocks())
                    continue;
                const std::uint64_t tokens = grown(h.id, k);
                ASSERT_EQ(by_handle.grow(h, tokens),
                          by_id.grow(h.id, tokens));
            } else if (kind < 60) {
                // One growMany over a batch-ordered subset, against
                // per-id grows in the same order.
                std::vector<std::uint32_t> slots;
                std::vector<std::uint64_t> ids, toks;
                std::uint64_t add = 0;
                for (const KvHandle &h : live) {
                    const std::uint64_t k = 1 + rnd(2);
                    if (rnd(2) == 0 ||
                        add + k > by_id.availableBlocks())
                        continue;
                    add += k;
                    slots.push_back(h.slot);
                    ids.push_back(h.id);
                    toks.push_back(grown(h.id, k));
                }
                std::vector<std::uint64_t> blocks(ids.size());
                by_handle.growMany(slots.data(), ids.data(),
                                   toks.data(), blocks.data(),
                                   ids.size());
                for (std::size_t j = 0; j < ids.size(); ++j)
                    ASSERT_EQ(blocks[j], by_id.grow(ids[j], toks[j]));
            } else if (kind < 80) {
                if (live.empty())
                    continue;
                const std::size_t i = rnd(live.size());
                by_handle.release(live[i]);
                by_id.release(live[i].id);
                live.erase(live.begin() + static_cast<long>(i));
            } else if (kind < 93) {
                const std::uint64_t key = 1 + rnd(12);
                const std::uint64_t tokens = 1 + rnd(max_blocks * bt);
                by_handle.prefixInsert(key, tokens);
                by_id.prefixInsert(key, tokens);
            } else {
                const std::uint64_t key = 1 + rnd(12);
                const std::uint64_t max_tokens = 1 + rnd(4 * bt);
                ASSERT_EQ(by_handle.prefixLookup(key, max_tokens),
                          by_id.prefixLookup(key, max_tokens));
            }
            ASSERT_EQ(by_handle.usedPerDevice(), by_id.usedPerDevice())
                << devices << " devices, op " << op;
            ASSERT_EQ(by_handle.cachedBlocks(), by_id.cachedBlocks());
            ASSERT_EQ(by_handle.liveRequests(), live.size());
            for (const KvHandle &h : live) {
                ASSERT_EQ(by_handle.requestBlocks(h.id),
                          by_id.requestBlocks(h.id));
                ASSERT_EQ(by_handle.requestTokens(h.id),
                          by_id.requestTokens(h.id));
            }
        }
        evicted_bytes += by_handle.prefixEvictedBytes();
        EXPECT_EQ(by_handle.prefixEvictedBytes(),
                  by_id.prefixEvictedBytes());
    }
    // The churn must reuse released slots and evict prefix entries.
    EXPECT_GT(slot_reuses, 0u);
    EXPECT_GT(evicted_bytes, 0u);
}

/**
 * A handle outlives its request: once the slot is released, and
 * especially once it is given to another id, every handle call must
 * be fatal instead of touching the new occupant's blocks.
 */
TEST(KvHandle, StaleHandleIsFatal)
{
    KvCacheManager mgr(opt30b(), 4, 1ULL << 30, 16);
    const KvAdmission first = mgr.admit(1, 32);
    const KvHandle stale{1, first.slot};
    mgr.release(stale);
    const KvAdmission second = mgr.admit(2, 32);
    ASSERT_EQ(second.slot, first.slot); // slot handed to request 2
    const std::vector<std::uint64_t> used = mgr.usedPerDevice();

    EXPECT_THROW(mgr.grow(stale, 64), FatalError);
    EXPECT_THROW(mgr.release(stale), FatalError);
    EXPECT_THROW(mgr.exportRequest(stale), FatalError);
    const std::uint64_t id = stale.id;
    const std::uint64_t tokens = 64;
    std::uint64_t blocks = 0;
    EXPECT_THROW(mgr.growMany(&stale.slot, &id, &tokens, &blocks, 1),
                 FatalError);
    // Request 2 kept its blocks through every rejected call.
    EXPECT_EQ(mgr.usedPerDevice(), used);
    EXPECT_EQ(mgr.requestBlocks(2), 2u);

    // A released slot nobody reused, and a slot never handed out.
    const KvHandle second_handle{2, second.slot};
    mgr.release(second_handle);
    EXPECT_THROW(mgr.grow(second_handle, 64), FatalError);
    EXPECT_THROW(mgr.release(KvHandle{2, 99}), FatalError);
    EXPECT_EQ(mgr.liveRequests(), 0u);
}

} // namespace
