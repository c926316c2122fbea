/**
 * @file
 * Tests for the block-granular KV-cache allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <string>
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
    const KvHandle h{1, mgr.admit(1, 32).slot}; // 2 blocks
    EXPECT_EQ(mgr.freeBlocks(), before - 2);
    EXPECT_EQ(mgr.liveRequests(), 1u);
    mgr.grow(h, 40); // still 3 blocks? 40 tokens -> 3 blocks
    EXPECT_EQ(mgr.freeBlocks(), before - 3);
    mgr.grow(h, 48); // exactly 3 blocks - no change
    EXPECT_EQ(mgr.freeBlocks(), before - 3);
    mgr.release(h);
    EXPECT_EQ(mgr.freeBlocks(), before);
    EXPECT_EQ(mgr.liveRequests(), 0u);
}

TEST_F(KvCacheTest, PoolHoldsWholeBlocksPerDevice)
{
    // The pool is devices x floor(capacity / blockBytes) blocks: a
    // block never straddles two devices.
    EXPECT_EQ(mgr.occupancy().totalBlocks,
              4 * ((1ULL << 30) / mgr.blockBytes()));
    const std::uint64_t odd = 5 * mgr.blockBytes() / 2; // 2.5 blocks
    KvCacheManager tight(model, 3, odd, 16);
    EXPECT_EQ(tight.occupancy().totalBlocks, 6u);
    EXPECT_EQ(tight.freeBlocks(), 6u);

    mgr.admit(1, 16 * 40); // 40 blocks
    const KvOccupancy occ = mgr.occupancy();
    EXPECT_EQ(occ.usedBlocks, 40u);
    EXPECT_EQ(occ.requests, 1u);
    EXPECT_EQ(mgr.freeBlocks(), occ.totalBlocks - 40);
}

TEST_F(KvCacheTest, AdmissionGating)
{
    std::uint64_t capacity_tokens = mgr.freeBlocks() * 16;
    EXPECT_TRUE(mgr.canAdmit(capacity_tokens));
    EXPECT_FALSE(mgr.canAdmit(capacity_tokens + 16));
    const KvHandle h{9, mgr.admit(9, capacity_tokens).slot};
    EXPECT_FALSE(mgr.canAdmit(1));
    EXPECT_EQ(mgr.occupancy().utilization(), 1.0);
    mgr.release(h);
    EXPECT_TRUE(mgr.canAdmit(1));
}

TEST_F(KvCacheTest, ExhaustionIsFatal)
{
    std::uint64_t capacity_tokens = mgr.freeBlocks() * 16;
    const KvHandle h{1, mgr.admit(1, capacity_tokens).slot};
    EXPECT_THROW(mgr.admit(2, 16), FatalError);
    EXPECT_THROW(mgr.grow(h, capacity_tokens + 16), FatalError);
}

TEST_F(KvCacheTest, MisuseIsFatal)
{
    const KvHandle h{1, mgr.admit(1, 16).slot};
    const KvHandle other{2, h.slot}; // the slot holds request 1
    EXPECT_THROW(mgr.admit(1, 16), FatalError);   // duplicate id
    EXPECT_THROW(mgr.grow(other, 16), FatalError); // wrong id
    EXPECT_THROW(mgr.grow(h, 8), FatalError);      // shrink
    EXPECT_THROW(mgr.release(other), FatalError);  // wrong id
    EXPECT_THROW(mgr.requestBlocks(2), FatalError); // unknown id
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
        std::vector<KvHandle> live;
        for (std::uint64_t id = 0; id < 10; ++id) {
            const std::uint64_t rid = round * 100 + id;
            live.push_back({rid, roomy.admit(rid, 64 + id * 16).slot});
        }
        for (std::uint64_t id = 0; id < 10; ++id)
            roomy.grow(live[id], 256 + id * 16);
        for (const KvHandle &h : live)
            roomy.release(h);
    }
    EXPECT_EQ(roomy.freeBlocks(), before);
    EXPECT_EQ(roomy.liveRequests(), 0u);
    EXPECT_NEAR(roomy.occupancy().utilization(), 0.0, 1e-12);
}

TEST_F(KvCacheTest, ExportImportMigratesBlocksAcrossPools)
{
    // The disaggregated handoff: export snapshots the footprint and
    // frees the source pool; the destination pool admits the same
    // context with identical block arithmetic.
    KvCacheManager dest(model, 4, 1ULL << 30, 16);
    const std::uint64_t before = mgr.freeBlocks();
    const KvHandle h{7, mgr.admit(7, 100).slot};
    EXPECT_EQ(mgr.requestBlocks(7), mgr.blocksForTokens(100));

    KvExport x = mgr.exportRequest(h);
    EXPECT_EQ(x.blocks, mgr.blocksForTokens(100));
    EXPECT_EQ(x.bytes, x.blocks * mgr.blockBytes());
    // Source pool fully freed; the id is gone.
    EXPECT_EQ(mgr.freeBlocks(), before);
    EXPECT_EQ(mgr.liveRequests(), 0u);
    EXPECT_THROW(mgr.requestBlocks(7), FatalError);

    const KvHandle d{7, dest.admit(7, 100).slot};
    EXPECT_EQ(dest.requestBlocks(7), x.blocks);
    // Imported requests grow like any other.
    dest.grow(d, 100 + 64);
    EXPECT_EQ(dest.requestBlocks(7), dest.blocksForTokens(164));
    // Double-import of a live id is a ledger error, and so is a
    // second export through the spent handle.
    EXPECT_THROW(dest.admit(7, 10), FatalError);
    EXPECT_THROW(mgr.exportRequest(h), FatalError);
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

// ------------------------------------------------------ pool ledger

/**
 * Test-local pool reference: one used-block total for the whole
 * pool, written independently of the manager, with the prefix
 * cache's LRU and evict-before-fail rules restated on top.
 */
class PoolModel
{
  public:
    struct Holding
    {
        std::uint64_t tokens = 0;
        std::uint64_t blocks = 0;
    };

    PoolModel(std::uint64_t total_blocks, std::uint32_t block_tokens)
        : _capacity(total_blocks), _blockTokens(block_tokens)
    {}

    std::uint64_t
    blocksFor(std::uint64_t tokens) const
    {
        return (tokens + _blockTokens - 1) / _blockTokens;
    }

    std::uint64_t freeBlocks() const { return _capacity - used; }

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
        live[id] = Holding{};
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
            take(h, add);
        }
        h.tokens = tokens;
    }

    void
    release(std::uint64_t id)
    {
        used -= live.at(id).blocks;
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
                        take(h, add);
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
        take(h, need);
        lru.emplace_front(key, h);
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

    std::uint64_t used = 0;          ///< Blocks held (live + cached).
    std::uint64_t allocated = 0;     ///< Blocks ever handed out.
    std::uint64_t evictions = 0;     ///< Prefix entries evicted.
    std::uint64_t evictedBlocks = 0; ///< Blocks of evicted entries.
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
    take(Holding &h, std::uint64_t add)
    {
        used += add;
        allocated += add;
        h.blocks += add;
    }

    /** Evict LRU entries until @p need blocks are free. */
    void
    reclaim(std::uint64_t need)
    {
        while (freeBlocks() < need && !lru.empty()) {
            used -= lru.back().second.blocks;
            evictedBlocks += lru.back().second.blocks;
            ++evictions;
            lru.pop_back();
        }
    }

    std::uint64_t _capacity;
    std::uint32_t _blockTokens;
};

/**
 * Seeded churn of admits, 1-8-block grows, grows over a subset of
 * the live requests, releases, prefix inserts (new and re-inserted
 * keys) and lookups on a tight pool, so prefix entries are
 * LRU-evicted by growth and by other inserts. The manager is driven
 * through KvHandle slots (which released requests hand to later
 * admissions), the pool model by request id. After every operation
 * the manager's used and cached blocks, evicted bytes and every live
 * request's blocks must equal the model's, at small fleets and at
 * the platforms' 60 devices, and the manager's own ledger must
 * balance: used blocks == live request blocks + cached blocks.
 */
TEST(KvPoolLedger, ChurnMatchesIndependentModel)
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
    std::uint64_t slot_reuses = 0;
    std::uint64_t multi_grows = 0; // subset ops over 2+ requests
    for (std::size_t round = 0; round < fleets.size(); ++round) {
        const std::uint32_t devices = fleets[round];
        const std::uint64_t per_device = 6 + rnd(10);
        KvCacheManager mgr(m, devices, per_device * block_bytes, bt);
        mgr.setPrefixCacheEnabled(true);
        PoolModel ref(per_device * devices, bt);
        // Footprints scale with the fleet so the pool stays tight.
        const std::uint64_t max_blocks =
            std::max<std::uint64_t>(12, per_device * devices / 6);
        std::map<std::uint64_t, std::uint32_t> slot_of; // live ids
        std::vector<bool> slot_used;
        std::uint64_t next_id = 1;
        // A random live request's handle.
        const auto pick = [&]() {
            auto it = slot_of.begin();
            std::advance(it, static_cast<long>(rnd(slot_of.size())));
            return KvHandle{it->first, it->second};
        };
        // Tokens that grow request @p id by exactly @p k blocks.
        const auto grown = [&](std::uint64_t id, std::uint64_t k) {
            return ref.live.at(id).blocks * bt + (k - 1) * bt + 1 +
                   rnd(bt);
        };
        const int ops = devices >= 60 ? 3000 : 600;

        for (int op = 0; op < ops; ++op) {
            const std::uint64_t kind = rnd(100);
            if (kind < 25) {
                const std::uint64_t tokens = 1 + rnd(max_blocks * bt);
                if (!ref.fits(ref.blocksFor(tokens)))
                    continue;
                const KvAdmission a = mgr.admit(next_id, tokens);
                ref.admit(next_id, tokens);
                ASSERT_EQ(a.blocks, ref.live.at(next_id).blocks);
                if (a.slot >= slot_used.size())
                    slot_used.resize(a.slot + 1, false);
                slot_reuses += slot_used[a.slot];
                slot_used[a.slot] = true;
                slot_of[next_id] = a.slot;
                ++next_id;
            } else if (kind < 50) {
                if (slot_of.empty())
                    continue;
                const KvHandle h = pick();
                const std::uint64_t k = 1 + rnd(8);
                if (!ref.fits(k))
                    continue;
                const std::uint64_t tokens = grown(h.id, k);
                mgr.grow(h, tokens);
                ref.grow(h.id, tokens);
            } else if (kind < 60) {
                // Grows over an admission-ordered subset, one handle
                // after another (a decode iteration's sequence),
                // against per-id grows in the same order.
                std::vector<KvHandle> handles;
                std::vector<std::uint64_t> toks;
                std::uint64_t add = 0;
                for (const auto &[id, slot] : slot_of) {
                    const std::uint64_t k = 1 + rnd(2);
                    if (rnd(2) == 0 || !ref.fits(add + k))
                        continue;
                    add += k;
                    handles.push_back(KvHandle{id, slot});
                    toks.push_back(grown(id, k));
                }
                multi_grows += handles.size() > 1;
                for (std::size_t j = 0; j < handles.size(); ++j) {
                    const std::uint64_t blocks =
                        mgr.grow(handles[j], toks[j]);
                    ref.grow(handles[j].id, toks[j]);
                    ASSERT_EQ(blocks, ref.live.at(handles[j].id).blocks);
                }
            } else if (kind < 78) {
                if (slot_of.empty())
                    continue;
                const KvHandle h = pick();
                mgr.release(h);
                ref.release(h.id);
                slot_of.erase(h.id);
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
            SCOPED_TRACE("round " + std::to_string(round) + " (" +
                         std::to_string(devices) + " devices), op " +
                         std::to_string(op));
            const KvOccupancy occ = mgr.occupancy();
            ASSERT_EQ(occ.usedBlocks, ref.used);
            ASSERT_EQ(mgr.freeBlocks(), ref.freeBlocks());
            ASSERT_EQ(mgr.cachedBlocks(), ref.cachedBlocks());
            ASSERT_EQ(mgr.prefixEntries(), ref.lru.size());
            ASSERT_EQ(mgr.prefixEvictedBytes(),
                      ref.evictedBlocks * block_bytes);
            ASSERT_EQ(mgr.prefixEvictions(), ref.evictions);
            ASSERT_EQ(mgr.blocksAllocated(), ref.allocated);
            ASSERT_EQ(mgr.liveRequests(), ref.live.size());
            std::uint64_t live_blocks = 0;
            for (const auto &[id, held] : ref.live) {
                ASSERT_EQ(mgr.requestBlocks(id), held.blocks);
                live_blocks += mgr.requestBlocks(id);
            }
            // The KV ledger, read off the manager alone.
            ASSERT_EQ(occ.usedBlocks, live_blocks + occ.cachedBlocks);
        }
        evicted_bytes += mgr.prefixEvictedBytes();
    }
    // The churn must exercise LRU eviction, slot reuse and grows of
    // several requests in one op.
    EXPECT_GT(evicted_bytes, 0u);
    EXPECT_GT(slot_reuses, 0u);
    EXPECT_GT(multi_grows, 0u);
}

// ------------------------------------------------------ KV handles

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
    const std::uint64_t free = mgr.freeBlocks();

    EXPECT_THROW(mgr.grow(stale, 64), FatalError);
    EXPECT_THROW(mgr.release(stale), FatalError);
    EXPECT_THROW(mgr.exportRequest(stale), FatalError);
    // Request 2 kept its blocks through every rejected call.
    EXPECT_EQ(mgr.freeBlocks(), free);
    EXPECT_EQ(mgr.occupancy().usedBlocks, 2u);
    EXPECT_EQ(mgr.liveRequests(), 1u);
    EXPECT_EQ(mgr.requestBlocks(2), 2u);

    // A released slot nobody reused, and a slot never handed out.
    const KvHandle second_handle{2, second.slot};
    mgr.release(second_handle);
    EXPECT_THROW(mgr.grow(second_handle, 64), FatalError);
    EXPECT_THROW(mgr.release(KvHandle{2, 99}), FatalError);
    EXPECT_EQ(mgr.liveRequests(), 0u);
}

} // namespace
