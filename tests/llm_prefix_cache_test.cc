/**
 * @file
 * Unit tests for the shared prefix-cache layer of the block-granular
 * KV-cache allocator: block-aligned hits, LRU promotion/eviction
 * order, evict-before-preempt reclamation, eviction-byte accounting,
 * and the disabled-is-inert contract.
 */

#include <gtest/gtest.h>

#include "llm/kv_cache.hh"
#include "llm/model_config.hh"

namespace {

using namespace papi::llm;

/** A deliberately tiny pool (one device, 8 blocks of 16 tokens) so
 *  every test controls occupancy exactly. */
class PrefixCacheTest : public ::testing::Test
{
  protected:
    PrefixCacheTest()
        : model(opt30b()),
          mgr(model, /*devices=*/1,
              /*capacity=*/8 * 16 * opt30b().kvBytesPerToken(),
              /*block_tokens=*/16)
    {}

    ModelConfig model;
    KvCacheManager mgr;
};

TEST_F(PrefixCacheTest, DisabledIsInert)
{
    const std::uint64_t free_before = mgr.freeBlocks();
    EXPECT_FALSE(mgr.prefixCacheEnabled());
    mgr.prefixInsert(7, 64); // dropped silently
    EXPECT_EQ(mgr.prefixEntries(), 0u);
    EXPECT_EQ(mgr.cachedBlocks(), 0u);
    EXPECT_EQ(mgr.prefixLookup(7, 64), 0u);
    EXPECT_EQ(mgr.peekPrefixHit(7, 64), 0u);
    EXPECT_EQ(mgr.freeBlocks(), free_before);
    // The prefix-aware headroom query degenerates to freeBlocks().
    EXPECT_EQ(mgr.availableBlocks(), mgr.freeBlocks());
    EXPECT_EQ(mgr.prefixEvictedBytes(), 0u);
}

TEST_F(PrefixCacheTest, HitsAreBlockAlignedDown)
{
    mgr.setPrefixCacheEnabled(true);
    const std::uint64_t free_before = mgr.freeBlocks();
    mgr.prefixInsert(7, 40); // 40 tokens -> 3 blocks, span 40
    EXPECT_EQ(mgr.prefixEntries(), 1u);
    EXPECT_EQ(mgr.cachedBlocks(), 3u);
    EXPECT_EQ(mgr.freeBlocks(), free_before - 3);
    EXPECT_EQ(mgr.availableBlocks(), free_before);

    // min(span, max_tokens) floored to whole cached blocks: the
    // partial tail block never counts as a hit.
    EXPECT_EQ(mgr.peekPrefixHit(7, 1000), 32u);
    EXPECT_EQ(mgr.peekPrefixHit(7, 40), 32u);
    EXPECT_EQ(mgr.peekPrefixHit(7, 33), 32u);
    EXPECT_EQ(mgr.peekPrefixHit(7, 31), 16u);
    EXPECT_EQ(mgr.peekPrefixHit(7, 16), 16u);
    EXPECT_EQ(mgr.peekPrefixHit(7, 15), 0u);
    // Unknown keys and the 0 sentinel miss.
    EXPECT_EQ(mgr.peekPrefixHit(8, 1000), 0u);
    EXPECT_EQ(mgr.peekPrefixHit(0, 1000), 0u);
    // The LRU-touching form agrees with the pure probe.
    EXPECT_EQ(mgr.prefixLookup(7, 1000), 32u);
}

TEST_F(PrefixCacheTest, LookupPromotesAgainstEviction)
{
    mgr.setPrefixCacheEnabled(true);
    mgr.prefixInsert(1, 32); // A: 2 blocks
    mgr.prefixInsert(2, 32); // B: 2 blocks
    mgr.prefixInsert(3, 32); // C: 2 blocks
    EXPECT_EQ(mgr.cachedBlocks(), 6u);

    // Promote A to most-recently-used; B becomes the LRU victim.
    EXPECT_EQ(mgr.prefixLookup(1, 32), 32u);
    const std::uint64_t need = mgr.freeBlocks() + 2;
    EXPECT_EQ(mgr.reclaimPrefixBlocks(need), 2u);
    EXPECT_EQ(mgr.prefixEntries(), 2u);
    EXPECT_EQ(mgr.peekPrefixHit(2, 32), 0u); // B evicted
    EXPECT_EQ(mgr.peekPrefixHit(1, 32), 32u);
    EXPECT_EQ(mgr.peekPrefixHit(3, 32), 32u);
    EXPECT_EQ(mgr.prefixEvictedBytes(), 2 * mgr.blockBytes());
}

TEST_F(PrefixCacheTest, AdmissionReclaimsCacheBeforeFailing)
{
    mgr.setPrefixCacheEnabled(true);
    mgr.prefixInsert(5, 6 * 16); // 6 of 8 blocks cached
    EXPECT_EQ(mgr.freeBlocks(), 2u);
    // Cached blocks count as admission headroom...
    EXPECT_TRUE(mgr.canAdmit(8 * 16));
    // ...and a grow past the free pool evicts cache entries instead
    // of dying (the evict-before-preempt primitive).
    EXPECT_EQ(mgr.admit(9, 8 * 16).blocks, 8u);
    EXPECT_EQ(mgr.cachedBlocks(), 0u);
    EXPECT_EQ(mgr.prefixEntries(), 0u);
    EXPECT_EQ(mgr.prefixEvictedBytes(), 6 * mgr.blockBytes());
    mgr.release(9);
}

TEST_F(PrefixCacheTest, InsertDroppedWhenPoolTooHot)
{
    mgr.setPrefixCacheEnabled(true);
    mgr.admit(1, 7 * 16); // live request holds 7 of 8 blocks
    mgr.prefixInsert(5, 33); // needs 3 blocks, only 1 free
    // Live requests are never disturbed: the insert is dropped.
    EXPECT_EQ(mgr.prefixEntries(), 0u);
    EXPECT_EQ(mgr.cachedBlocks(), 0u);
    EXPECT_EQ(mgr.requestBlocks(1), 7u);
    mgr.release(1);
}

TEST_F(PrefixCacheTest, ReinsertExtendsSpanAndRefreshes)
{
    mgr.setPrefixCacheEnabled(true);
    mgr.prefixInsert(4, 20); // 2 blocks, span 20
    EXPECT_EQ(mgr.peekPrefixHit(4, 64), 16u);
    mgr.prefixInsert(4, 50); // extend to 4 blocks, span 50
    EXPECT_EQ(mgr.prefixEntries(), 1u);
    EXPECT_EQ(mgr.cachedBlocks(), 4u);
    EXPECT_EQ(mgr.peekPrefixHit(4, 64), 48u);
    // Shrinking re-inserts keep the longer cached span.
    mgr.prefixInsert(4, 20);
    EXPECT_EQ(mgr.peekPrefixHit(4, 64), 48u);
}

} // namespace
