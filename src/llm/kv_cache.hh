/**
 * @file
 * Block-granular KV-cache allocation across the Attn-PIM fleet.
 *
 * The disaggregated Attn-PIM devices exist to house the growing KV
 * footprint (paper Section 6.2). This allocator manages that
 * capacity the way a serving system would: per-request block lists
 * allocated from per-device free pools, grown as decoding extends
 * the context, and released at <eos>. It provides the admission
 * signal for continuous batching (canAdmit) and occupancy stats,
 * plus the growth-headroom query (growthBlocks vs freeBlocks) a
 * KV-pressure preemption policy needs to decide *before* an
 * iteration whether the batch's worst-case growth still fits or a
 * victim must be evicted (release doubles as the eviction
 * primitive - preempted requests simply return their blocks).
 *
 * Placement is deterministic: every allocated block goes to the
 * least-loaded device, lowest index on ties. A multi-block grow is
 * therefore a water-filling of the per-device load levels, and
 * grow() computes that fill in closed form instead of scanning the
 * fleet once per block - the resulting distribution is bit-identical
 * to the block-at-a-time loop (pinned by a fuzz test). Small grows
 * place block by block but pay no fleet scan either: the current
 * pick is kept and advanced to the next device at its level (a
 * forward walk that amortizes to O(1) per block while the levels
 * stay water-filled), and only release, prefix eviction, or a bulk
 * fill force one rescan (pinned against an independent scan model
 * by a churn test). Each live request owns a slot in a pool whose
 * per-device vectors are reused across occupants. admit() and
 * importRequest() hand the slot back as a KvHandle, and the hot
 * calls (grow, growMany, release, exportRequest) index it directly:
 * a per-iteration grow costs no hash lookup. A slot records its
 * request id, so a stale handle (its slot released, perhaps reused)
 * is fatal, as an unknown id is. The id -> slot map remains for the
 * duplicate-id check at admission and the id-keyed overloads.
 * Used-block totals are maintained incrementally so freeBlocks() /
 * canAdmit() / utilization() are O(1) - these run inside the serving
 * simulator's per-iteration admission gate.
 *
 * On top of the per-request pools sits an optional shared prefix
 * cache (off by default; setPrefixCacheEnabled). Entries are
 * block-granular KV spans keyed by a caller-chosen 64-bit identity
 * (llm::Request::prefixKey) and held in an LRU list. Cached blocks
 * come from the same per-device pools as live requests, but they
 * are *reclaimable*: canAdmit() counts them as available headroom,
 * and growState() evicts LRU entries before declaring the pool
 * exhausted - cached prefixes are strictly evict-before-preempt
 * victims, so enabling the cache can never preempt a request the
 * uncached pool would have served. A lookup hit is block-aligned
 * down (whole cached blocks only), which keeps the "disaggregated
 * handoff shrinks by exactly the hit blocks" ledger exact. With the
 * cache disabled (or simply never inserted into) every code path
 * is integer-identical to the pre-cache manager.
 */

#ifndef PAPI_LLM_KV_CACHE_HH
#define PAPI_LLM_KV_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "llm/model_config.hh"

namespace papi::llm {

/** Occupancy snapshot of the KV pool. */
struct KvOccupancy
{
    std::uint64_t totalBlocks = 0;
    std::uint64_t usedBlocks = 0;
    std::uint64_t requests = 0;
    /** Of usedBlocks, blocks held by shared-prefix cache entries
     *  (reclaimable under pressure). */
    std::uint64_t cachedBlocks = 0;
    /** Max/mean used blocks across devices (balance quality). */
    double deviceImbalance = 1.0;

    double
    utilization() const
    {
        return totalBlocks
                   ? static_cast<double>(usedBlocks) /
                         static_cast<double>(totalBlocks)
                   : 0.0;
    }
};

/**
 * Per-device capacity (bytes) that gives a fleet of
 * @p num_devices attention devices a pool of roughly @p tokens
 * tokens of @p model context - the conversion behind
 * core::ServingOptions::kvCapacityOverrideBytes, shared by the
 * tests/bench/examples that force KV pressure.
 */
inline std::uint64_t
kvPoolBytesPerDevice(const ModelConfig &model, std::uint64_t tokens,
                     std::uint32_t num_devices)
{
    return tokens * model.kvBytesPerToken() / num_devices;
}

/**
 * Snapshot of one request's KV holdings, taken when the request
 * migrates to another pool (disaggregated prefill -> decode
 * handoff). The byte count is what the transfer fabric moves.
 */
struct KvExport
{
    std::uint64_t tokens = 0; ///< Context tokens materialized.
    std::uint64_t blocks = 0; ///< Blocks held at export.
    std::uint64_t bytes = 0;  ///< blocks x blockBytes().
};

/** "No slot" marker for requests that hold no KV (static-batch
 *  runs bypass the allocator). */
inline constexpr std::uint32_t kNoKvSlot = 0xffffffffu;

/**
 * A live request's handle: the slot admit() or importRequest() put
 * it in, plus the id that slot must still hold. Handle calls index
 * the slot directly instead of looking the id up.
 */
struct KvHandle
{
    std::uint64_t id = 0;           ///< Request id the slot must hold.
    std::uint32_t slot = kNoKvSlot; ///< Slot from KvAdmission.
};

/** Outcome of an admission or import: the request's slot and the
 *  blocks it holds. */
struct KvAdmission
{
    std::uint32_t slot = kNoKvSlot; ///< Handle slot (see KvHandle).
    std::uint64_t blocks = 0;       ///< Blocks held after admission.
};

/** KV-cache capacity manager for a fleet of attention devices. */
class KvCacheManager
{
  public:
    /**
     * @param model Model whose KV vectors are stored.
     * @param num_devices Attention devices in the fleet.
     * @param device_capacity_bytes Capacity of each device.
     * @param block_tokens Tokens per allocation block (paged-KV
     *        granularity; 16 is typical).
     */
    KvCacheManager(const ModelConfig &model, std::uint32_t num_devices,
                   std::uint64_t device_capacity_bytes,
                   std::uint32_t block_tokens = 16);

    /** Bytes one block occupies (all layers, K+V). */
    std::uint64_t blockBytes() const { return _blockBytes; }

    /** Tokens per allocation block (paged-KV granularity). */
    std::uint32_t blockTokens() const { return _blockTokens; }

    /** Blocks needed to hold @p tokens tokens of context. */
    std::uint64_t blocksForTokens(std::uint64_t tokens) const;

    /**
     * True if a request with @p max_tokens worst-case context fits
     * right now (used as the admission check).
     */
    bool canAdmit(std::uint64_t max_tokens) const;

    /**
     * Register request @p id with an initial context of
     * @p initial_tokens (the prompt). Fatal if it does not fit or
     * the id is already live.
     * @return The request's slot and the blocks held after
     *         admission.
     */
    KvAdmission admit(std::uint64_t id, std::uint64_t initial_tokens);

    /**
     * Grow request @p id's context to @p new_tokens, allocating
     * blocks as needed (least-loaded device first). Fatal if the
     * pool is exhausted - callers must gate admissions with
     * canAdmit on the worst case.
     * @return Blocks held after the grow.
     */
    std::uint64_t grow(std::uint64_t id, std::uint64_t new_tokens);

    /** grow() through a handle (fatal if the handle is stale). */
    std::uint64_t grow(KvHandle h, std::uint64_t new_tokens);

    /**
     * Bulk grow over parallel slot/id/token arrays (the serving
     * simulator's per-iteration KV materialization): equivalent to
     * grow(KvHandle{ids[i], slots[i]}, new_tokens[i]) for i in
     * order, writing the resulting block counts to
     * @p blocks_out[i]. One call per iteration instead of one per
     * request keeps the structure-of-arrays hot loop free of
     * per-element function-call overhead.
     */
    void growMany(const std::uint32_t *slots, const std::uint64_t *ids,
                  const std::uint64_t *new_tokens,
                  std::uint64_t *blocks_out, std::size_t n);

    /** Release all blocks of request @p id (at <eos>, or when the
     *  request is preempted under KV pressure). */
    void release(std::uint64_t id);

    /** release() through a handle (fatal if the handle is stale). */
    void release(KvHandle h);

    /** Blocks currently held by request @p id (fatal if the id is
     *  not live). */
    std::uint64_t requestBlocks(std::uint64_t id) const;

    /** Tokens currently materialized for request @p id (fatal if
     *  the id is not live). */
    std::uint64_t requestTokens(std::uint64_t id) const;

    /**
     * Export a live request's blocks for migration to another pool:
     * snapshot its token/block/byte footprint, then release the
     * blocks here (the transfer fabric buffers the data in flight).
     * Fatal if the id is not live.
     */
    KvExport exportRequest(std::uint64_t id);

    /** exportRequest() through a handle (fatal if it is stale). */
    KvExport exportRequest(KvHandle h);

    /**
     * Import a migrated request into this pool: admit @p id with
     * @p tokens of context already materialized. Fatal if the id is
     * already live or the pool cannot hold the footprint - callers
     * gate with canAdmit()/freeBlocks() first.
     * @return The request's slot and the blocks held after the
     *         import.
     */
    KvAdmission importRequest(std::uint64_t id, std::uint64_t tokens);

    /**
     * Additional blocks a grow of request @p id to @p new_tokens
     * would allocate (0 if the new context still fits the held
     * blocks) - summed against freeBlocks(), this is the
     * per-iteration headroom check of a preemption policy. Fatal if
     * the id is not live.
     */
    std::uint64_t growthBlocks(std::uint64_t id,
                               std::uint64_t new_tokens) const;

    /** Live request count. */
    std::uint64_t liveRequests() const { return _requests.size(); }

    /** Current occupancy snapshot. */
    KvOccupancy occupancy() const;

    /** Pool utilization in [0, 1]; O(1) (bitwise equal to
     *  occupancy().utilization()). */
    double
    utilization() const
    {
        const std::uint64_t total =
            _blocksPerDevice * _usedPerDevice.size();
        return total ? static_cast<double>(_usedTotal) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Free blocks remaining across the fleet; O(1). */
    std::uint64_t
    freeBlocks() const
    {
        return _blocksPerDevice * _usedPerDevice.size() - _usedTotal;
    }

    /** Used blocks per attention device (placement-visible state;
     *  lets tests assert the bulk water-filling allocator matches
     *  the sequential least-loaded definition exactly). */
    const std::vector<std::uint64_t> &
    usedPerDevice() const
    {
        return _usedPerDevice;
    }

    // ---- shared prefix cache (see file comment) ----

    /** Enable/disable the shared prefix cache. Disabled (the
     *  default), lookups miss and inserts are dropped, and the
     *  manager is integer-identical to the pre-cache code. */
    void setPrefixCacheEnabled(bool on) { _prefixEnabled = on; }

    /** True if the shared prefix cache is enabled. */
    bool prefixCacheEnabled() const { return _prefixEnabled; }

    /**
     * Look up cached KV under @p key for a prompt of
     * @p max_tokens tokens and mark the entry most-recently-used.
     * @return Reusable leading tokens: min(cached span, max_tokens)
     *         aligned *down* to a block boundary (whole cached
     *         blocks only); 0 on miss or when disabled.
     */
    std::uint64_t prefixLookup(std::uint64_t key,
                               std::uint64_t max_tokens);

    /** prefixLookup() without the LRU touch - the side-effect-free
     *  probe cache-hit-aware routers call on every candidate
     *  replica. */
    std::uint64_t peekPrefixHit(std::uint64_t key,
                                std::uint64_t max_tokens) const;

    /**
     * Cache @p tokens tokens of KV under @p key (at request
     * completion / handoff). Best-effort: LRU entries are evicted
     * to make room, but live requests are never disturbed - if the
     * pool is too hot even after evicting every other entry, the
     * insert is dropped. Re-inserting an existing key refreshes its
     * LRU position and extends the cached span if @p tokens grew.
     * No-op when disabled, @p key is 0, or @p tokens is 0.
     */
    void prefixInsert(std::uint64_t key, std::uint64_t tokens);

    /** Blocks currently held by prefix-cache entries; O(1). */
    std::uint64_t cachedBlocks() const { return _cachedBlocks; }

    /** Blocks obtainable without preempting a request: free blocks
     *  plus reclaimable cached blocks; O(1). The admission /
     *  headroom checks of a prefix-cache-aware engine compare
     *  against this instead of freeBlocks(). */
    std::uint64_t
    availableBlocks() const
    {
        return freeBlocks() + _cachedBlocks;
    }

    /**
     * Evict LRU prefix entries until freeBlocks() >= @p need (or
     * the cache is empty). The evict-before-preempt hook: engines
     * call this before choosing a preemption victim.
     * @return Blocks reclaimed.
     */
    std::uint64_t reclaimPrefixBlocks(std::uint64_t need);

    /** Live prefix-cache entries. */
    std::uint64_t prefixEntries() const { return _prefixIndex.size(); }

    /** Cumulative bytes evicted from the prefix cache (LRU +
     *  pressure reclaim) over the manager's lifetime. */
    std::uint64_t prefixEvictedBytes() const
    {
        return _prefixEvictedBytes;
    }

  private:
    struct RequestState
    {
        std::uint64_t tokens = 0;
        std::uint64_t blocks = 0;
        /** Blocks held per device index. */
        std::vector<std::uint64_t> perDevice;
    };

    /** A request slot: its occupant's holdings and identity. */
    struct RequestSlot
    {
        RequestState state;
        std::uint64_t id = 0; ///< Occupant's id (valid while live).
        bool live = false;    ///< True while a request occupies it.
    };

    /** Locate @p id's slot index (fatal if not live). */
    std::uint32_t slotOf(std::uint64_t id) const;
    /** @p h's slot index, after checking the slot is live and holds
     *  h.id (fatal otherwise). */
    std::uint32_t slotOf(KvHandle h) const;

    /** release() body on a located slot. */
    void releaseSlot(std::uint32_t slot);

    /** Allocate @p add blocks into @p state, least-loaded device
     *  first, lowest index on ties (caller checked capacity). */
    void allocBlocks(RequestState &state, std::uint64_t add);

    /** Least-used device, lowest index on ties: an O(n) scan. */
    std::uint32_t scanLeastUsed() const;

    /** The pick after one block went to @p placed, the lowest-index
     *  device at the fleet minimum @p level, without a full scan. */
    std::uint32_t nextPick(std::uint32_t placed,
                           std::uint64_t level) const;

    /** grow() body on a located slot. */
    std::uint64_t growState(std::uint64_t id, RequestState &state,
                            std::uint64_t new_tokens);

    /** "No entry" sentinel for the prefix-cache LRU links. */
    static constexpr std::uint32_t kNoEntry = 0xffffffffu;

    /** One shared-prefix cache entry (intrusive LRU links). */
    struct PrefixEntry
    {
        std::uint64_t key = 0;
        RequestState state;
        std::uint32_t lruPrev = kNoEntry;
        std::uint32_t lruNext = kNoEntry;
    };

    /** Remove @p slot from the LRU list. */
    void lruUnlink(std::uint32_t slot);
    /** Insert @p slot at the most-recently-used end. */
    void lruPushFront(std::uint32_t slot);
    /** Return @p slot's blocks to the pool and retire the entry. */
    void evictPrefixSlot(std::uint32_t slot);

    std::uint64_t _blockBytes;
    std::uint32_t _blockTokens;
    std::uint64_t _blocksPerDevice;
    std::uint64_t _usedTotal = 0;
    std::vector<std::uint64_t> _usedPerDevice;
    /** "No pick" sentinel: the levels moved, rescan on next use. */
    static constexpr std::uint32_t kNoPick = 0xffffffffu;
    /** Device the next small-grow block goes to (scanLeastUsed()'s
     *  answer), or kNoPick. */
    std::uint32_t _pick = kNoPick;
    /** id -> slot index into _slots. */
    // detlint: allow(unordered-decl): keyed find/emplace/erase by
    // request id only - the duplicate-id check in admit(), the
    // erase at release, and the id-keyed overloads the tests and
    // the frozen reference engine call (the serving hot path goes
    // through KvHandle slots); size() feeds liveRequests()/
    // occupancy() as a scalar count. Never iterated - per-request
    // block placement order lives in the _slots vectors.
    std::unordered_map<std::uint64_t, std::uint32_t> _requests;
    /** Slot pool: per-device vectors are retained across occupants
     *  so a steady-state admit/release cycle does not allocate. */
    std::vector<RequestSlot> _slots;
    std::vector<std::uint32_t> _freeSlots;

    // ---- shared prefix cache ----
    bool _prefixEnabled = false;
    std::uint64_t _cachedBlocks = 0;
    std::uint64_t _prefixEvictedBytes = 0;
    /** prefix key -> slot index into _prefixSlots. */
    // detlint: allow(unordered-decl): keyed find/emplace/erase by
    // prefix hash only; never iterated. Recency (and therefore LRU
    // eviction order) lives in the intrusive _lruHead/_lruTail list
    // over _prefixSlots, so reclaim order is insertion-history
    // determined, not bucket-order determined.
    std::unordered_map<std::uint64_t, std::uint32_t> _prefixIndex;
    /** Entry pool (per-device vectors retained across occupants). */
    std::vector<PrefixEntry> _prefixSlots;
    std::vector<std::uint32_t> _freePrefixSlots;
    std::uint32_t _lruHead = kNoEntry; ///< Most recently used.
    std::uint32_t _lruTail = kNoEntry; ///< Eviction victim.
};

} // namespace papi::llm

#endif // PAPI_LLM_KV_CACHE_HH
