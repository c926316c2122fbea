#include "llm/kv_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace papi::llm {

KvCacheManager::KvCacheManager(const ModelConfig &model,
                               std::uint32_t num_devices,
                               std::uint64_t device_capacity_bytes,
                               std::uint32_t block_tokens)
    : _blockBytes(static_cast<std::uint64_t>(block_tokens) *
                  model.kvBytesPerToken()),
      _blockTokens(block_tokens)
{
    if (num_devices == 0)
        sim::fatal("KvCacheManager: zero devices");
    if (block_tokens == 0)
        sim::fatal("KvCacheManager: zero block size");
    if (_blockBytes == 0 || _blockBytes > device_capacity_bytes)
        sim::fatal("KvCacheManager: block (", _blockBytes,
                   " B) does not fit a device (",
                   device_capacity_bytes, " B)");
    _totalBlocks = device_capacity_bytes / _blockBytes * num_devices;
}

std::uint64_t
KvCacheManager::blocksForTokens(std::uint64_t tokens) const
{
    return (tokens + _blockTokens - 1) / _blockTokens;
}

bool
KvCacheManager::canAdmit(std::uint64_t max_tokens) const
{
    // Cached prefix blocks are reclaimable (evicted before any
    // request is preempted), so they count as admission headroom.
    // With the cache empty this is exactly the pre-cache check.
    return blocksForTokens(max_tokens) <= availableBlocks();
}

std::uint32_t
KvCacheManager::slotOf(std::uint64_t id) const
{
    auto it = _requests.find(id);
    if (it == _requests.end())
        sim::fatal("KvCacheManager: unknown request ", id);
    return it->second;
}

std::uint32_t
KvCacheManager::slotOf(KvHandle h) const
{
    if (h.slot >= _slots.size() || !_slots[h.slot].live ||
        _slots[h.slot].id != h.id)
        sim::fatal("KvCacheManager: stale handle (request ", h.id,
                   ", slot ", h.slot, ")");
    return h.slot;
}

void
KvCacheManager::allocBlocks(RequestState &state, std::uint64_t add)
{
    state.blocks += add;
    _usedTotal += add;
    _blocksAllocated += add;
}

std::uint64_t
KvCacheManager::growState(std::uint64_t id, RequestState &state,
                          std::uint64_t new_tokens)
{
    if (new_tokens < state.tokens)
        sim::fatal("KvCacheManager: context cannot shrink (", id,
                   ")");
    const std::uint64_t need = blocksForTokens(new_tokens);
    if (need > state.blocks) {
        const std::uint64_t add = need - state.blocks;
        // Cached prefixes are evict-before-preempt victims: drain
        // the LRU before declaring the pool exhausted. No-op (and
        // integer-identical to the pre-cache path) when the cache
        // is empty.
        if (add > freeBlocks())
            reclaimPrefixBlocks(add);
        if (add > freeBlocks())
            sim::fatal("KvCacheManager: pool exhausted growing "
                       "request ", id);
        allocBlocks(state, add);
    }
    state.tokens = new_tokens;
    return state.blocks;
}

KvAdmission
KvCacheManager::admit(std::uint64_t id, std::uint64_t initial_tokens)
{
    if (_requests.count(id))
        sim::fatal("KvCacheManager: request ", id, " already live");
    std::uint32_t slot;
    if (!_freeSlots.empty()) {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(_slots.size());
        _slots.emplace_back();
    }
    RequestSlot &s = _slots[slot];
    s.id = id;
    s.live = true;
    RequestState &state = s.state;
    state.tokens = 0;
    state.blocks = 0;
    _requests.emplace(id, slot);
    KvAdmission out;
    out.slot = slot;
    out.blocks = growState(id, state,
                           std::max<std::uint64_t>(initial_tokens, 1));
    return out;
}

std::uint64_t
KvCacheManager::grow(KvHandle h, std::uint64_t new_tokens)
{
    RequestState &state = _slots[slotOf(h)].state;
    const std::uint64_t held = state.blocks;
    ++_growCalls;
    growState(h.id, state, new_tokens);
    _blocksGrown += state.blocks - held;
    return state.blocks;
}

std::uint64_t
KvCacheManager::requestBlocks(std::uint64_t id) const
{
    return _slots[slotOf(id)].state.blocks;
}

KvExport
KvCacheManager::exportRequest(KvHandle h)
{
    const std::uint32_t slot = slotOf(h);
    const RequestState &state = _slots[slot].state;
    KvExport out;
    out.blocks = state.blocks;
    out.bytes = state.blocks * _blockBytes;
    releaseSlot(slot);
    return out;
}

void
KvCacheManager::release(KvHandle h)
{
    releaseSlot(slotOf(h));
}

void
KvCacheManager::releaseSlot(std::uint32_t slot)
{
    RequestSlot &s = _slots[slot];
    RequestState &state = s.state;
    if (state.blocks > _usedTotal)
        sim::panic("KvCacheManager: accounting underflow");
    _usedTotal -= state.blocks;
    state.tokens = 0;
    state.blocks = 0;
    s.live = false;
    _freeSlots.push_back(slot);
    _requests.erase(s.id);
}

void
KvCacheManager::lruUnlink(std::uint32_t slot)
{
    PrefixEntry &e = _prefixSlots[slot];
    if (e.lruPrev != kNoEntry)
        _prefixSlots[e.lruPrev].lruNext = e.lruNext;
    else
        _lruHead = e.lruNext;
    if (e.lruNext != kNoEntry)
        _prefixSlots[e.lruNext].lruPrev = e.lruPrev;
    else
        _lruTail = e.lruPrev;
    e.lruPrev = kNoEntry;
    e.lruNext = kNoEntry;
}

void
KvCacheManager::lruPushFront(std::uint32_t slot)
{
    PrefixEntry &e = _prefixSlots[slot];
    e.lruPrev = kNoEntry;
    e.lruNext = _lruHead;
    if (_lruHead != kNoEntry)
        _prefixSlots[_lruHead].lruPrev = slot;
    _lruHead = slot;
    if (_lruTail == kNoEntry)
        _lruTail = slot;
}

void
KvCacheManager::evictPrefixSlot(std::uint32_t slot)
{
    PrefixEntry &e = _prefixSlots[slot];
    lruUnlink(slot);
    RequestState &state = e.state;
    if (state.blocks > _usedTotal)
        sim::panic("KvCacheManager: prefix accounting underflow");
    _usedTotal -= state.blocks;
    ++_prefixEvictions;
    _cachedBlocks -= state.blocks;
    _prefixEvictedBytes += state.blocks * _blockBytes;
    _prefixIndex.erase(e.key);
    e.key = 0;
    state.tokens = 0;
    state.blocks = 0;
    _freePrefixSlots.push_back(slot);
}

std::uint64_t
KvCacheManager::reclaimPrefixBlocks(std::uint64_t need)
{
    std::uint64_t reclaimed = 0;
    while (freeBlocks() < need && _lruTail != kNoEntry) {
        reclaimed += _prefixSlots[_lruTail].state.blocks;
        evictPrefixSlot(_lruTail);
    }
    return reclaimed;
}

std::uint64_t
KvCacheManager::peekPrefixHit(std::uint64_t key,
                              std::uint64_t max_tokens) const
{
    if (!_prefixEnabled || key == 0)
        return 0;
    auto it = _prefixIndex.find(key);
    if (it == _prefixIndex.end())
        return 0;
    const std::uint64_t span = _prefixSlots[it->second].state.tokens;
    const std::uint64_t hit = span < max_tokens ? span : max_tokens;
    // Whole cached blocks only: a partial tail block still has to
    // be recomputed, so it does not count as a hit.
    return hit - hit % _blockTokens;
}

std::uint64_t
KvCacheManager::prefixLookup(std::uint64_t key,
                             std::uint64_t max_tokens)
{
    const std::uint64_t hit = peekPrefixHit(key, max_tokens);
    if (hit == 0)
        return 0;
    const std::uint32_t slot = _prefixIndex.find(key)->second;
    lruUnlink(slot);
    lruPushFront(slot);
    return hit;
}

void
KvCacheManager::prefixInsert(std::uint64_t key, std::uint64_t tokens)
{
    if (!_prefixEnabled || key == 0 || tokens == 0)
        return;
    auto it = _prefixIndex.find(key);
    if (it != _prefixIndex.end()) {
        // Refresh an existing entry: move to the MRU end and extend
        // the cached span if it grew. Unlinking first keeps the
        // entry itself out of any reclaim the extension triggers.
        const std::uint32_t slot = it->second;
        PrefixEntry &e = _prefixSlots[slot];
        lruUnlink(slot);
        if (tokens > e.state.tokens) {
            const std::uint64_t need = blocksForTokens(tokens);
            if (need > e.state.blocks) {
                const std::uint64_t add = need - e.state.blocks;
                if (add > freeBlocks())
                    reclaimPrefixBlocks(add);
                if (add <= freeBlocks()) {
                    allocBlocks(e.state, add);
                    _cachedBlocks += add;
                    e.state.tokens = tokens;
                }
                // Else keep the shorter cached span.
            } else {
                e.state.tokens = tokens;
            }
        }
        lruPushFront(slot);
        return;
    }
    const std::uint64_t need = blocksForTokens(tokens);
    if (need > freeBlocks())
        reclaimPrefixBlocks(need);
    if (need > freeBlocks())
        return; // Pool too hot to cache; drop the insert.
    std::uint32_t slot;
    if (!_freePrefixSlots.empty()) {
        slot = _freePrefixSlots.back();
        _freePrefixSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(_prefixSlots.size());
        _prefixSlots.emplace_back();
    }
    PrefixEntry &e = _prefixSlots[slot];
    e.key = key;
    e.state.tokens = tokens;
    e.state.blocks = 0;
    allocBlocks(e.state, need);
    _cachedBlocks += need;
    _prefixIndex.emplace(key, slot);
    lruPushFront(slot);
}

KvOccupancy
KvCacheManager::occupancy() const
{
    KvOccupancy out;
    out.totalBlocks = _totalBlocks;
    out.usedBlocks = _usedTotal;
    out.requests = _requests.size();
    out.cachedBlocks = _cachedBlocks;
    return out;
}

} // namespace papi::llm
