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
    _blocksPerDevice = device_capacity_bytes / _blockBytes;
    _usedPerDevice.assign(num_devices, 0);
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

std::uint32_t
KvCacheManager::scanLeastUsed() const
{
    // min_element returns the first minimum: lowest index on ties.
    return static_cast<std::uint32_t>(
        std::min_element(_usedPerDevice.begin(),
                         _usedPerDevice.end()) -
        _usedPerDevice.begin());
}

std::uint32_t
KvCacheManager::nextPick(std::uint32_t placed,
                         std::uint64_t level) const
{
    // `placed` was the lowest-index device at the fleet minimum
    // `level` and now holds one block more. Any other device at
    // `level` sits above it in index order; failing that, every
    // device holds more than `level`, so the lowest index at
    // level + 1 (at worst `placed` itself) is the new pick.
    const auto begin = _usedPerDevice.begin();
    const auto end = _usedPerDevice.end();
    auto it = std::find(begin + placed + 1, end, level);
    if (it == end)
        it = std::find(begin, end, level + 1);
    return static_cast<std::uint32_t>(it - begin);
}

void
KvCacheManager::allocBlocks(RequestState &state, std::uint64_t add)
{
    const std::size_t n = _usedPerDevice.size();
    if (add <= 8 || n <= 1) {
        // Few blocks: place them one at a time on the least-loaded
        // device, lowest index on ties (the definition the closed
        // form below must reproduce). The pick is carried between
        // blocks and calls, so only a level change other than the
        // pick's own (release, eviction, bulk fill) costs a scan.
        if (_pick == kNoPick)
            _pick = scanLeastUsed();
        for (std::uint64_t b = 0; b < add; ++b) {
            const std::uint32_t d = _pick;
            const std::uint64_t level = _usedPerDevice[d]++;
            ++state.perDevice[d];
            _pick = nextPick(d, level);
        }
    } else {
        // Closed-form water-filling, bit-identical to the scan:
        // the sequence of least-loaded/lowest-index picks raises
        // every device below some final level h to h, then hands
        // the remainder to the devices sitting at h in index
        // order, one block each. Find the largest h whose fill
        // cost S(h) = sum(max(0, h - used[d])) still fits in add.
        std::uint64_t mn = _usedPerDevice[0];
        std::uint64_t mx = _usedPerDevice[0];
        for (std::size_t d = 1; d < n; ++d) {
            const std::uint64_t u = _usedPerDevice[d];
            mn = u < mn ? u : mn;
            mx = u > mx ? u : mx;
        }
        const auto fill_cost = [&](std::uint64_t h) {
            std::uint64_t s = 0;
            for (std::uint64_t u : _usedPerDevice)
                s += h > u ? h - u : 0;
            return s;
        };
        std::uint64_t level;
        std::uint64_t remainder;
        // Past the highest device S(h) is affine (n*h - usedTotal),
        // so when the grow clears the fleet's spread - the common
        // steady-state case, where water-filling itself keeps every
        // device within a block of level - h comes out closed-form
        // with no search at all.
        const std::uint64_t h0 = (add + _usedTotal) / n;
        if (h0 >= mx) {
            level = h0;
            remainder = add - (n * h0 - _usedTotal);
        } else {
            // Otherwise the level sits strictly below mx: h >= mx
            // would imply S(h) = n*h - usedTotal <= add and hence
            // h <= h0 < mx. Search the remaining [mn, mx) span.
            std::uint64_t lo = mn;
            std::uint64_t hi = mx - 1;
            while (lo < hi) {
                const std::uint64_t mid = lo + (hi - lo + 1) / 2;
                if (fill_cost(mid) <= add)
                    lo = mid;
                else
                    hi = mid - 1;
            }
            level = lo;
            remainder = add - fill_cost(level);
        }
        for (std::size_t d = 0; d < n; ++d) {
            std::uint64_t &u = _usedPerDevice[d];
            std::uint64_t give = u < level ? level - u : 0;
            if (remainder > 0 && u <= level) {
                ++give;
                --remainder;
            }
            u += give;
            state.perDevice[d] += give;
        }
        _pick = kNoPick; // every level moved: rescan on next use
    }
    state.blocks += add;
    _usedTotal += add;
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
    state.perDevice.assign(_usedPerDevice.size(), 0);
    _requests.emplace(id, slot);
    KvAdmission out;
    out.slot = slot;
    out.blocks = growState(id, state,
                           std::max<std::uint64_t>(initial_tokens, 1));
    return out;
}

std::uint64_t
KvCacheManager::grow(std::uint64_t id, std::uint64_t new_tokens)
{
    return growState(id, _slots[slotOf(id)].state, new_tokens);
}

std::uint64_t
KvCacheManager::grow(KvHandle h, std::uint64_t new_tokens)
{
    return growState(h.id, _slots[slotOf(h)].state, new_tokens);
}

void
KvCacheManager::growMany(const std::uint32_t *slots,
                         const std::uint64_t *ids,
                         const std::uint64_t *new_tokens,
                         std::uint64_t *blocks_out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t slot = slotOf(KvHandle{ids[i], slots[i]});
        blocks_out[i] =
            growState(ids[i], _slots[slot].state, new_tokens[i]);
    }
}

std::uint64_t
KvCacheManager::requestBlocks(std::uint64_t id) const
{
    return _slots[slotOf(id)].state.blocks;
}

std::uint64_t
KvCacheManager::requestTokens(std::uint64_t id) const
{
    return _slots[slotOf(id)].state.tokens;
}

KvExport
KvCacheManager::exportRequest(std::uint64_t id)
{
    return exportRequest(KvHandle{id, slotOf(id)});
}

KvExport
KvCacheManager::exportRequest(KvHandle h)
{
    const std::uint32_t slot = slotOf(h);
    const RequestState &state = _slots[slot].state;
    KvExport out;
    out.tokens = state.tokens;
    out.blocks = state.blocks;
    out.bytes = state.blocks * _blockBytes;
    releaseSlot(slot);
    return out;
}

KvAdmission
KvCacheManager::importRequest(std::uint64_t id, std::uint64_t tokens)
{
    return admit(id, tokens);
}

std::uint64_t
KvCacheManager::growthBlocks(std::uint64_t id,
                             std::uint64_t new_tokens) const
{
    std::uint64_t held = requestBlocks(id);
    std::uint64_t need = blocksForTokens(new_tokens);
    return need > held ? need - held : 0;
}

void
KvCacheManager::release(std::uint64_t id)
{
    releaseSlot(slotOf(id));
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
    for (std::uint32_t d = 0; d < _usedPerDevice.size(); ++d) {
        if (state.perDevice[d] > _usedPerDevice[d])
            sim::panic("KvCacheManager: accounting underflow");
        _usedPerDevice[d] -= state.perDevice[d];
    }
    _usedTotal -= state.blocks;
    _pick = kNoPick;
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
    for (std::uint32_t d = 0; d < _usedPerDevice.size(); ++d) {
        if (state.perDevice[d] > _usedPerDevice[d])
            sim::panic("KvCacheManager: prefix accounting "
                       "underflow");
        _usedPerDevice[d] -= state.perDevice[d];
    }
    _usedTotal -= state.blocks;
    _pick = kNoPick;
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
    e.state.perDevice.assign(_usedPerDevice.size(), 0);
    allocBlocks(e.state, need);
    _cachedBlocks += need;
    _prefixIndex.emplace(key, slot);
    lruPushFront(slot);
}

KvOccupancy
KvCacheManager::occupancy() const
{
    KvOccupancy out;
    out.totalBlocks = _blocksPerDevice * _usedPerDevice.size();
    out.usedBlocks = _usedTotal;
    out.requests = _requests.size();
    out.cachedBlocks = _cachedBlocks;
    if (out.usedBlocks > 0) {
        std::uint64_t max_used =
            *std::max_element(_usedPerDevice.begin(),
                              _usedPerDevice.end());
        double mean = static_cast<double>(out.usedBlocks) /
                      static_cast<double>(_usedPerDevice.size());
        out.deviceImbalance =
            mean > 0.0 ? static_cast<double>(max_used) / mean : 1.0;
    }
    return out;
}

} // namespace papi::llm
