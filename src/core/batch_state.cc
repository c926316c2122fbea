#include "core/batch_state.hh"

#include <algorithm>

namespace papi::core {

void
BatchState::reserve(std::size_t n)
{
    forEachColumn([n](auto &col) { col.reserve(n); });
}

void
BatchState::push(const ActiveSnapshot &s)
{
    id.push_back(s.request.id);
    inputLen.push_back(s.request.inputLen);
    outputLen.push_back(s.request.outputLen);
    generated.push_back(s.request.generated);
    prefillRemaining.push_back(s.prefillRemaining);
    kvTokens.push_back(s.kvTokens);
    preemptions.push_back(s.preemptions);
    admitSeq.push_back(s.admitSeq);
    sessionId.push_back(s.sessionId);
    kvBlocks.push_back(s.kvBlocks);
    kvSlot.push_back(s.kvSlot);
    prefixKey.push_back(s.request.prefixKey);
    prefixTokens.push_back(s.request.prefixTokens);
    prefixHit.push_back(s.prefixHitTokens);
    insertKey.push_back(s.request.insertKey);
    insertTokens.push_back(s.request.insertTokens);
    arrivalSeconds.push_back(s.arrivalSeconds);
    admissionSeconds.push_back(s.admissionSeconds);
    firstTokenSeconds.push_back(s.firstTokenSeconds);
    stallSeconds.push_back(s.stallSeconds);
    firstTokenSeen.push_back(s.firstTokenSeen ? 1 : 0);
}

ActiveSnapshot
BatchState::snapshot(std::size_t i) const
{
    ActiveSnapshot s;
    s.request.id = id[i];
    s.request.inputLen = inputLen[i];
    s.request.outputLen = outputLen[i];
    s.request.generated = generated[i];
    s.prefillRemaining = prefillRemaining[i];
    s.kvTokens = kvTokens[i];
    s.preemptions = preemptions[i];
    s.admitSeq = admitSeq[i];
    s.sessionId = sessionId[i];
    s.kvBlocks = kvBlocks[i];
    s.kvSlot = kvSlot[i];
    s.request.prefixKey = prefixKey[i];
    s.request.prefixTokens = prefixTokens[i];
    s.prefixHitTokens = prefixHit[i];
    s.request.insertKey = insertKey[i];
    s.request.insertTokens = insertTokens[i];
    s.arrivalSeconds = arrivalSeconds[i];
    s.admissionSeconds = admissionSeconds[i];
    s.firstTokenSeconds = firstTokenSeconds[i];
    s.stallSeconds = stallSeconds[i];
    s.firstTokenSeen = firstTokenSeen[i] != 0;
    return s;
}

void
BatchState::popBack()
{
    forEachColumn([](auto &col) { col.pop_back(); });
}

void
BatchState::eraseSorted(std::span<const std::uint32_t> indices)
{
    if (indices.empty())
        return;
    const std::size_t n = size();
    forEachColumn([&](auto &col) {
        auto *d = col.data();
        std::size_t w = indices.front();
        for (std::size_t k = 0; k < indices.size(); ++k) {
            // The survivors between this removal and the next one (or
            // the end) shift left onto slot w; the ranges overlap only
            // with the destination first, which std::copy allows.
            const std::size_t from = indices[k] + 1;
            const std::size_t to =
                k + 1 < indices.size() ? indices[k + 1] : n;
            std::copy(d + from, d + to, d + w);
            w += to - from;
        }
        col.resize(w);
    });
}

void
BatchState::clear()
{
    forEachColumn([](auto &col) { col.clear(); });
}

void
BatchState::addStallAll(double s)
{
    const std::size_t n = size();
    double *stall = stallSeconds.data();
    for (std::size_t i = 0; i < n; ++i)
        stall[i] += s;
}

} // namespace papi::core
