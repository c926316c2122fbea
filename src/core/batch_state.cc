#include "core/batch_state.hh"

namespace papi::core {

void
BatchState::reserve(std::size_t n)
{
    id.reserve(n);
    inputLen.reserve(n);
    outputLen.reserve(n);
    generated.reserve(n);
    prefillRemaining.reserve(n);
    kvTokens.reserve(n);
    preemptions.reserve(n);
    admitSeq.reserve(n);
    sessionId.reserve(n);
    kvBlocks.reserve(n);
    kvSlot.reserve(n);
    prefixKey.reserve(n);
    prefixTokens.reserve(n);
    prefixHit.reserve(n);
    insertKey.reserve(n);
    insertTokens.reserve(n);
    arrivalSeconds.reserve(n);
    admissionSeconds.reserve(n);
    firstTokenSeconds.reserve(n);
    stallSeconds.reserve(n);
    firstTokenSeen.reserve(n);
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
    id.pop_back();
    inputLen.pop_back();
    outputLen.pop_back();
    generated.pop_back();
    prefillRemaining.pop_back();
    kvTokens.pop_back();
    preemptions.pop_back();
    admitSeq.pop_back();
    sessionId.pop_back();
    kvBlocks.pop_back();
    kvSlot.pop_back();
    prefixKey.pop_back();
    prefixTokens.pop_back();
    prefixHit.pop_back();
    insertKey.pop_back();
    insertTokens.pop_back();
    arrivalSeconds.pop_back();
    admissionSeconds.pop_back();
    firstTokenSeconds.pop_back();
    stallSeconds.pop_back();
    firstTokenSeen.pop_back();
}

void
BatchState::moveTo(std::size_t to, std::size_t from)
{
    if (to == from)
        return;
    id[to] = id[from];
    inputLen[to] = inputLen[from];
    outputLen[to] = outputLen[from];
    generated[to] = generated[from];
    prefillRemaining[to] = prefillRemaining[from];
    kvTokens[to] = kvTokens[from];
    preemptions[to] = preemptions[from];
    admitSeq[to] = admitSeq[from];
    sessionId[to] = sessionId[from];
    kvBlocks[to] = kvBlocks[from];
    kvSlot[to] = kvSlot[from];
    prefixKey[to] = prefixKey[from];
    prefixTokens[to] = prefixTokens[from];
    prefixHit[to] = prefixHit[from];
    insertKey[to] = insertKey[from];
    insertTokens[to] = insertTokens[from];
    arrivalSeconds[to] = arrivalSeconds[from];
    admissionSeconds[to] = admissionSeconds[from];
    firstTokenSeconds[to] = firstTokenSeconds[from];
    stallSeconds[to] = stallSeconds[from];
    firstTokenSeen[to] = firstTokenSeen[from];
}

void
BatchState::truncate(std::size_t n)
{
    id.resize(n);
    inputLen.resize(n);
    outputLen.resize(n);
    generated.resize(n);
    prefillRemaining.resize(n);
    kvTokens.resize(n);
    preemptions.resize(n);
    admitSeq.resize(n);
    sessionId.resize(n);
    kvBlocks.resize(n);
    kvSlot.resize(n);
    prefixKey.resize(n);
    prefixTokens.resize(n);
    prefixHit.resize(n);
    insertKey.resize(n);
    insertTokens.resize(n);
    arrivalSeconds.resize(n);
    admissionSeconds.resize(n);
    firstTokenSeconds.resize(n);
    stallSeconds.resize(n);
    firstTokenSeen.resize(n);
}

void
BatchState::clear()
{
    truncate(0);
}

bool
BatchState::anyPrefilling() const
{
    const std::size_t n = size();
    const std::uint32_t *pre = prefillRemaining.data();
    std::uint32_t any = 0;
    for (std::size_t i = 0; i < n; ++i)
        any |= pre[i];
    return any != 0;
}

void
BatchState::refillCtx(std::vector<std::uint32_t> &ctx) const
{
    const std::size_t n = size();
    ctx.resize(n);
    const std::uint32_t *in = inputLen.data();
    const std::uint32_t *gen = generated.data();
    std::uint32_t *out = ctx.data();
    for (std::size_t i = 0; i < n; ++i)
        out[i] = in[i] + gen[i];
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
