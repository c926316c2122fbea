/**
 * @file
 * Static batching with runtime request-level parallelism decay.
 *
 * The paper's evaluation uses static batching: a batch of requests
 * decodes together and no new request joins until the batch drains.
 * Each request has its own output length, so runtime RLP shrinks as
 * requests hit <eos> (paper Fig. 3). The batch exposes exactly the
 * signals PAPI's runtime scheduler consumes: the current RLP and the
 * number of <eos> tokens observed after each iteration.
 */

#ifndef PAPI_LLM_BATCH_HH
#define PAPI_LLM_BATCH_HH

#include <cstdint>
#include <vector>

#include "llm/model_config.hh"
#include "llm/request.hh"

namespace papi::llm {

/** Outcome of one decode iteration over a batch. */
struct DecodeStep
{
    std::uint32_t rlpBefore = 0; ///< Live requests entering the step.
    std::uint32_t eosCount = 0;  ///< Requests that finished.
    std::uint32_t rlpAfter = 0;  ///< Live requests after the step.
    std::uint64_t tokensGenerated = 0; ///< Tokens accepted.
};

/** A statically-batched set of requests being decoded. */
class Batch
{
  public:
    /** Admit @p requests as one batch decoding @p model. */
    Batch(std::vector<Request> requests, const ModelConfig &model);

    /** Live (unfinished) request count: the runtime RLP. */
    std::uint32_t liveRlp() const { return _live; }

    /** Initial RLP (batch size at admission). */
    std::uint32_t
    initialRlp() const
    {
        return static_cast<std::uint32_t>(_requests.size());
    }

    /** True once every request reached <eos>. */
    bool done() const { return _live == 0; }

    /** Decode iterations executed so far. */
    std::uint64_t iterations() const { return _iterations; }

    /** Total tokens generated so far. */
    std::uint64_t tokensGenerated() const { return _tokens; }

    /**
     * Execute one decode iteration in which each live request
     * accepts @p accepted_tokens tokens (1 for serial decoding,
     * up to the speculation length for speculative decoding).
     */
    DecodeStep step(std::uint32_t accepted_tokens);

    /** Context lengths of the live requests (for attention work). */
    std::vector<std::uint32_t> liveContextLens() const;

    /**
     * Allocation-free variant: overwrite @p out with the live context
     * lengths. Decode loops call this every iteration and reuse one
     * buffer instead of allocating a fresh vector per token.
     */
    void liveContextLens(std::vector<std::uint32_t> &out) const;

    /** Total KV-cache bytes currently resident for live requests. */
    std::uint64_t kvCacheBytes() const;

    /** Peak KV-cache bytes if all requests ran to completion. */
    std::uint64_t peakKvCacheBytes() const;

    /** The batch's requests, in admission order. */
    const std::vector<Request> &requests() const { return _requests; }

  private:
    std::vector<Request> _requests;
    const ModelConfig &_model;
    std::uint32_t _live = 0;
    std::uint64_t _iterations = 0;
    std::uint64_t _tokens = 0;
};

} // namespace papi::llm

#endif // PAPI_LLM_BATCH_HH
