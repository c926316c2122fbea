/**
 * @file
 * A single inference request and its generation progress.
 */

#ifndef PAPI_LLM_REQUEST_HH
#define PAPI_LLM_REQUEST_HH

#include <cstdint>

namespace papi::llm {

/** One user request moving through prefill and decode. */
struct Request
{
    std::uint64_t id = 0;        ///< Unique within a trace.
    std::uint32_t inputLen = 0;  ///< Prompt tokens.
    std::uint32_t outputLen = 0; ///< Tokens until <eos> (oracle).
    std::uint32_t generated = 0; ///< Output tokens produced so far.

    // ---- shared-prefix identity (prefix caching) ----
    // Trace generators that model KV reuse (multi-turn sessions,
    // shared system prompts, RAG document prefixes) stamp the reuse
    // structure here; engines without a prefix cache ignore it.

    /** Cache key of the prompt's reusable leading span (a hash of
     *  the shared content's identity); 0 = no reusable prefix. */
    std::uint64_t prefixKey = 0;
    /** Leading prompt tokens covered by prefixKey (the span another
     *  request may have already materialized). */
    std::uint32_t prefixTokens = 0;
    /** Key to cache this request's KV under once it completes (the
     *  next turn's prefixKey); 0 = nothing worth caching. */
    std::uint64_t insertKey = 0;
    /** Tokens to cache under insertKey; 0 = the full final context
     *  (prompt + generated) at completion. */
    std::uint32_t insertTokens = 0;

    /** True once the request reached <eos>. */
    bool
    finished() const
    {
        return generated >= outputLen;
    }

    /** Context length the attention kernel sees this iteration. */
    std::uint32_t
    contextLen() const
    {
        return inputLen + generated;
    }

    /**
     * Advance generation by up to @p tokens accepted tokens.
     * @return Tokens actually consumed (clipped at <eos>).
     */
    std::uint32_t
    advance(std::uint32_t tokens)
    {
        std::uint32_t remaining = outputLen - generated;
        std::uint32_t used = tokens < remaining ? tokens : remaining;
        generated += used;
        return used;
    }
};

} // namespace papi::llm

#endif // PAPI_LLM_REQUEST_HH
