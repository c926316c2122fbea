/**
 * @file
 * Speculative-decoding configuration (token-level parallelism).
 *
 * A draft model proposes `length` tokens which the target model
 * verifies in parallel: one decode iteration processes TLP = length
 * tokens per request. The paper's timing evaluation treats all
 * speculated tokens as accepted (it measures verification cost, not
 * draft accuracy); an acceptance rate < 1 is supported for
 * sensitivity studies.
 */

#ifndef PAPI_LLM_SPECULATIVE_HH
#define PAPI_LLM_SPECULATIVE_HH

#include <cstdint>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace papi::llm {

/** Speculative decoding parameters. */
struct SpeculativeConfig
{
    /** Speculation length (TLP); 1 = serial decoding. */
    std::uint32_t length = 1;
    /** Probability each speculated token is accepted. */
    double acceptanceRate = 1.0;
    /** Draft-model cost relative to one target-model serial step. */
    double draftCostFraction = 0.0;

    /** Fatal unless length >= 1, acceptanceRate is in (0, 1] and
     *  draftCostFraction >= 0. */
    void
    validate() const
    {
        if (length == 0)
            sim::fatal("SpeculativeConfig: length must be >= 1");
        if (acceptanceRate <= 0.0 || acceptanceRate > 1.0)
            sim::fatal("SpeculativeConfig: acceptanceRate must be in "
                       "(0,1]");
        if (draftCostFraction < 0.0)
            sim::fatal("SpeculativeConfig: negative draft cost");
    }

    /**
     * Tokens accepted in one verification step: the first rejection
     * truncates the speculated run (plus the free token from the
     * target model itself).
     */
    std::uint32_t
    sampleAccepted(sim::Rng &rng) const
    {
        validate();
        if (length == 1 || acceptanceRate >= 1.0)
            return length;
        std::uint32_t accepted = 1; // target model's own token
        for (std::uint32_t i = 1; i < length; ++i) {
            if (!rng.bernoulli(acceptanceRate))
                break;
            ++accepted;
        }
        return accepted;
    }
};

} // namespace papi::llm

#endif // PAPI_LLM_SPECULATIVE_HH
