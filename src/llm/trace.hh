/**
 * @file
 * Synthetic workload traces standing in for the Dolly dataset.
 *
 * The paper drives its end-to-end evaluation with the Dolly
 * instruction-following dataset's creative-writing and general-qa
 * categories. The experiments consume only (input length, output
 * length) pairs; this generator reproduces the categories' salient
 * statistics - creative-writing has long, high-variance outputs,
 * general-qa short ones - with heavy-tailed (log-normal) length
 * distributions and a deterministic seed. See DESIGN.md for the
 * substitution rationale.
 */

#ifndef PAPI_LLM_TRACE_HH
#define PAPI_LLM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "llm/request.hh"
#include "sim/rng.hh"

namespace papi::llm {

/** Dolly-style workload categories evaluated in the paper. */
enum class TraceCategory : std::uint8_t
{
    CreativeWriting, ///< Long outputs; decoding dominates.
    GeneralQa,       ///< Short outputs.
    /** Long prompts, short answers (summarization/RAG style);
     *  prompt processing dominates - the workload disaggregated
     *  prefill/decode serving targets. */
    PrefillHeavy,
    Uniform,         ///< Fixed lengths (for controlled experiments).
    /** Agentic tool-call loop ("agentic"): many short turns over one
     *  growing session context. Every turn's prompt embeds the full
     *  prior context, so consecutive turns share an ever-longer KV
     *  prefix - the workload prefix caching and cache-hit-aware
     *  routing exist for. Structured generation (session pool, turn
     *  chaining) lives in ArrivalProcess; as a bare TraceGenerator
     *  category the params describe one turn's increment/output. */
    AgenticLoop,
    /** Long-context RAG ("long-context-rag"): a session asks several
     *  questions against one long retrieved document, so requests of
     *  a session share the document prefix but diverge after it. */
    LongContextRag,
    /** GeneralQa with a shared system prompt ("general-qa-shared"):
     *  independent single-turn requests that all begin with the same
     *  deployment-wide system prompt - the simplest reuse pattern
     *  (one hot cache entry, hit by every request everywhere). */
    SharedQa,
};

/** Printable category name. */
const char *traceCategoryName(TraceCategory category);

/** Parse a printable category name; fatal on unknown names. */
TraceCategory traceCategoryFromName(const std::string &name);

/** Length-distribution parameters of a trace category. */
struct TraceParams
{
    double inputMean = 64.0;     ///< Mean prompt tokens.
    double inputStddev = 48.0;   ///< Prompt-length deviation.
    double outputMean = 512.0;   ///< Mean output tokens.
    double outputStddev = 320.0; ///< Output-length deviation.
    std::uint32_t minLen = 4;    ///< Shortest sampled length.
    std::uint32_t maxLen = 2048; ///< Longest sampled length.
};

/** Category presets matched to Dolly statistics. */
TraceParams traceParams(TraceCategory category);

/** Deterministic request-trace generator. */
class TraceGenerator
{
  public:
    /** Lengths from @p category's preset, drawn from @p seed. */
    TraceGenerator(TraceCategory category, std::uint64_t seed);
    /** Lengths from explicit @p params, drawn from @p seed. */
    TraceGenerator(const TraceParams &params, std::uint64_t seed);

    /**
     * Generate the next request of the trace (pull-based form).
     * generate() is a loop over next(), so interleaving the two
     * styles consumes the same RNG stream: a streaming caller sees
     * byte-for-byte the requests a materializing caller would.
     */
    Request next();

    /** Generate @p count requests with fresh ids. */
    std::vector<Request> generate(std::uint32_t count);

    /**
     * Generate a batch with fixed lengths (Uniform category style),
     * for experiments that pin the sequence length.
     */
    std::vector<Request> generateUniform(std::uint32_t count,
                                         std::uint32_t input_len,
                                         std::uint32_t output_len);

    /** The length distribution in use. */
    const TraceParams &params() const { return _params; }

  private:
    std::uint32_t sampleLen(double mean, double stddev);

    TraceParams _params;
    sim::Rng _rng;
    std::uint64_t _nextId = 0;
};

} // namespace papi::llm

#endif // PAPI_LLM_TRACE_HH
