/**
 * @file
 * Request arrival processes for online-serving simulation.
 *
 * Mixed continuous batching (paper Section 2.2.1) admits requests
 * while a batch is in flight, so runtime RLP both rises (admissions)
 * and falls (<eos>) - the full dynamic range PAPI's scheduler must
 * handle. Arrivals are Poisson with a configurable rate.
 *
 * The process is pull-based: next() synthesizes one request at a
 * time in O(1) state, so million-request streams drive the serving
 * stack without ever materializing a trace (generate() is a loop
 * over next() kept for callers that want the vector form - both
 * styles consume the identical RNG streams, so they are
 * byte-for-byte interchangeable).
 *
 * The structured categories (TraceCategory::AgenticLoop,
 * LongContextRag, SharedQa) additionally model KV-reuse workloads:
 * a deterministic pool of concurrent sessions takes turns in
 * round-robin order, and every request carries the shared-prefix
 * identity (llm::Request::prefixKey/prefixTokens/insertKey/
 * insertTokens) a prefix-caching engine needs - which turn's KV the
 * prompt extends, and what key this turn's KV should be cached
 * under for the next one.
 */

#ifndef PAPI_LLM_ARRIVAL_HH
#define PAPI_LLM_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "llm/request.hh"
#include "llm/trace.hh"
#include "sim/rng.hh"

namespace papi::llm {

/** A request plus its arrival time in the serving timeline. */
struct TimedRequest
{
    Request request;             ///< Lengths and prefix identity.
    double arrivalSeconds = 0.0; ///< Arrival time, seconds.
    /**
     * Conversation/user identity for session-affinity routing: a
     * cluster router can pin all requests of one session to one
     * platform so the session's KV prefix stays local. 0 means
     * "unset" (no affinity; session-affinity routers fall back to
     * round-robin). ArrivalProcess assigns 1 + request id (every
     * request its own session); use assignSessions() to model
     * multi-turn users (also 1-based).
     */
    std::uint64_t sessionId = 0;
};

/**
 * Overwrite the session ids of an existing stream, modelling
 * @p num_sessions concurrent multi-turn users. Session ids are
 * 1-based: 0 is the "unset" sentinel session-affinity routers fall
 * back to round-robin for, so this function never assigns it.
 * Arrival times and lengths are untouched, so streams remain
 * comparable across routing policies. Fatal if @p num_sessions is
 * zero.
 *
 * With @p turns_per_session == 0 (the default, the pre-existing
 * behaviour bit-for-bit) each request is attributed to one of the
 * @p num_sessions sessions uniformly at random (deterministic in
 * @p seed), with ids in [1, num_sessions].
 *
 * With @p turns_per_session > 0 the stream is dealt round-robin
 * across @p num_sessions live session slots; once a slot has
 * received turns_per_session requests it retires and is reseeded
 * with a fresh session id (continuing 1, 2, 3, ...), so every
 * session is exactly turns_per_session consecutive turns of one
 * user, interleaved with the other live sessions. No randomness is
 * consumed in this mode.
 */
void assignSessions(std::vector<TimedRequest> &stream,
                    std::uint32_t num_sessions, std::uint64_t seed,
                    std::uint32_t turns_per_session = 0);

/** Generates a timed request stream. */
class ArrivalProcess
{
  public:
    // Session structure of the reuse-modelling categories. The
    // active-session counts are deliberately coprime to typical
    // replica counts (4, 8) so round-robin routing does not
    // accidentally align sessions to replicas.
    /** AgenticLoop: turns per session before it completes. */
    static constexpr std::uint32_t kAgenticTurns = 8;
    /** AgenticLoop: concurrent sessions taking turns. */
    static constexpr std::uint32_t kAgenticActiveSessions = 7;
    /** AgenticLoop: initial session context (system prompt + task
     *  setup) prepended to the first turn. */
    static constexpr std::uint32_t kAgenticSeedContext = 256;
    /** LongContextRag: questions per document/session. */
    static constexpr std::uint32_t kRagTurns = 6;
    /** LongContextRag: concurrent sessions taking turns. */
    static constexpr std::uint32_t kRagActiveSessions = 5;
    /** LongContextRag: document length bounds (deterministic per
     *  session in [kRagDocMin, kRagDocMax]). */
    static constexpr std::uint32_t kRagDocMin = 768;
    /** LongContextRag: longest document (see kRagDocMin). */
    static constexpr std::uint32_t kRagDocMax = 1280;
    /** SharedQa: the deployment-wide system prompt every request
     *  begins with. */
    static constexpr std::uint32_t kSharedPromptTokens = 64;

    /**
     * @param category Length distribution of the requests.
     * @param rate_rps Mean arrival rate, requests per second.
     * @param seed Seed for both lengths and interarrival times.
     */
    ArrivalProcess(TraceCategory category, double rate_rps,
                   std::uint64_t seed);

    /**
     * Synthesize the next timed request (pull-based form; O(1)
     * memory regardless of stream length). generate() is a loop
     * over next(), and the length / interarrival RNG streams are
     * independent, so mixing the two styles yields byte-identical
     * requests in either.
     */
    TimedRequest next();

    /** Generate @p count requests with increasing arrival times. */
    std::vector<TimedRequest> generate(std::uint32_t count);

    /** Mean arrival rate, requests per second. */
    double rateRps() const { return _rateRps; }

  private:
    /** One live slot of the structured-session pool. */
    struct SessionSlot
    {
        std::uint64_t sessionId = 0; ///< 1-based session identity.
        std::uint32_t turnsDone = 0; ///< Turns emitted so far.
        std::uint32_t contextLen = 0; ///< Context after last turn.
        std::uint64_t docKey = 0;    ///< RAG document cache key.
        std::uint32_t docLen = 0;    ///< RAG document tokens.
    };

    /** Compose the structured categories' turn on top of @p r. */
    void composeStructured(Request &r, std::uint64_t &session_out);

    /** The slot taking the next turn, reseeded if its session is
     *  complete. */
    SessionSlot &takeTurnSlot(std::uint32_t turns_per_session);

    TraceCategory _category;
    TraceGenerator _lengths;
    sim::Rng _rng;
    double _rateRps;
    double _clock = 0.0;
    std::uint64_t _seed;
    // Structured-session pool (AgenticLoop / LongContextRag).
    std::vector<SessionSlot> _sessions;
    std::size_t _cursor = 0;
    std::uint64_t _nextSessionId = 1;
};

} // namespace papi::llm

#endif // PAPI_LLM_ARRIVAL_HH
