/**
 * @file
 * Structure-of-arrays per-request state of the live serving batch.
 *
 * ServingSim's hot loops - the per-iteration context-sum / chunk-
 * budget walk, the decode pass, the KV-headroom gates -
 * used to chase a std::vector<ActiveRequest> of 96-byte structs, so
 * every pass touched far more cache than it used and none of it
 * vectorized. BatchState flattens that state into parallel plain-
 * old-data arrays, one per field, kept in ADMISSION ORDER (ascending
 * admitSeq): hot passes become contiguous branch-light loops over
 * exactly the fields they read, which GCC autovectorizes (see
 * docs/ARCHITECTURE.md for the pass-by-pass walkthrough), and the
 * admission-order invariant keeps every ordering the scalar loops
 * defined - chunk budgets drain oldest-first by index, the
 * preemption victim (youngest admitted) is simply the last element,
 * and retirement compacts in place without reordering survivors.
 *
 * The arrays are public on purpose: ServingSim's loops index them
 * directly. The mutating helpers (push / popBack / eraseSorted /
 * truncate) keep the columns aligned; everything else is plain
 * array arithmetic.
 */

#ifndef PAPI_CORE_BATCH_STATE_HH
#define PAPI_CORE_BATCH_STATE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "llm/kv_cache.hh"
#include "llm/request.hh"

namespace papi::core {

/**
 * One live request's state gathered back into a struct - the
 * interchange format for the cold paths that move requests in and
 * out of the batch (admission, preemption parking, crash harvest,
 * prefill handoff). Field-for-field the old ActiveRequest, plus the
 * KV block count the SoA headroom gate tracks in-line.
 */
struct ActiveSnapshot
{
    llm::Request request;        ///< Generation progress.
    double arrivalSeconds = 0.0; ///< From the TimedRequest.
    double admissionSeconds = 0.0;  ///< Admission decision time.
    double firstTokenSeconds = 0.0; ///< First advancing iteration.
    bool firstTokenSeen = false;    ///< firstTokenSeconds valid.
    /** Chunked mode: prefill tokens still to process before this
     *  request can decode (0 = decoding). */
    std::uint32_t prefillRemaining = 0;
    /** KV tokens materialized (preemption mode accounting). */
    std::uint32_t kvTokens = 0;
    /** Global admission sequence; the preemption victim order
     *  (youngest admitted evicts first). */
    std::uint64_t admitSeq = 0;
    std::uint32_t preemptions = 0; ///< Evictions suffered so far.
    double stallSeconds = 0.0;     ///< Total time spent evicted.
    /** Session identity from the TimedRequest, preserved so a
     *  crash harvest can re-route with affinity intact. */
    std::uint64_t sessionId = 0;
    /** KV blocks currently held in the KvCacheManager (mirrors
     *  requestBlocks(); lets the headroom gate run without per-id
     *  hash lookups). */
    std::uint64_t kvBlocks = 0;
    /** KvCacheManager slot from admission (an llm::KvHandle with
     *  the request id; kNoKvSlot when the request holds no KV).
     *  Stale once the request leaves the batch: a resume admits
     *  afresh. */
    std::uint32_t kvSlot = llm::kNoKvSlot;
    /** Prompt tokens covered by a prefix-cache hit at admission
     *  (their prefill cost was skipped; the ledger invariant
     *  prefixHitTokens + miss tokens == inputLen is pinned by a
     *  test). */
    std::uint32_t prefixHitTokens = 0;
};

/** The live batch as parallel arrays in admission order. */
class BatchState
{
  public:
    // Parallel columns; index i is one request. Kept aligned by the
    // helpers below, sorted ascending by admitSeq[i].
    std::vector<std::uint64_t> id;       ///< Request id.
    std::vector<std::uint32_t> inputLen; ///< Prompt tokens.
    std::vector<std::uint32_t> outputLen; ///< Tokens until <eos>.
    std::vector<std::uint32_t> generated; ///< Output tokens so far.
    /** Chunked mode: prefill tokens left (0 = decoding). */
    std::vector<std::uint32_t> prefillRemaining;
    std::vector<std::uint32_t> kvTokens; ///< KV tokens materialized.
    std::vector<std::uint32_t> preemptions; ///< Evictions suffered.
    std::vector<std::uint64_t> admitSeq; ///< Admission sequence.
    std::vector<std::uint64_t> sessionId; ///< Session identity.
    std::vector<std::uint64_t> kvBlocks; ///< KV blocks held.
    std::vector<std::uint32_t> kvSlot;   ///< KV handle slot.
    // Shared-prefix identity (cold columns: admission, retirement,
    // crash harvest and preemption snapshots only).
    std::vector<std::uint64_t> prefixKey;  ///< Reusable-span key.
    std::vector<std::uint32_t> prefixTokens; ///< Span under the key.
    std::vector<std::uint32_t> prefixHit; ///< Hit tokens at admission.
    std::vector<std::uint64_t> insertKey; ///< Cache-on-retire key.
    std::vector<std::uint32_t> insertTokens; ///< Span to cache (0=all).
    std::vector<double> arrivalSeconds;  ///< Stream arrival time.
    std::vector<double> admissionSeconds; ///< Admission time.
    std::vector<double> firstTokenSeconds; ///< First-advance time.
    std::vector<double> stallSeconds; ///< Total time spent evicted.
    /** 1 once firstTokenSeconds is valid. */
    std::vector<std::uint8_t> firstTokenSeen;

    /** Number of parallel columns above. The layout tripwire below
     *  fails compilation the moment a column is added or removed, so
     *  push/snapshot/forEachColumn (and this count) can never
     *  silently fall out of sync with the data members. */
    static constexpr std::size_t kColumns = 21;

    /** Live request count (every column has this many elements). */
    std::size_t size() const { return id.size(); }

    /** True when no request is live. */
    bool empty() const { return id.empty(); }

    /** Context length of request @p i (prompt + generated). */
    std::uint32_t
    contextLen(std::size_t i) const
    {
        return inputLen[i] + generated[i];
    }

    /** Reserve capacity in every column. */
    void reserve(std::size_t n);

    /** Append @p s as the new youngest element (caller guarantees
     *  s.admitSeq exceeds every present admitSeq). */
    void push(const ActiveSnapshot &s);

    /** Gather request @p i back into a snapshot (cold paths). */
    ActiveSnapshot snapshot(std::size_t i) const;

    /** Drop the last (youngest-admitted) element. */
    void popBack();

    /**
     * Remove the elements at @p indices (strictly ascending, each
     * below size()), keeping the survivors in order: the retirement
     * compaction. Each column moves each run of survivors between
     * two removed indices with one copy.
     */
    void eraseSorted(std::span<const std::uint32_t> indices);

    /** Drop every element from every column. */
    void clear();

    // ---- hot array passes (branch-light, autovectorizable) ----

    /** stallSeconds[i] += s for every request (lump-sum swap stall
     *  attribution). */
    void addStallAll(double s);

  private:
    /** Call @p f on every column, in declaration order (the
     *  column-aligned helpers that treat columns alike). */
    template <typename F>
    void
    forEachColumn(F &&f)
    {
        f(id);
        f(inputLen);
        f(outputLen);
        f(generated);
        f(prefillRemaining);
        f(kvTokens);
        f(preemptions);
        f(admitSeq);
        f(sessionId);
        f(kvBlocks);
        f(kvSlot);
        f(prefixKey);
        f(prefixTokens);
        f(prefixHit);
        f(insertKey);
        f(insertTokens);
        f(arrivalSeconds);
        f(admissionSeconds);
        f(firstTokenSeconds);
        f(stallSeconds);
        f(firstTokenSeen);
    }
};

// ---- compile-time contract ------------------------------------
// BatchState is EXACTLY its columns: no virtuals, no extra state.
// Every column is a std::vector, and all vector specializations have
// one size, so the class size counts the columns. Adding a member
// without visiting every column-aligned helper (push / snapshot /
// forEachColumn) corrupts the batch silently at runtime - this makes
// it a compile error instead.
static_assert(sizeof(BatchState) ==
                  BatchState::kColumns *
                      sizeof(std::vector<std::uint64_t>),
              "BatchState gained or lost a column: update kColumns "
              "AND every column-aligned helper in batch_state.cc");

// The hot passes treat columns as flat POD arrays (autovectorized
// loads/stores, compaction by element assignment), and ActiveSnapshot
// is the memcpy-able interchange struct for the cold paths; neither
// tolerates a non-trivial element type.
static_assert(std::is_trivially_copyable_v<llm::Request> &&
                  std::is_trivially_copyable_v<ActiveSnapshot>,
              "ActiveSnapshot must stay a plain interchange struct "
              "(crash harvest and preemption parking copy it in "
              "bulk)");
static_assert(std::is_trivially_copyable_v<double> &&
                  std::numeric_limits<double>::is_iec559,
              "time columns are IEEE-754 doubles; the bitwise "
              "determinism pins compare them exactly");

} // namespace papi::core

#endif // PAPI_CORE_BATCH_STATE_HH
