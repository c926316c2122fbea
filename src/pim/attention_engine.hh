/**
 * @file
 * Multi-head attention execution on a PIM device.
 *
 * One decode iteration of attention per request and head is two
 * GEMVs over the KV cache: scores = Q x K^T (stream K^T, reuse =
 * TLP) and context = softmax(scores) x V (stream V, reuse = TLP),
 * plus a softmax pass executed by the buffer-die vector unit.
 * Batching does not create weight reuse here - each request owns its
 * KV cache - which is why attention stays memory-bound (paper
 * Section 3.1).
 */

#ifndef PAPI_PIM_ATTENTION_ENGINE_HH
#define PAPI_PIM_ATTENTION_ENGINE_HH

#include <cstdint>

#include "pim/energy_model.hh"
#include "pim/gemv_engine.hh"
#include "pim/pim_config.hh"

namespace papi::pim {

/** Timing/energy outcome of one attention kernel on one device. */
struct AttentionResult
{
    /** Kernel time, seconds: GEMV + softmax + KV append. */
    double seconds = 0.0;
    /** GEMV (K^T and V streaming) component, seconds. */
    double gemvSeconds = 0.0;
    /** Softmax component, seconds. */
    double softmaxSeconds = 0.0;
    /** KV-append (writing the new tokens' K/V vectors), seconds. */
    double kvWriteSeconds = 0.0;
    PimEnergyBreakdown energy; ///< Per device.
    std::uint64_t kvBytesStreamed = 0; ///< K^T and V bytes read, device.
};

/** Attention kernel timing for one PIM configuration. */
class AttentionEngine
{
  public:
    /** Engine for @p config with energy constants @p params. */
    AttentionEngine(const PimConfig &config,
                    const PimEnergyParams &params);

    /**
     * One decode iteration of multi-head attention on the busiest
     * device.
     *
     * @param kv_bytes_per_bank K^T plus V bytes resident per bank on
     *        the busiest device (from DataLayout::partitionKvCache).
     * @param tlp Token-level parallelism (speculation length): the
     *        reuse factor for KV streaming.
     * @param score_elements Scores computed on this device this
     *        iteration (for softmax time): sum over resident heads of
     *        L x TLP.
     */
    AttentionResult run(std::uint64_t kv_bytes_per_bank,
                        std::uint32_t tlp,
                        std::uint64_t score_elements) const;

    /** The GEMV engine that times the K^T and V streaming. */
    const GemvEngine &gemv() const { return _gemv; }

  private:
    PimConfig _config;
    PimEnergyParams _params;
    GemvEngine _gemv;
    /** Softmax throughput of the buffer-die unit, elements/second. */
    double _softmaxElemsPerSec;
};

} // namespace papi::pim

#endif // PAPI_PIM_ATTENTION_ENGINE_HH
