/**
 * @file
 * Per-kernel work characterization for one decode iteration.
 *
 * Every decoder kernel reduces to GEMV/GEMM work; this module
 * computes FLOPs, bytes moved, and arithmetic intensity for the FC
 * kernels (QKV generation, projection, feed-forward) and the
 * multi-head attention kernel, as functions of the parallelization
 * level (RLP x TLP) and the live sequence lengths. These formulas
 * are the substrate of the paper's roofline analysis (Fig. 2) and of
 * the AI ~= RLP x TLP estimator (Eq. 1-2).
 */

#ifndef PAPI_LLM_KERNEL_SPEC_HH
#define PAPI_LLM_KERNEL_SPEC_HH

#include <cstdint>
#include <vector>

#include "llm/model_config.hh"

namespace papi::llm {

/** FC sub-kernel identifiers. */
enum class FcKernel : std::uint8_t
{
    QkvGeneration,
    Projection,
    FeedForward,
};

/** Work of one kernel invocation. */
struct KernelWork
{
    double flops = 0.0;           ///< Floating-point operations.
    double weightBytes = 0.0;     ///< Parameters (or KV data) read.
    double activationBytes = 0.0; ///< Inputs read + outputs written.

    /** Bytes moved: weights plus activations. */
    double
    totalBytes() const
    {
        return weightBytes + activationBytes;
    }

    /** FLOPs per byte moved. */
    double
    arithmeticIntensity() const
    {
        double b = totalBytes();
        return b > 0.0 ? flops / b : 0.0;
    }
};

/**
 * Work of one FC sub-kernel for a whole decode iteration (all
 * layers), with @p tokens = RLP x TLP tokens in flight.
 */
KernelWork fcKernelWork(const ModelConfig &model, FcKernel kernel,
                        std::uint32_t tokens);

/** Combined FC work (QKV + projection + FFN) across all layers. */
KernelWork fcTotalWork(const ModelConfig &model, std::uint32_t tokens);

/**
 * Multi-head attention work for one decode iteration across all
 * layers: for each request, stream its K^T and V caches (length =
 * current sequence length) and compute TLP query rows against them.
 *
 * @param seq_lens Current context length of each live request.
 * @param tlp Speculation length (query rows per request).
 */
KernelWork attentionWork(const ModelConfig &model,
                         const std::vector<std::uint32_t> &seq_lens,
                         std::uint32_t tlp);

/** Attention work when all @p rlp requests share @p seq_len. */
KernelWork attentionWorkUniform(const ModelConfig &model,
                                std::uint32_t rlp,
                                std::uint32_t seq_len,
                                std::uint32_t tlp);

/**
 * The paper's exact FC arithmetic-intensity formula (Eq. 1) for a
 * square (h x h) FC layer with RLP x TLP input rows:
 *
 *   AI = (RLP*TLP*h^2*2) / ((2*RLP*TLP*h + h^2) * 2)
 */
double fcArithmeticIntensityExact(std::uint32_t hidden_dim,
                                  std::uint32_t rlp,
                                  std::uint32_t tlp);

/** The paper's low-cost estimate (Eq. 2): AI ~= RLP x TLP. */
double fcArithmeticIntensityEstimate(std::uint32_t rlp,
                                     std::uint32_t tlp);

} // namespace papi::llm

#endif // PAPI_LLM_KERNEL_SPEC_HH
