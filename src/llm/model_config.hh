/**
 * @file
 * Transformer model descriptions for the workloads the paper
 * evaluates: LLaMA-65B, GPT-3 66B, GPT-3 175B (evaluation) and
 * OPT-30B (the motivation rooflines of Fig. 2).
 */

#ifndef PAPI_LLM_MODEL_CONFIG_HH
#define PAPI_LLM_MODEL_CONFIG_HH

#include <cstdint>
#include <string>

namespace papi::llm {

/** A decoder-only transformer configuration (FP16 inference). */
struct ModelConfig
{
    std::string name = "model";    ///< Display name.
    std::uint32_t hiddenDim = 0;   ///< h.
    std::uint32_t numLayers = 0;   ///< Decoder blocks.
    std::uint32_t numHeads = 0;    ///< Attention heads.
    std::uint32_t ffnDim = 0;      ///< FFN inner dimension.
    std::uint32_t ffnMatrices = 2; ///< 2 for GELU MLP, 3 for SwiGLU.
    std::uint32_t maxSeqLen = 2048; ///< Longest context, tokens.
    std::uint32_t bytesPerParam = 2; ///< FP16.

    /** Mixture-of-Experts FFN: expert count (0 = dense model). */
    std::uint32_t moeExperts = 0;
    /** Experts routed per token (top-k). */
    std::uint32_t moeTopK = 0;

    /** True for a Mixture-of-Experts FFN. */
    bool isMoe() const { return moeExperts > 0; }

    /** Per-head dimension, h / heads. */
    std::uint32_t
    headDim() const
    {
        return hiddenDim / numHeads;
    }

    /** FFN parameters of one expert (or of the dense FFN). */
    std::uint64_t
    ffnParamsPerExpert() const
    {
        return static_cast<std::uint64_t>(ffnMatrices) * hiddenDim *
               ffnDim;
    }

    /** FC weight parameters resident per decoder layer:
     *  QKV (3 h^2) + projection (h^2) + FFN matrices (all experts
     *  for MoE models). */
    std::uint64_t
    fcParamsPerLayer() const
    {
        std::uint64_t h = hiddenDim;
        std::uint64_t experts = isMoe() ? moeExperts : 1;
        return 4 * h * h + experts * ffnParamsPerExpert();
    }

    /** FC weight bytes per decoder layer. */
    std::uint64_t
    fcBytesPerLayer() const
    {
        return fcParamsPerLayer() * bytesPerParam;
    }

    /** Total FC weight bytes across all layers. */
    std::uint64_t
    totalFcBytes() const
    {
        return fcBytesPerLayer() * numLayers;
    }

    /** Total parameter count (FC weights; embeddings excluded). */
    std::uint64_t
    totalParams() const
    {
        return fcParamsPerLayer() * numLayers;
    }

    /** KV-cache bytes added per token per layer (K and V vectors). */
    std::uint64_t
    kvBytesPerTokenPerLayer() const
    {
        return 2ULL * hiddenDim * bytesPerParam;
    }

    /** KV-cache bytes per token across all layers. */
    std::uint64_t
    kvBytesPerToken() const
    {
        return kvBytesPerTokenPerLayer() * numLayers;
    }
};

/** LLaMA-65B: h=8192, 80 layers, 64 heads, SwiGLU FFN (22016). */
ModelConfig llama65b();

/** GPT-3 66B-class: h=9216, 64 layers, 72 heads, GELU MLP (4h). */
ModelConfig gpt3_66b();

/** GPT-3 175B: h=12288, 96 layers, 96 heads, GELU MLP (4h). */
ModelConfig gpt3_175b();

/** OPT-30B: h=7168, 48 layers, 56 heads, GELU MLP (4h). */
ModelConfig opt30b();

} // namespace papi::llm

#endif // PAPI_LLM_MODEL_CONFIG_HH
