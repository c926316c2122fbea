/**
 * @file
 * Platform composition: PAPI and the baseline systems it is compared
 * against (paper Section 7.1).
 *
 * Every platform has 90 HBM devices: 30 holding FC weights and 60
 * holding KV caches. What differs is the compute attached to them
 * and the FC scheduling policy:
 *
 *  - A100+AttAcc: FC on 6 A100 GPUs (weights in plain GPU HBM),
 *    attention on AttAcc-style 1P1B PIM devices.
 *  - A100+HBM-PIM: as above with Samsung HBM-PIM (1P2B) attention
 *    devices.
 *  - AttAcc-only: FC and attention both on 1P1B PIM devices, no GPU.
 *  - PAPI: FC dynamically scheduled between GPU PUs and FC-PIM
 *    (4P1B, 12 GB) devices; attention on Attn-PIM (1P2B) devices.
 *  - PIM-only PAPI: FC always on FC-PIM, attention on Attn-PIM
 *    (the ablation of Fig. 11/12).
 *
 * Each Platform owns an execution-target registry (core::ExecTarget)
 * describing every compute resource it can run a kernel phase on -
 * "gpu", "fc-pim", "attn-pim" as configured - and one DispatchPolicy
 * per phase (prefill, FC, attention) selecting over that registry.
 */

#ifndef PAPI_CORE_PLATFORM_HH
#define PAPI_CORE_PLATFORM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dispatch_policy.hh"
#include "core/exec_target.hh"
#include "gpu/gpu_model.hh"
#include "interconnect/link.hh"
#include "llm/kernel_spec.hh"
#include "llm/model_config.hh"
#include "pim/pim_device.hh"

/**
 * @namespace papi
 * PAPI reproduction: GPU/PIM LLM-serving simulation.
 */
/**
 * @namespace papi::core
 * Platform composition, dynamic scheduling, and serving engines.
 */
namespace papi::core {

/** Structural description of a platform. */
struct PlatformConfig
{
    std::string name = "platform"; ///< Display/report name.

    /**
     * Per-phase dispatch policies over the target registry. Unset
     * (empty-target) policies are derived at Platform construction:
     * FC "threshold:fc-pim->gpu" (PAPI's dynamic rule), attention
     * pinned to "attn-pim", prefill pinned to "gpu" when present
     * else "fc-pim".
     */
    DispatchPolicy fcDispatch;      ///< FC phase policy.
    DispatchPolicy attnDispatch;    ///< Attention phase policy.
    DispatchPolicy prefillDispatch; ///< Prefill phase policy.

    /**
     * True if the system tracks runtime RLP (PAPI's token-level
     * <eos> counting, Section 5.2.2) and shrinks the FC token count
     * as requests finish. Static-batching baselines keep computing
     * the padded batch until it drains (the paper's Shortcoming 1);
     * this costs the GPU baselines almost nothing (their FC roofline
     * is flat in the memory-bound regime) but is ruinous for
     * PIM-executed FC, whose latency scales with tokens.
     */
    bool tracksRuntimeRlp = false;

    bool hasGpu = true;        ///< False for PIM-only systems.
    std::uint32_t numGpus = 6; ///< GPUs in the tensor-parallel group.
    gpu::GpuSpec gpuSpec;      ///< Per-GPU roofline parameters.

    /** Devices holding FC weights (GPU-attached). */
    pim::PimConfig fcDeviceConfig;
    std::uint32_t numFcDevices = 30; ///< Devices in the FC fleet.
    /** True if the FC devices have usable near-bank compute. */
    bool fcDevicesCompute = true;

    /** Disaggregated devices holding KV caches. */
    pim::PimConfig attnDeviceConfig;
    std::uint32_t numAttnDevices = 60; ///< Devices in the KV fleet.

    interconnect::Topology topology; ///< Fabric link classes.
    /** Parallel links aggregating the FC fabric. */
    std::uint32_t fcFabricLinks = 6;
    /** Parallel links aggregating the attention fabric. */
    std::uint32_t attnFabricLinks = 8;

    /**
     * Fraction of the shorter of the FC/attention phases that can
     * hide under the longer one via sub-batch interleaving (the
     * NeuPIMs/SpecPIM-style co-execution of related work). 0 = fully
     * serial phases (kernels within a layer are dependent); 1 =
     * perfect cross-layer pipelining. Applies only when the phases
     * run on different hardware (FC on GPU/FC-PIM vs attention on
     * Attn-PIM).
     */
    double phaseOverlapFraction = 0.0;

    /** Non-GEMV per-layer overhead (layernorm, residual), seconds. */
    double otherPerLayerSeconds = 0.5e-6;
    /** Per-iteration overhead (sampling, token gather), seconds. */
    double otherPerIterationSeconds = 30.0e-6;

    pim::PimEnergyParams pimEnergyParams; ///< PIM energy constants.
};

/** An instantiated platform with its device models. */
class Platform
{
  public:
    /** Instantiate the device models @p config describes. */
    explicit Platform(const PlatformConfig &config);

    /**
     * Non-copyable: the target registry's cost callbacks bind
     * `this`, so a copied or moved platform would dangle.
     */
    Platform(const Platform &) = delete;
    /** Non-copyable (see the copy constructor). */
    Platform &operator=(const Platform &) = delete;

    /** The structural description this platform was built from. */
    const PlatformConfig &config() const { return _config; }
    /** Display name (from the config). */
    const std::string &name() const { return _config.name; }
    /** True if the platform has GPU processing units. */
    bool hasGpu() const { return _config.hasGpu; }

    /** The FC-weight device model. */
    const pim::PimDevice &fcDevice() const { return *_fcDevice; }
    /** The KV-cache (attention) device model. */
    const pim::PimDevice &attnDevice() const { return *_attnDevice; }
    /** The GPU model, or nullptr for PIM-only platforms. */
    const gpu::GpuModel *gpuModel() const { return _gpu.get(); }

    /** GEMV replay work of the FC and attention devices' engines
     *  (pim::GemvWork; not a simulated result). */
    pim::GemvWork
    gemvWork() const
    {
        pim::GemvWork w = _fcDevice->gemvWork();
        w += _attnDevice->gemvWork();
        return w;
    }

    // ------------------------------------------ target registry

    /** The platform's execution targets, in registration order. */
    const TargetRegistry &targets() const { return _registry; }

    /** Id of the target named @p name; fatal if absent. */
    TargetId targetId(std::string_view name) const;

    /** The resolved dispatch policy for @p phase. */
    const DispatchPolicy &dispatchPolicy(Phase phase) const;

    /**
     * Bind @p phase's policy into a dispatcher with runtime
     * threshold @p alpha and optional AI-estimate override.
     */
    PhaseDispatcher dispatcher(Phase phase, double alpha = 0.0,
                               AiEstimateFn estimator = {}) const;

    /**
     * Verify the model's weights fit the FC devices and a batch's
     * peak KV cache fits the attention devices; fatal otherwise.
     */
    void validateFit(const llm::ModelConfig &model,
                     std::uint64_t peak_kv_bytes) const;

    // ------------------------------------------ phase execution

    /**
     * One decode iteration's FC phase (all layers, all sub-kernels)
     * with @p tokens = RLP x TLP tokens, on registry target @p id.
     */
    KernelExec fcExec(const llm::ModelConfig &model,
                      std::uint32_t tokens, TargetId id) const;

    /**
     * One decode iteration's attention phase over live contexts
     * @p ctx_lens with speculation length @p tlp, on registry
     * target @p id.
     */
    KernelExec attnExec(const llm::ModelConfig &model,
                        const std::vector<std::uint32_t> &ctx_lens,
                        std::uint32_t tlp, TargetId id) const;

    /** Attention phase on the platform's attention dispatch policy. */
    KernelExec attnExec(const llm::ModelConfig &model,
                        const std::vector<std::uint32_t> &ctx_lens,
                        std::uint32_t tlp) const;

    /** Prefill phase for @p input_lens on registry target @p id. */
    KernelExec prefillExec(const llm::ModelConfig &model,
                           const std::vector<std::uint32_t> &input_lens,
                           TargetId id) const;

    /** Prefill phase on the platform's prefill dispatch policy. */
    KernelExec prefillExec(const llm::ModelConfig &model,
                           const std::vector<std::uint32_t> &input_lens)
        const;

    /**
     * Incremental cost of one chunked-prefill step: each request i
     * has already prefilled @p prior_lens[i] prompt tokens and now
     * processes @p chunk_lens[i] more. Charged as the difference
     * between the full prefill of (prior + chunk) and of prior
     * alone, so prefill attention stays quadratic in the total
     * prompt (later chunks attend over earlier ones) and the chunks
     * of one prompt sum exactly to its monolithic prefill cost.
     * Vectors must be the same length; requests whose chunk is 0
     * contribute nothing.
     */
    KernelExec prefillChunkExec(
        const llm::ModelConfig &model,
        const std::vector<std::uint32_t> &prior_lens,
        const std::vector<std::uint32_t> &chunk_lens) const;

    /** Non-GEMV overhead of one decode iteration. */
    double otherSeconds(const llm::ModelConfig &model) const;

  private:
    void buildRegistry();
    void resolveDispatch();

    /** Validate one resolved policy against the registry. */
    void validatePolicy(Phase phase,
                        const DispatchPolicy &policy) const;

    KernelExec fcOnGpu(const llm::ModelConfig &model,
                       std::uint32_t tokens) const;
    KernelExec fcOnPim(const llm::ModelConfig &model,
                       std::uint32_t tokens) const;

    /** Per-layer activation round trip to the attention devices. */
    double attnCommSeconds(const llm::ModelConfig &model,
                           std::uint32_t tokens) const;

    KernelExec attnOnPim(const llm::ModelConfig &model,
                         const std::vector<std::uint32_t> &ctx_lens,
                         std::uint32_t tlp) const;

    KernelExec prefillOnGpu(const llm::ModelConfig &model,
                            const std::vector<std::uint32_t>
                                &input_lens) const;
    KernelExec prefillOnPim(const llm::ModelConfig &model,
                            const std::vector<std::uint32_t>
                                &input_lens) const;

    /** KV-cache write-out to the attention fleet (shared tail). */
    void addKvWriteout(std::uint64_t kv_bytes, KernelExec &out) const;

    /**
     * Memoization of the FC and prefill phase results. Each is a pure
     * function of the model's numeric shape and a handful of
     * workload scalars, and decode loops, oracle policies, and
     * threshold calibration re-ask the same FC token counts and
     * prompt shapes millions of times per figure run, while a cold
     * FC cost is tens of microseconds.
     *
     *  - FC: one dense table per (model, target), indexed by token
     *    count and filled lazily. Tokens are at most maxRlp x TLP
     *    on the serving path, so a hit is two array indexes.
     *  - Prefill: a hash on (model, sum, count, sum of squares) of
     *    the prompt lengths - the only aggregates a prefill cost
     *    reads, and unbounded, so no dense table fits. It is
     *    cleared wholesale if it ever grows pathologically large.
     *  - Attention: not memoized here. Its (context sum, count, TLP)
     *    shape grows every decode iteration and almost never
     *    repeats, and its expensive part, the command-stream
     *    replay, already hits pim::GemvEngine's memo on a bounded
     *    key.
     *
     * Both memos find the model by comparing its nine numeric shape
     * fields (ModelShape) against the models seen so far, so two
     * models can never share an entry.
     */
    using ModelShape = std::array<std::uint32_t, 9>;

    /** @p model's numeric shape fields. */
    static ModelShape
    modelShape(const llm::ModelConfig &model)
    {
        return {model.hiddenDim,     model.numLayers,
                model.numHeads,      model.ffnDim,
                model.ffnMatrices,   model.maxSeqLen,
                model.bytesPerParam, model.moeExperts,
                model.moeTopK};
    }

    /** Index of @p model's shape in _models (appended if new). The
     *  fields are compared one by one, in modelShape() order, which
     *  keeps this hot check free of a memcmp call. */
    std::size_t
    modelIndex(const llm::ModelConfig &model) const
    {
        for (std::size_t i = 0; i < _models.size(); ++i) {
            const ModelShape &s = _models[i].shape;
            if (s[0] == model.hiddenDim && s[1] == model.numLayers &&
                s[2] == model.numHeads && s[3] == model.ffnDim &&
                s[4] == model.ffnMatrices && s[5] == model.maxSeqLen &&
                s[6] == model.bytesPerParam &&
                s[7] == model.moeExperts && s[8] == model.moeTopK)
                return i;
        }
        return addModel(modelShape(model));
    }
    /** Append a model of @p shape to _models; returns its index. */
    std::size_t addModel(const ModelShape &shape) const;

    /** fcExec() miss: validate, compute, and store the entry of
     *  model index @p m. */
    KernelExec fcFill(const llm::ModelConfig &model, std::size_t m,
                      std::uint32_t tokens, TargetId id) const;

    /** One memoized FC cost (filled = computed). */
    struct FcEntry
    {
        KernelExec exec;
        bool filled = false;
    };

    /** A model seen by the memos: its shape and per-target FC
     *  tables (indexed by TargetId, then tokens). */
    struct ModelMemo
    {
        ModelShape shape{};
        std::vector<std::vector<FcEntry>> fc;
    };

    /** Integer aggregates of a prefill batch's prompt lengths. */
    struct PrefillShape
    {
        std::uint64_t sum = 0;   ///< Total prompt tokens.
        std::uint64_t count = 0; ///< Requests.
        std::uint64_t sumSq = 0; ///< Sum of squared lengths.

        /** Fold one prompt of @p len tokens in. */
        void
        add(std::uint32_t len)
        {
            sum += len;
            ++count;
            sumSq += static_cast<std::uint64_t>(len) * len;
        }

        bool operator==(const PrefillShape &) const = default;
    };

    /** Prefill memo key: model index, shape, target. */
    struct PrefillKey
    {
        std::uint64_t model = 0; ///< Index into _models.
        PrefillShape shape;
        TargetId target = 0;

        bool operator==(const PrefillKey &) const = default;
    };

    struct PrefillKeyHash
    {
        std::size_t operator()(const PrefillKey &k) const;
    };

    /**
     * Prefill cost of a batch with aggregates @p shape on target
     * @p id: the memoized value, or on a miss the target's cost over
     * the lengths @p lens() builds (called only then).
     */
    template <typename LensFn>
    KernelExec prefillCached(const llm::ModelConfig &model,
                             const PrefillShape &shape, TargetId id,
                             LensFn &&lens) const;

    PlatformConfig _config;
    std::unique_ptr<pim::PimDevice> _fcDevice;
    std::unique_ptr<pim::PimDevice> _attnDevice;
    std::unique_ptr<gpu::GpuModel> _gpu;

    TargetRegistry _registry;
    DispatchPolicy _fcDispatch;      ///< Resolved FC policy.
    DispatchPolicy _attnDispatch;    ///< Resolved attention policy.
    DispatchPolicy _prefillDispatch; ///< Resolved prefill policy.
    /** Pre-bound dispatchers for the alpha-free phases (hot path). */
    std::optional<PhaseDispatcher> _attnDispatcher;
    std::optional<PhaseDispatcher> _prefillDispatcher;

    /** Models the memos have seen, in first-use order. */
    mutable std::vector<ModelMemo> _models;

    // detlint: allow(unordered-decl): prefill memo cache with
    // find/emplace/clear only (Platform::prefillCached); a hit
    // returns the value stored for that key, and no code walks the
    // table, so bucket order cannot reach results or stats.
    mutable std::unordered_map<PrefillKey, KernelExec, PrefillKeyHash>
        _prefillCache;
};

/** Factory: the PAPI system (dynamic scheduling, hybrid PIM). */
PlatformConfig makePapiConfig();
/** Factory: A100+AttAcc baseline. */
PlatformConfig makeA100AttAccConfig();
/** Factory: A100+HBM-PIM baseline. */
PlatformConfig makeA100HbmPimConfig();
/** Factory: AttAcc-only baseline (PIM-only, 1P1B everywhere). */
PlatformConfig makeAttAccOnlyConfig();
/** Factory: PIM-only PAPI (hybrid PIM, no GPU; Fig. 11/12). */
PlatformConfig makePimOnlyPapiConfig();

} // namespace papi::core

#endif // PAPI_CORE_PLATFORM_HH
