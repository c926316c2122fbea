#include "core/platform.hh"

#include <algorithm>
#include <numeric>

#include "llm/moe.hh"
#include "sim/logging.hh"

namespace papi::core {

namespace {

/** FNV-1a folding of one 64-bit word. */
constexpr std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 0x100000001b3ULL;
}

/** Entry count at which the prefill memo is discarded wholesale. */
constexpr std::size_t prefillCacheMaxEntries = 1u << 20;

} // namespace

std::size_t
Platform::PrefillKeyHash::operator()(const PrefillKey &k) const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = hashCombine(h, k.model);
    h = hashCombine(h, k.shape.sum);
    h = hashCombine(h, k.shape.count);
    h = hashCombine(h, k.shape.sumSq);
    h = hashCombine(h, k.target);
    return static_cast<std::size_t>(h);
}

std::size_t
Platform::addModel(const ModelShape &shape) const
{
    ModelMemo m;
    m.shape = shape;
    m.fc.resize(_registry.size());
    _models.push_back(std::move(m));
    return _models.size() - 1;
}

template <typename LensFn>
KernelExec
Platform::prefillCached(const llm::ModelConfig &model,
                        const PrefillShape &shape, TargetId id,
                        LensFn &&lens) const
{
    const ExecTarget &target = _registry.at(id);
    if (!target.prefillCost)
        sim::fatal("Platform '", _config.name, "': target '",
                   target.name, "' cannot run the prefill phase");
    PrefillKey key;
    key.model = modelIndex(model);
    key.shape = shape;
    key.target = id;
    if (auto it = _prefillCache.find(key); it != _prefillCache.end()) {
        ++_memoWork.prefillHits;
        return it->second;
    }
    ++_memoWork.prefillMisses;
    KernelExec out = target.prefillCost(model, lens());
    if (_prefillCache.size() >= prefillCacheMaxEntries) {
        _prefillCache.clear();
        ++_memoWork.prefillClears;
    }
    _prefillCache.emplace(key, out);
    return out;
}

Platform::Platform(const PlatformConfig &config) : _config(config)
{
    if (_config.numFcDevices == 0 || _config.numAttnDevices == 0)
        sim::fatal("Platform '", _config.name, "': device counts must "
                   "be nonzero");
    if (!_config.hasGpu && !_config.fcDevicesCompute)
        sim::fatal("Platform '", _config.name, "': no compute at all "
                   "for FC kernels");
    // FC/attention kernel timings divide by these links' bandwidth;
    // a degenerate link would poison every timestamp downstream.
    _config.topology.gpuFabric.validate();
    _config.topology.attnFabric.validate();
    _config.topology.hostLink.validate();

    _fcDevice = std::make_unique<pim::PimDevice>(
        _config.fcDeviceConfig, _config.pimEnergyParams);
    _attnDevice = std::make_unique<pim::PimDevice>(
        _config.attnDeviceConfig, _config.pimEnergyParams);
    if (_config.hasGpu) {
        _gpu = std::make_unique<gpu::GpuModel>(
            _config.gpuSpec, _config.numGpus,
            _config.topology.gpuFabric.bandwidthBytesPerSec / 1e9);
    }

    buildRegistry();
    resolveDispatch();
    _attnDispatcher.emplace(*this, Phase::Attention);
    _prefillDispatcher.emplace(*this, Phase::Prefill);
}

void
Platform::buildRegistry()
{
    if (_config.hasGpu) {
        ExecTarget t;
        t.name = "gpu";
        t.kind = TargetKind::Gpu;
        t.fcCost = [this](const llm::ModelConfig &m,
                          std::uint32_t tokens) {
            return fcOnGpu(m, tokens);
        };
        t.prefillCost = [this](const llm::ModelConfig &m,
                               const std::vector<std::uint32_t> &l) {
            return prefillOnGpu(m, l);
        };
        _registry.add(std::move(t));
    }
    if (_config.fcDevicesCompute) {
        ExecTarget t;
        t.name = "fc-pim";
        t.kind = TargetKind::FcPim;
        t.fcCost = [this](const llm::ModelConfig &m,
                          std::uint32_t tokens) {
            return fcOnPim(m, tokens);
        };
        t.prefillCost = [this](const llm::ModelConfig &m,
                               const std::vector<std::uint32_t> &l) {
            return prefillOnPim(m, l);
        };
        _registry.add(std::move(t));
    }
    {
        ExecTarget t;
        t.name = "attn-pim";
        t.kind = TargetKind::AttnPim;
        t.attnCost = [this](const llm::ModelConfig &m,
                            std::uint64_t ctx_sum,
                            std::uint32_t requests, std::uint32_t tlp) {
            return attnOnPim(m, ctx_sum, requests, tlp);
        };
        _registry.add(std::move(t));
    }
}

void
Platform::validatePolicy(Phase phase,
                         const DispatchPolicy &policy) const
{
    if (policy.targets.empty())
        sim::fatal("Platform '", _config.name, "': ", phaseName(phase),
                   " dispatch policy has no targets");
    if (policy.rule == DispatchRule::Static &&
        policy.targets.size() != 1)
        sim::fatal("Platform '", _config.name, "': static ",
                   phaseName(phase), " dispatch pins exactly one "
                   "target, got ", policy.targets.size());
    if (policy.rule == DispatchRule::Threshold &&
        policy.targets.size() != 2)
        sim::fatal("Platform '", _config.name, "': threshold ",
                   phaseName(phase), " dispatch needs a target pair, "
                   "got ", policy.targets.size());
    if (policy.rule == DispatchRule::Threshold &&
        policy.targets[0] == policy.targets[1])
        sim::fatal("Platform '", _config.name, "': threshold ",
                   phaseName(phase), " dispatch pair must name two "
                   "different targets ('", policy.targets[0], "')");
    // The threshold rule needs the runtime-calibrated alpha, which
    // engines plumb for the FC phase only; a threshold policy on the
    // alpha-free phases would silently degrade to a static pin.
    if (policy.rule == DispatchRule::Threshold && phase != Phase::Fc)
        sim::fatal("Platform '", _config.name, "': threshold "
                   "dispatch is only supported for the fc phase "
                   "(no runtime alpha is plumbed for ",
                   phaseName(phase), "); use static or oracle");
    if (policy.rule == DispatchRule::Oracle &&
        policy.targets.size() < 2)
        sim::fatal("Platform '", _config.name, "': oracle ",
                   phaseName(phase), " dispatch races two or more "
                   "targets, got ", policy.targets.size());
    for (const std::string &name : policy.targets) {
        auto id = _registry.find(name);
        if (!id)
            sim::fatal("Platform '", _config.name, "': ",
                       phaseName(phase), " dispatch names target '",
                       name, "', which this platform does not "
                       "provide");
        if (!_registry.at(*id).supports(phase))
            sim::fatal("Platform '", _config.name, "': target '",
                       name, "' cannot run the ", phaseName(phase),
                       " phase");
    }
}

void
Platform::resolveDispatch()
{
    _fcDispatch = _config.fcDispatch.configured()
                      ? _config.fcDispatch
                      : thresholdDispatch("fc-pim", "gpu");
    _attnDispatch = _config.attnDispatch.configured()
                        ? _config.attnDispatch
                        : staticDispatch("attn-pim");
    _prefillDispatch =
        _config.prefillDispatch.configured()
            ? _config.prefillDispatch
            : staticDispatch(_config.hasGpu ? "gpu" : "fc-pim");

    validatePolicy(Phase::Fc, _fcDispatch);
    validatePolicy(Phase::Attention, _attnDispatch);
    validatePolicy(Phase::Prefill, _prefillDispatch);
}

TargetId
Platform::targetId(std::string_view name) const
{
    return _registry.require(name);
}

const DispatchPolicy &
Platform::dispatchPolicy(Phase phase) const
{
    switch (phase) {
      case Phase::Prefill: return _prefillDispatch;
      case Phase::Fc: return _fcDispatch;
      case Phase::Attention: return _attnDispatch;
    }
    sim::panic("Platform: bad phase");
}

PhaseDispatcher
Platform::dispatcher(Phase phase, double alpha,
                     AiEstimateFn estimator) const
{
    return PhaseDispatcher(*this, phase, alpha, std::move(estimator));
}

void
Platform::validateFit(const llm::ModelConfig &model,
                      std::uint64_t peak_kv_bytes) const
{
    std::uint64_t fc_capacity =
        _config.fcDeviceConfig.capacityBytes() * _config.numFcDevices;
    if (model.totalFcBytes() > fc_capacity)
        sim::fatal("Platform '", _config.name, "': model ", model.name,
                   " weights (", model.totalFcBytes(),
                   " B) exceed FC device capacity (", fc_capacity,
                   " B)");

    std::uint64_t kv_capacity =
        _config.attnDeviceConfig.capacityBytes() *
        _config.numAttnDevices;
    if (peak_kv_bytes > kv_capacity)
        sim::fatal("Platform '", _config.name, "': peak KV cache (",
                   peak_kv_bytes, " B) exceeds attention device "
                   "capacity (", kv_capacity, " B)");
}

KernelExec
Platform::fcOnGpu(const llm::ModelConfig &model,
                  std::uint32_t tokens) const
{
    if (!_gpu)
        sim::panic("Platform '", _config.name, "': fcOnGpu without a "
                   "GPU");

    llm::KernelWork w = llm::fcTotalWork(model, tokens);
    // Two tensor-parallel reductions per layer (projection and FFN
    // down-projection outputs).
    double output_bytes = 2.0 * model.numLayers *
                          static_cast<double>(tokens) *
                          model.hiddenDim * model.bytesPerParam;
    gpu::GpuKernelResult g = _gpu->kernel(
        w.flops, w.weightBytes + w.activationBytes, output_bytes);

    KernelExec out;
    out.seconds = g.seconds;
    out.energyJoules = g.energyJoules;
    out.computeBound = g.computeBound;
    return out;
}

KernelExec
Platform::fcOnPim(const llm::ModelConfig &model,
                  std::uint32_t tokens) const
{
    if (!_config.fcDevicesCompute)
        sim::fatal("Platform '", _config.name, "': FC devices have no "
                   "near-bank compute");

    pim::PimKernelResult p;
    if (model.isMoe()) {
        // The dense sub-kernels (QKV, projection) reuse weights for
        // all tokens; the expert FFNs stream only the touched
        // experts at their per-expert reuse (Section 6.5).
        std::uint64_t dense_bytes = 4ULL * model.hiddenDim *
                                    model.hiddenDim *
                                    model.bytesPerParam *
                                    model.numLayers;
        double active = llm::expectedActiveExperts(model, tokens);
        auto ffn_bytes = static_cast<std::uint64_t>(
            active * static_cast<double>(model.ffnParamsPerExpert()) *
            model.bytesPerParam * model.numLayers);
        auto ffn_reuse = static_cast<std::uint32_t>(
            std::max(1.0, llm::moeFfnReuse(model, tokens) + 0.5));
        pim::PimKernelResult dense = _fcDevice->fcGemv(
            dense_bytes, tokens, _config.numFcDevices);
        pim::PimKernelResult moe = _fcDevice->fcGemv(
            ffn_bytes, ffn_reuse, _config.numFcDevices);
        p.seconds = dense.seconds + moe.seconds;
        p.computeBound = dense.computeBound || moe.computeBound;
        p.energy.dramAccess =
            dense.energy.dramAccess + moe.energy.dramAccess;
        p.energy.transfer = dense.energy.transfer + moe.energy.transfer;
        p.energy.compute = dense.energy.compute + moe.energy.compute;
        p.streamedBytes = dense.streamedBytes + moe.streamedBytes;
    } else {
        p = _fcDevice->fcGemv(model.totalFcBytes(), tokens,
                              _config.numFcDevices);
    }

    // Per-layer activation staging over the FC fabric: each of the
    // three FC sub-kernel groups ships its inputs in and partial
    // outputs out, and cross-device partial sums are reduced.
    const auto &link = _config.topology.gpuFabric;
    double agg_bw = link.bandwidthBytesPerSec *
                    std::max<std::uint32_t>(_config.fcFabricLinks, 1);
    double act_bytes = static_cast<double>(tokens) * model.hiddenDim *
                       model.bytesPerParam;
    double per_layer =
        3.0 * (link.latencySeconds + link.messageOverheadSeconds +
               2.0 * act_bytes / agg_bw);
    double comm_seconds = per_layer * model.numLayers;
    double comm_bytes = 3.0 * 2.0 * act_bytes * model.numLayers;

    KernelExec out;
    out.commSeconds = comm_seconds;
    out.seconds = p.seconds + comm_seconds;
    out.computeBound = p.computeBound;
    out.commJoules = comm_bytes * link.energyPerByte;

    double static_j = _config.fcDeviceConfig.totalFpus() *
                      _config.pimEnergyParams.fpuStaticPowerPerFpu *
                      _config.numFcDevices * p.seconds;
    out.energyJoules = p.energy.total() + static_j + out.commJoules;
    return out;
}

KernelExec
Platform::fcExec(const llm::ModelConfig &model, std::uint32_t tokens,
                 TargetId id) const
{
    // A filled entry proves the target was checked when it was
    // computed, so a hit skips straight to the table.
    const std::size_t m = modelIndex(model);
    const std::vector<std::vector<FcEntry>> &tables = _models[m].fc;
    if (id < tables.size()) {
        const std::vector<FcEntry> &table = tables[id];
        if (tokens < table.size() && table[tokens].filled)
            return table[tokens].exec;
    }
    return fcFill(model, m, tokens, id);
}

KernelExec
Platform::fcFill(const llm::ModelConfig &model, std::size_t m,
                 std::uint32_t tokens, TargetId id) const
{
    if (tokens == 0)
        sim::fatal("Platform::fcExec: zero tokens");
    const ExecTarget &target = _registry.at(id);
    if (!target.fcCost)
        sim::fatal("Platform '", _config.name, "': target '",
                   target.name, "' cannot run the fc phase");
    std::vector<FcEntry> &table = _models[m].fc[id];
    if (tokens >= table.size())
        table.resize(static_cast<std::size_t>(tokens) + 1);
    FcEntry &e = table[tokens];
    e.exec = target.fcCost(model, tokens);
    e.filled = true;
    ++_memoWork.fcFills;
    return e.exec;
}

double
Platform::attnCommSeconds(const llm::ModelConfig &model,
                          std::uint32_t tokens) const
{
    const auto &link = _config.topology.attnFabric;
    double agg_bw =
        link.bandwidthBytesPerSec *
        std::max<std::uint32_t>(_config.attnFabricLinks, 1);
    double act_bytes = static_cast<double>(tokens) * model.hiddenDim *
                       model.bytesPerParam;
    // Q vectors out, context vectors back, each layer. GPU-less
    // platforms stage through the host (two hops per direction).
    double hops = _config.hasGpu ? 1.0 : 2.0;
    double per_layer =
        2.0 * hops *
        (link.latencySeconds + link.messageOverheadSeconds +
         act_bytes / agg_bw);
    return per_layer * model.numLayers;
}

KernelExec
Platform::attnExec(const llm::ModelConfig &model, std::uint64_t ctx_sum,
                   std::uint32_t requests, std::uint32_t tlp,
                   TargetId id) const
{
    if (requests == 0)
        sim::fatal("Platform::attnExec: no live requests");
    const ExecTarget &target = _registry.at(id);
    if (!target.attnCost)
        sim::fatal("Platform '", _config.name, "': target '",
                   target.name, "' cannot run the attention phase");
    // Not memoized here: the context sum grows every decode
    // iteration, so a (sum, count, TLP) key almost never repeats,
    // while the command-stream replay underneath is already memoized
    // by pim::GemvEngine on a bounded key.
    return target.attnCost(model, ctx_sum, requests, tlp);
}

KernelExec
Platform::attnExec(const llm::ModelConfig &model, std::uint64_t ctx_sum,
                   std::uint32_t requests, std::uint32_t tlp) const
{
    if (requests == 0)
        sim::fatal("Platform::attnExec: no live requests");
    return attnExec(model, ctx_sum, requests, tlp,
                    _attnDispatcher
                        ->selectAttention(model, ctx_sum, requests, tlp)
                        .target);
}

KernelExec
Platform::attnExec(const llm::ModelConfig &model,
                   const std::vector<std::uint32_t> &ctx_lens,
                   std::uint32_t tlp, TargetId id) const
{
    return attnExec(model,
                    std::accumulate(ctx_lens.begin(), ctx_lens.end(),
                                    std::uint64_t{0}),
                    static_cast<std::uint32_t>(ctx_lens.size()), tlp, id);
}

KernelExec
Platform::attnExec(const llm::ModelConfig &model,
                   const std::vector<std::uint32_t> &ctx_lens,
                   std::uint32_t tlp) const
{
    return attnExec(model,
                    std::accumulate(ctx_lens.begin(), ctx_lens.end(),
                                    std::uint64_t{0}),
                    static_cast<std::uint32_t>(ctx_lens.size()), tlp);
}

KernelExec
Platform::attnOnPim(const llm::ModelConfig &model, std::uint64_t ctx_sum,
                    std::uint32_t requests, std::uint32_t tlp) const
{
    std::uint64_t kv_bytes = ctx_sum * model.kvBytesPerToken();
    std::uint64_t score_elems = ctx_sum * tlp * model.numHeads *
                                model.numLayers;

    pim::PimKernelResult p = _attnDevice->attention(
        kv_bytes, model.numHeads, tlp, score_elems,
        _config.numAttnDevices);

    std::uint32_t tokens = requests * tlp;
    double comm_seconds = attnCommSeconds(model, tokens);
    double comm_bytes = 2.0 * static_cast<double>(tokens) *
                        model.hiddenDim * model.bytesPerParam *
                        model.numLayers;

    KernelExec out;
    out.commSeconds = comm_seconds;
    out.seconds = p.seconds + comm_seconds;
    out.computeBound = p.computeBound;
    out.commJoules =
        comm_bytes * _config.topology.attnFabric.energyPerByte;

    double static_j = _config.attnDeviceConfig.totalFpus() *
                      _config.pimEnergyParams.fpuStaticPowerPerFpu *
                      _config.numAttnDevices * p.seconds;
    out.energyJoules = p.energy.total() + static_j + out.commJoules;
    return out;
}

KernelExec
Platform::prefillExec(const llm::ModelConfig &model,
                      const std::vector<std::uint32_t> &input_lens,
                      TargetId id) const
{
    if (input_lens.empty())
        sim::fatal("Platform::prefillExec: no requests");
    // The result depends on input_lens only through the total length,
    // the sum of squared lengths (prefill attention FLOPs), and the
    // request count.
    PrefillShape shape;
    for (std::uint32_t len : input_lens)
        shape.add(len);
    return prefillCached(model, shape, id,
                         [&]() -> const std::vector<std::uint32_t> & {
                             return input_lens;
                         });
}

KernelExec
Platform::prefillExec(const llm::ModelConfig &model,
                      const std::vector<std::uint32_t> &input_lens)
    const
{
    if (input_lens.empty())
        sim::fatal("Platform::prefillExec: no requests");
    return prefillExec(
        model, input_lens,
        _prefillDispatcher->selectPrefill(model, input_lens).target);
}

KernelExec
Platform::prefillChunkExec(
    const llm::ModelConfig &model,
    const std::vector<std::uint32_t> &prior_lens,
    const std::vector<std::uint32_t> &chunk_lens) const
{
    const std::size_t n = prior_lens.size();
    if (chunk_lens.size() != n)
        sim::fatal("Platform::prefillChunkExec: prior/chunk length "
                   "mismatch");
    // The "after" batch holds prior + chunk of every request with a
    // nonzero chunk, the "before" batch the nonzero priors among
    // them. Their memo keys come straight from the columns; the
    // length vectors are built only when a cost must be computed.
    PrefillShape after;
    PrefillShape before;
    for (std::size_t i = 0; i < n; ++i) {
        if (chunk_lens[i] == 0)
            continue;
        after.add(prior_lens[i] + chunk_lens[i]);
        if (prior_lens[i] > 0)
            before.add(prior_lens[i]);
    }
    KernelExec out;
    if (after.count == 0)
        return out;
    const auto after_lens = [&] {
        std::vector<std::uint32_t> lens;
        lens.reserve(after.count);
        for (std::size_t i = 0; i < n; ++i) {
            if (chunk_lens[i] != 0)
                lens.push_back(prior_lens[i] + chunk_lens[i]);
        }
        return lens;
    };
    const auto before_lens = [&] {
        std::vector<std::uint32_t> lens;
        lens.reserve(before.count);
        for (std::size_t i = 0; i < n; ++i) {
            if (chunk_lens[i] != 0 && prior_lens[i] > 0)
                lens.push_back(prior_lens[i]);
        }
        return lens;
    };
    // Both endpoints are costed on the SAME target - the one the
    // prefill dispatcher picks for the full (after) batch -
    // otherwise a non-static prefill policy could dispatch the two
    // batches differently and make the difference meaningless. A
    // static policy needs no lengths to pick.
    const TargetId target =
        _prefillDispatcher->rule() == DispatchRule::Static
            ? _prefillDispatcher->candidates().front()
            : _prefillDispatcher->selectPrefill(model, after_lens())
                  .target;
    out = prefillCached(model, after, target, after_lens);
    if (before.count > 0) {
        KernelExec prior =
            prefillCached(model, before, target, before_lens);
        out.seconds = std::max(out.seconds - prior.seconds, 0.0);
        out.commSeconds =
            std::max(out.commSeconds - prior.commSeconds, 0.0);
        out.energyJoules =
            std::max(out.energyJoules - prior.energyJoules, 0.0);
        out.commJoules =
            std::max(out.commJoules - prior.commJoules, 0.0);
    }
    return out;
}

void
Platform::addKvWriteout(std::uint64_t kv_bytes, KernelExec &out) const
{
    // KV cache write-out to the attention devices.
    const auto &link = _config.topology.attnFabric;
    double agg_bw =
        link.bandwidthBytesPerSec *
        std::max<std::uint32_t>(_config.attnFabricLinks, 1);
    double kv_write = static_cast<double>(kv_bytes) / agg_bw;
    out.seconds += kv_write;
    out.commSeconds += kv_write;
    out.commJoules += static_cast<double>(kv_bytes) *
                      link.energyPerByte;
    out.energyJoules += static_cast<double>(kv_bytes) *
                        link.energyPerByte;
}

KernelExec
Platform::prefillOnGpu(const llm::ModelConfig &model,
                       const std::vector<std::uint32_t> &input_lens)
    const
{
    if (!_gpu)
        sim::panic("Platform '", _config.name, "': prefillOnGpu "
                   "without a GPU");

    std::uint64_t total_tokens = std::accumulate(
        input_lens.begin(), input_lens.end(), std::uint64_t{0});
    // Prefill attention: per request, L x L score work per layer.
    double attn_flops = 0.0;
    std::uint64_t kv_bytes = 0;
    for (std::uint32_t len : input_lens) {
        double L = len;
        attn_flops += 4.0 * L * L * model.hiddenDim * model.numLayers;
        kv_bytes += static_cast<std::uint64_t>(len) *
                    model.kvBytesPerToken();
    }

    llm::KernelWork w = llm::fcTotalWork(
        model,
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            total_tokens, 1u << 20)));
    gpu::GpuKernelResult g = _gpu->kernel(
        w.flops + attn_flops,
        w.weightBytes + w.activationBytes +
            static_cast<double>(kv_bytes),
        0.0);
    KernelExec out;
    out.seconds = g.seconds;
    out.energyJoules = g.energyJoules;
    out.computeBound = g.computeBound;

    addKvWriteout(kv_bytes, out);
    return out;
}

KernelExec
Platform::prefillOnPim(const llm::ModelConfig &model,
                       const std::vector<std::uint32_t> &input_lens)
    const
{
    std::uint64_t total_tokens = std::accumulate(
        input_lens.begin(), input_lens.end(), std::uint64_t{0});
    std::uint64_t kv_bytes = 0;
    for (std::uint32_t len : input_lens)
        kv_bytes += static_cast<std::uint64_t>(len) *
                    model.kvBytesPerToken();

    // PIM-only platforms prefill on the PIM fleet.
    std::uint32_t tokens = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(total_tokens, 1u << 20));
    KernelExec fc = fcOnPim(model, tokens);
    // Attention prefill: reuse grows with the average context;
    // approximate with the mean prompt length as TLP.
    std::uint32_t mean_len = static_cast<std::uint32_t>(
        total_tokens / input_lens.size());
    KernelExec at = attnExec(
        model, total_tokens, static_cast<std::uint32_t>(input_lens.size()),
        std::max<std::uint32_t>(mean_len, 1));
    KernelExec out;
    out.seconds = fc.seconds + at.seconds;
    out.commSeconds = fc.commSeconds + at.commSeconds;
    out.energyJoules = fc.energyJoules + at.energyJoules;
    out.commJoules = fc.commJoules + at.commJoules;

    addKvWriteout(kv_bytes, out);
    return out;
}

double
Platform::otherSeconds(const llm::ModelConfig &model) const
{
    return _config.otherPerIterationSeconds +
           _config.otherPerLayerSeconds * model.numLayers;
}

namespace {

PlatformConfig
baseConfig()
{
    PlatformConfig cfg;
    cfg.gpuSpec = gpu::a100Spec();
    cfg.numGpus = 6;
    cfg.numFcDevices = 30;
    cfg.numAttnDevices = 60;
    cfg.topology.gpuFabric = interconnect::nvlink();
    cfg.topology.attnFabric = interconnect::pcie5();
    cfg.fcFabricLinks = 6;  // one NVLink group per GPU
    cfg.attnFabricLinks = 8; // PCIe switch complex
    return cfg;
}

} // namespace

PlatformConfig
makePapiConfig()
{
    PlatformConfig cfg = baseConfig();
    cfg.name = "papi";
    cfg.fcDispatch = dispatchPolicyFromName("threshold:fc-pim->gpu");
    cfg.tracksRuntimeRlp = true;
    cfg.hasGpu = true;
    cfg.fcDeviceConfig = pim::fcPimConfig();
    cfg.fcDevicesCompute = true;
    cfg.attnDeviceConfig = pim::attnPimConfig();
    return cfg;
}

PlatformConfig
makeA100AttAccConfig()
{
    PlatformConfig cfg = baseConfig();
    cfg.name = "a100+attacc";
    cfg.fcDispatch = dispatchPolicyFromName("static:gpu");
    cfg.hasGpu = true;
    // Weights live in plain GPU HBM: model as AttAcc stacks with
    // near-bank compute disabled.
    cfg.fcDeviceConfig = pim::attAccConfig();
    cfg.fcDeviceConfig.name = "gpu-hbm";
    cfg.fcDevicesCompute = false;
    cfg.attnDeviceConfig = pim::attAccConfig();
    return cfg;
}

PlatformConfig
makeA100HbmPimConfig()
{
    PlatformConfig cfg = makeA100AttAccConfig();
    cfg.name = "a100+hbm-pim";
    cfg.attnDeviceConfig = pim::hbmPimConfig();
    return cfg;
}

PlatformConfig
makeAttAccOnlyConfig()
{
    PlatformConfig cfg = baseConfig();
    cfg.name = "attacc-only";
    cfg.fcDispatch = dispatchPolicyFromName("static:fc-pim");
    cfg.hasGpu = false;
    cfg.fcDeviceConfig = pim::attAccConfig();
    cfg.fcDevicesCompute = true;
    cfg.attnDeviceConfig = pim::attAccConfig();
    // No GPU fabric: PIM devices hang off the host complex.
    cfg.topology.gpuFabric = interconnect::pcie5();
    return cfg;
}

PlatformConfig
makePimOnlyPapiConfig()
{
    PlatformConfig cfg = makeAttAccOnlyConfig();
    cfg.name = "pim-only-papi";
    cfg.fcDeviceConfig = pim::fcPimConfig();
    cfg.attnDeviceConfig = pim::attnPimConfig();
    return cfg;
}

} // namespace papi::core
