#include "pim/pim_device.hh"

#include "sim/logging.hh"

namespace papi::pim {

PimDevice::PimDevice(const PimConfig &config,
                     const PimEnergyParams &params)
    : _config(config), _params(params), _gemv(config),
      _attn(config), _power(config, params), _layout(config)
{
}

PimKernelResult
PimDevice::fcGemv(std::uint64_t weight_bytes, std::uint32_t reuse,
                  std::uint32_t num_devices) const
{
    if (num_devices == 0)
        sim::fatal("PimDevice::fcGemv: zero devices");

    Partition part = _layout.partitionWeights(weight_bytes,
                                              num_devices);
    GemvResult g = _gemv.run(part.bytesPerBank, reuse);

    PimKernelResult out;
    out.seconds = sim::ticksToSeconds(g.ticks) + _launchOverhead;
    out.computeBound = g.computeBound;

    // Energy: the per-channel counts scale to all channels of all
    // participating devices (the shard is balanced).
    double channels = static_cast<double>(_config.pseudoChannels) *
                      static_cast<double>(num_devices);
    PimEnergyBreakdown e = pimGemvEnergy(_params, g.activations,
                                         g.streamedBytes, reuse);
    out.energy.dramAccess = e.dramAccess * channels;
    out.energy.transfer = e.transfer * channels;
    out.energy.compute = e.compute * channels;
    out.streamedBytes = g.streamedBytes *
                        static_cast<std::uint64_t>(channels);
    return out;
}

PimKernelResult
PimDevice::attention(std::uint64_t kv_bytes_total,
                     std::uint32_t num_heads, std::uint32_t tlp,
                     std::uint64_t score_elements,
                     std::uint32_t num_devices) const
{
    if (num_devices == 0)
        sim::fatal("PimDevice::attention: zero devices");
    if (kv_bytes_total == 0)
        return PimKernelResult{};

    std::uint64_t bytes_per_head =
        kv_bytes_total / std::max<std::uint32_t>(num_heads, 1);
    Partition part = _layout.partitionKvCache(bytes_per_head,
                                              num_heads, num_devices);

    // Softmax work on the busiest device.
    std::uint32_t heads_per_device =
        (num_heads + num_devices - 1) / num_devices;
    std::uint64_t scores_busiest =
        score_elements / std::max<std::uint32_t>(num_heads, 1) *
        heads_per_device;

    AttentionResult a = _attn.run(part.bytesPerBank, tlp,
                                  scores_busiest);

    PimKernelResult out;
    out.seconds = a.seconds + _launchOverhead;

    // Energy is proportional to total KV bytes streamed, regardless
    // of how they are spread: recompute from the fleet totals.
    const auto &org = _config.dramSpec.org;
    std::uint64_t rows =
        (kv_bytes_total + org.rowBytes - 1) / org.rowBytes;
    PimEnergyBreakdown e =
        pimGemvEnergy(_params, rows, kv_bytes_total, tlp);
    out.energy = e;
    out.streamedBytes = kv_bytes_total;
    return out;
}

} // namespace papi::pim
