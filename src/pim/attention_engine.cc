#include "pim/attention_engine.hh"

#include "sim/logging.hh"

namespace papi::pim {

AttentionEngine::AttentionEngine(const PimConfig &config)
    : _config(config), _gemv(config)
{
    // Buffer-die vector unit: 16 lanes at the FPU clock handling
    // exp/normalise at one element per lane-cycle, per pseudo-channel.
    _softmaxElemsPerSec = static_cast<double>(_config.fpu.lanes) *
                          _config.fpu.clockMhz * 1e6 *
                          static_cast<double>(_config.pseudoChannels);
}

AttentionResult
AttentionEngine::run(std::uint64_t kv_bytes_per_bank, std::uint32_t tlp,
                     std::uint64_t score_elements) const
{
    if (tlp == 0)
        sim::fatal("AttentionEngine: tlp must be >= 1");

    AttentionResult out;
    if (kv_bytes_per_bank == 0)
        return out;

    GemvResult g = _gemv.run(kv_bytes_per_bank, tlp);
    out.gemvSeconds = sim::ticksToSeconds(g.ticks);
    out.softmaxSeconds = static_cast<double>(score_elements) /
                         _softmaxElemsPerSec;
    // The softmax of the scores must complete before the context
    // GEMV can consume them; we charge it serially (it is small).
    out.seconds = out.gemvSeconds + out.softmaxSeconds;

    // Appending this iteration's K/V vectors: tlp new tokens per
    // live head-shard, written at the banks' write cadence. Small
    // next to the stream, but physical.
    double write_bytes_per_bank =
        static_cast<double>(tlp) * _config.fpu.lanes * 2.0;
    double bank_write_bw =
        static_cast<double>(_config.dramSpec.org.accessBytes) /
        sim::ticksToSeconds(_config.dramSpec.timing.tCCD_S);
    out.kvWriteSeconds = write_bytes_per_bank / bank_write_bw;
    out.seconds += out.kvWriteSeconds;
    return out;
}

} // namespace papi::pim
