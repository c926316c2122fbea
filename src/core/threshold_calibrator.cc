#include "core/threshold_calibrator.hh"

#include "sim/logging.hh"

namespace papi::core {

CalibrationResult
ThresholdCalibrator::calibrate(const Platform &platform,
                               const llm::ModelConfig &model,
                               std::uint32_t max_tokens)
{
    TargetPair pair;
    if (platform.dispatchPolicy(Phase::Fc).rule ==
        DispatchRule::Threshold) {
        pair = platform.dispatcher(Phase::Fc, 1.0).pair();
    } else {
        // Static or oracle FC policy: the paper's (FC-PIM, GPU) pair.
        pair.below = platform.targetId("fc-pim");
        pair.above = platform.targetId("gpu");
    }
    return calibratePair(platform, model, pair, max_tokens);
}

CalibrationResult
ThresholdCalibrator::calibratePair(const Platform &platform,
                                   const llm::ModelConfig &model,
                                   TargetPair pair,
                                   std::uint32_t max_tokens)
{
    const TargetRegistry &reg = platform.targets();
    if (pair.below == pair.above)
        sim::fatal("ThresholdCalibrator: the pair must name two "
                   "different targets");
    for (TargetId id : {pair.below, pair.above}) {
        if (!reg.at(id).supports(Phase::Fc))
            sim::fatal("ThresholdCalibrator: target '",
                       reg.at(id).name, "' cannot run the FC phase");
    }
    if (max_tokens == 0)
        sim::fatal("ThresholdCalibrator: max_tokens must be >= 1");

    CalibrationResult out;
    out.pair = pair;
    // Geometric sweep + binary refinement: ~2 log2(max_tokens) points.
    out.points.reserve(64);

    auto sample = [&](std::uint32_t tokens) {
        CalibrationPoint p;
        p.tokens = tokens;
        p.belowSeconds =
            platform.fcExec(model, tokens, pair.below).seconds;
        p.aboveSeconds =
            platform.fcExec(model, tokens, pair.above).seconds;
        out.points.push_back(p);
        return p;
    };

    // Coarse geometric sweep to bracket the crossover.
    std::uint32_t lo = 1;
    std::uint32_t hi = 0;
    CalibrationPoint prev = sample(1);
    if (prev.aboveSeconds < prev.belowSeconds) {
        // The compute side already wins at tokens=1: everything is
        // compute-bound from the scheduler's perspective.
        out.alpha = 0.5;
        return out;
    }
    for (std::uint32_t t = 2; t <= max_tokens; t *= 2) {
        CalibrationPoint p = sample(t);
        if (p.aboveSeconds < p.belowSeconds) {
            lo = t / 2;
            hi = t;
            break;
        }
        prev = p;
    }
    if (hi == 0) {
        // The memory side wins over the whole sweep range.
        out.alpha = static_cast<double>(max_tokens);
        return out;
    }

    // Binary refinement of the crossover inside (lo, hi].
    while (hi - lo > 1) {
        std::uint32_t mid = lo + (hi - lo) / 2;
        CalibrationPoint p = sample(mid);
        if (p.aboveSeconds < p.belowSeconds)
            hi = mid;
        else
            lo = mid;
    }

    // The below target still wins at `lo`; the above target wins
    // from `hi`. The scheduler maps estimated AI > alpha to the
    // above target, so alpha sits on `lo`.
    out.alpha = static_cast<double>(lo);
    return out;
}

} // namespace papi::core
