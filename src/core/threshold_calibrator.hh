/**
 * @file
 * Offline calibration of the memory-boundedness threshold alpha
 * (paper Section 5.2.1).
 *
 * "The threshold alpha is determined through offline iterative
 * evaluation, where we run the FC kernel on both PIM and PU units
 * under varying parallelization levels, using the observed execution
 * times to establish the best alpha."
 *
 * The sweep is generic over any pair of FC-capable execution targets
 * from a platform's registry: the paper's (FC-PIM, GPU) pair is the
 * default, resolved from the platform's threshold dispatch policy
 * when it has one.
 */

#ifndef PAPI_CORE_THRESHOLD_CALIBRATOR_HH
#define PAPI_CORE_THRESHOLD_CALIBRATOR_HH

#include <cstdint>
#include <vector>

#include "core/platform.hh"
#include "llm/model_config.hh"

namespace papi::core {

/** One calibration sample. */
struct CalibrationPoint
{
    std::uint32_t tokens = 0; ///< RLP x TLP.
    /** FC latency on the pair's memory-bound (below) side. */
    double belowSeconds = 0.0;
    /** FC latency on the pair's compute-bound (above) side. */
    double aboveSeconds = 0.0;
};

/** Result of an alpha calibration sweep. */
struct CalibrationResult
{
    double alpha = 0.0; ///< The calibrated threshold.
    TargetPair pair;    ///< The calibrated target pair.
    std::vector<CalibrationPoint> points; ///< The sweep behind it.
};

/** Offline alpha calibration against a platform's FC targets. */
class ThresholdCalibrator
{
  public:
    /**
     * Calibrate the platform's own threshold pair: the FC dispatch
     * policy's pair when its rule is Threshold, otherwise the paper's
     * (fc-pim, gpu) pair. Fatal if the platform lacks either target.
     */
    static CalibrationResult calibrate(const Platform &platform,
                                       const llm::ModelConfig &model,
                                       std::uint32_t max_tokens = 512);

    /**
     * Sweep tokens = 1..max_tokens (geometric grid plus boundary
     * refinement) measuring FC latency on both targets of @p pair;
     * alpha is the largest token count at which the pair's below
     * (memory-bound) target still wins. Both targets must support
     * the FC phase.
     */
    static CalibrationResult
    calibratePair(const Platform &platform,
                  const llm::ModelConfig &model, TargetPair pair,
                  std::uint32_t max_tokens = 512);
};

} // namespace papi::core

#endif // PAPI_CORE_THRESHOLD_CALIBRATOR_HH
