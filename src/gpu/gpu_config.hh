/**
 * @file
 * Computation-centric processor (GPU) description.
 *
 * The PAPI paper's scheduling decisions depend on whether a kernel is
 * compute- or memory-bound on the processing units, so the GPU is
 * modelled as a calibrated roofline: peak FP16 tensor throughput,
 * aggregate HBM bandwidth, achievable-efficiency factors, and fixed
 * kernel-launch overhead.
 */

#ifndef PAPI_GPU_GPU_CONFIG_HH
#define PAPI_GPU_GPU_CONFIG_HH

#include <cstdint>
#include <string>

namespace papi::gpu {

/** Roofline + energy description of one GPU. */
struct GpuSpec
{
    /** Label for reports (e.g. "a100"). */
    std::string name = "gpu";

    /** Peak FP16 tensor-core throughput, TFLOP/s. */
    double peakTflopsFp16 = 312.0;
    /** Peak HBM bandwidth, GB/s. */
    double memBandwidthGBs = 1935.0;
    /** HBM stacks attached to this GPU. */
    std::uint32_t hbmStacks = 5;
    /** HBM capacity, bytes. */
    std::uint64_t memCapacityBytes = 80ULL << 30;

    /** Fraction of peak FLOPs achievable on decode GEMMs. */
    double computeEfficiency = 0.70;
    /** Fraction of peak bandwidth achievable on streaming reads. */
    double memEfficiency = 0.80;
    /** Fixed kernel-launch + runtime overhead, seconds. */
    double kernelLaunchSeconds = 5.0e-6;

    /** Dynamic compute energy per FLOP, joules. */
    double computeEnergyPerFlop = 1.0e-12;
    /** Memory-path energy per byte (HBM + PHY + on-chip hierarchy,
     *  ~12.5 pJ/bit), joules. */
    double memEnergyPerByte = 100.0e-12;
    /** Idle/static power while the GPU is held by the job, watts. */
    double idlePowerWatts = 100.0;

    /** Effective FLOP/s after the efficiency factor. */
    double
    effectiveFlops() const
    {
        return peakTflopsFp16 * 1e12 * computeEfficiency;
    }

    /** Effective bytes/s after the efficiency factor. */
    double
    effectiveBandwidth() const
    {
        return memBandwidthGBs * 1e9 * memEfficiency;
    }

    /** Roofline ridge point (FLOPs/byte) at peak rates. */
    double
    ridgeArithmeticIntensity() const
    {
        return peakTflopsFp16 * 1e12 / (memBandwidthGBs * 1e9);
    }
};

/** NVIDIA A100 80 GB (SXM) roofline as used in the paper. */
GpuSpec a100Spec();

} // namespace papi::gpu

#endif // PAPI_GPU_GPU_CONFIG_HH
