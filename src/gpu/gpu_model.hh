/**
 * @file
 * Roofline-based GPU kernel timing and energy, with multi-GPU
 * tensor parallelism.
 */

#ifndef PAPI_GPU_GPU_MODEL_HH
#define PAPI_GPU_GPU_MODEL_HH

#include <cstdint>

#include "gpu/gpu_config.hh"

namespace papi::gpu {

/** Outcome of one kernel on the GPU fleet. */
struct GpuKernelResult
{
    /** Kernel latency: roofline term + all-reduce + launch. */
    double seconds = 0.0;
    double energyJoules = 0.0;   ///< Dynamic + static over duration.
    double computeSeconds = 0.0; ///< Roofline compute term.
    double memorySeconds = 0.0;  ///< Roofline memory term.
    bool computeBound = false;   ///< Compute term > memory term.
    double allReduceSeconds = 0.0; ///< Tensor-parallel reduction.
};

/** A fleet of identical GPUs executing tensor-parallel kernels. */
class GpuModel
{
  public:
    /**
     * @param spec Per-GPU description.
     * @param num_gpus GPUs in the tensor-parallel group.
     * @param nvlink_bandwidth_GBs Per-GPU NVLink bandwidth for
     *        all-reduce (0 disables the all-reduce term, e.g. for
     *        single-GPU runs).
     */
    GpuModel(const GpuSpec &spec, std::uint32_t num_gpus,
             double nvlink_bandwidth_GBs = 300.0);

    /** Per-GPU description this fleet was built from. */
    const GpuSpec &spec() const { return _spec; }
    /** GPUs in the tensor-parallel group. */
    std::uint32_t numGpus() const { return _numGpus; }

    /**
     * Time/energy for one kernel with @p flops floating point
     * operations reading/writing @p bytes of memory, tensor-parallel
     * across the fleet. @p output_bytes participate in the ring
     * all-reduce (pass 0 for kernels sharded without reduction).
     */
    GpuKernelResult kernel(double flops, double bytes,
                           double output_bytes = 0.0) const;

    /** Aggregate effective memory bandwidth of the fleet, bytes/s. */
    double fleetBandwidth() const;

    /** Aggregate effective compute of the fleet, FLOP/s. */
    double fleetFlops() const;

  private:
    GpuSpec _spec;
    std::uint32_t _numGpus;
    double _nvlinkBytesPerSec;
};

} // namespace papi::gpu

#endif // PAPI_GPU_GPU_MODEL_HH
