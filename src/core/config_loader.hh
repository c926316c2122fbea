/**
 * @file
 * Config-driven platform construction.
 *
 * Benchmarks and examples can override platform parameters without
 * recompiling: start from a named factory and apply dotted-key
 * overrides from a sim::Config (settable from "key=value" command
 * line arguments or a config file).
 *
 * Recognized keys:
 *   platform              papi | a100+attacc | a100+hbm-pim |
 *                         attacc-only | pim-only-papi
 *   num_gpus              GPUs in the tensor-parallel group
 *   num_fc_devices        FC-weight PIM/HBM devices
 *   num_attn_devices      Attention PIM devices
 *   fc_dispatch           FC dispatch policy: "static:<target>",
 *                         "threshold:<below>-><above>", or
 *                         "oracle:<t1>,<t2>,..." over the registry
 *                         target names (gpu, fc-pim, attn-pim);
 *                         defaults to the platform's own
 *   attn_dispatch         attention-phase dispatch policy (static or
 *                         oracle; threshold is fc-only - no runtime
 *                         alpha is plumbed for other phases)
 *   prefill_dispatch      prefill-phase dispatch policy (same rules
 *                         as attn_dispatch)
 *   attn_fabric           pcie5 | cxl2 | nvlink
 *   fc_fabric_links       parallel links on the FC fabric
 *   attn_fabric_links     parallel links on the attention fabric
 *   gpu.peak_tflops       per-GPU FP16 peak
 *   gpu.mem_bandwidth_gbs per-GPU HBM bandwidth
 *   fc_pim.fpus_per_group / fc_pim.banks_per_group   FC-PIM xPyB
 *   attn_pim.fpus_per_group / attn_pim.banks_per_group
 *
 * The retired FC-policy enum key is fatal rather than ignored, and
 * the message names the fc_dispatch spelling of each old value, so
 * an old config cannot silently run the default policy.
 */

#ifndef PAPI_CORE_CONFIG_LOADER_HH
#define PAPI_CORE_CONFIG_LOADER_HH

#include <string>

#include "core/platform.hh"
#include "sim/config.hh"

namespace papi::core {

/** Factory lookup by platform name; fatal on unknown names. */
PlatformConfig platformConfigByName(const std::string &name);

/** Build a PlatformConfig from a sim::Config (see key list above). */
PlatformConfig platformFromConfig(const sim::Config &config);

/**
 * Load "key=value" lines (# comments and blank lines ignored) from
 * a file into a sim::Config. Fatal if the file cannot be read.
 */
sim::Config loadConfigFile(const std::string &path);

} // namespace papi::core

#endif // PAPI_CORE_CONFIG_LOADER_HH
