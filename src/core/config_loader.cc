#include "core/config_loader.hh"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>

#include "sim/logging.hh"

namespace papi::core {

PlatformConfig
platformConfigByName(const std::string &name)
{
    if (name == "papi")
        return makePapiConfig();
    if (name == "a100+attacc")
        return makeA100AttAccConfig();
    if (name == "a100+hbm-pim")
        return makeA100HbmPimConfig();
    if (name == "attacc-only")
        return makeAttAccOnlyConfig();
    if (name == "pim-only-papi")
        return makePimOnlyPapiConfig();
    sim::fatal("platformConfigByName: unknown platform '", name,
               "'");
}

namespace {

interconnect::Link
linkFromString(const std::string &name)
{
    if (name == "pcie5")
        return interconnect::pcie5();
    if (name == "cxl2")
        return interconnect::cxl2();
    if (name == "nvlink")
        return interconnect::nvlink();
    sim::fatal("config: unknown link '", name, "'");
}

/** Read a count key; fatal when it does not fit a uint32 (a plain
 *  cast would wrap -1 to 4,294,967,295). Zero is left to the
 *  consumers' own checks. */
std::uint32_t
getCount(const sim::Config &config, const std::string &key,
         std::uint32_t def)
{
    constexpr std::int64_t limit =
        std::numeric_limits<std::uint32_t>::max();
    const std::int64_t v = config.getInt(key, def);
    if (v < 0 || v > limit)
        sim::fatal("config: ", key, " = ", v, " is out of range [0, ",
                   limit, "]");
    return static_cast<std::uint32_t>(v);
}

/** Read a rate key; fatal unless it is finite and > 0. */
double
getRate(const sim::Config &config, const std::string &key, double def)
{
    const double v = config.getDouble(key, def);
    if (!(v > 0.0) || !std::isfinite(v))
        sim::fatal("config: ", key, " = ", v,
                   " must be finite and > 0");
    return v;
}

} // namespace

PlatformConfig
platformFromConfig(const sim::Config &config)
{
    PlatformConfig cfg = platformConfigByName(
        config.getString("platform", "papi"));

    cfg.numGpus = getCount(config, "num_gpus", cfg.numGpus);
    cfg.numFcDevices =
        getCount(config, "num_fc_devices", cfg.numFcDevices);
    cfg.numAttnDevices =
        getCount(config, "num_attn_devices", cfg.numAttnDevices);
    // The retired key must not fall through to the default policy.
    if (config.has("fc_policy"))
        sim::fatal("config: fc_policy = '", config.getString("fc_policy"),
                   "' is no longer read; set fc_dispatch instead "
                   "(always-gpu -> static:gpu, always-pim -> "
                   "static:fc-pim, dynamic -> threshold:fc-pim->gpu, "
                   "oracle -> oracle:gpu,fc-pim)");
    if (config.has("fc_dispatch"))
        cfg.fcDispatch =
            dispatchPolicyFromName(config.getString("fc_dispatch"));
    if (config.has("attn_dispatch"))
        cfg.attnDispatch =
            dispatchPolicyFromName(config.getString("attn_dispatch"));
    if (config.has("prefill_dispatch"))
        cfg.prefillDispatch = dispatchPolicyFromName(
            config.getString("prefill_dispatch"));
    if (config.has("attn_fabric"))
        cfg.topology.attnFabric =
            linkFromString(config.getString("attn_fabric"));
    cfg.fcFabricLinks =
        getCount(config, "fc_fabric_links", cfg.fcFabricLinks);
    cfg.attnFabricLinks =
        getCount(config, "attn_fabric_links", cfg.attnFabricLinks);

    cfg.gpuSpec.peakTflopsFp16 =
        getRate(config, "gpu.peak_tflops", cfg.gpuSpec.peakTflopsFp16);
    cfg.gpuSpec.memBandwidthGBs = getRate(
        config, "gpu.mem_bandwidth_gbs", cfg.gpuSpec.memBandwidthGBs);

    cfg.fcDeviceConfig.fpusPerGroup = getCount(
        config, "fc_pim.fpus_per_group", cfg.fcDeviceConfig.fpusPerGroup);
    cfg.fcDeviceConfig.banksPerGroup =
        getCount(config, "fc_pim.banks_per_group",
                 cfg.fcDeviceConfig.banksPerGroup);
    cfg.attnDeviceConfig.fpusPerGroup =
        getCount(config, "attn_pim.fpus_per_group",
                 cfg.attnDeviceConfig.fpusPerGroup);
    cfg.attnDeviceConfig.banksPerGroup =
        getCount(config, "attn_pim.banks_per_group",
                 cfg.attnDeviceConfig.banksPerGroup);
    return cfg;
}

sim::Config
loadConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("loadConfigFile: cannot open '", path, "'");

    sim::Config out;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and surrounding whitespace.
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        auto last = line.find_last_not_of(" \t\r");
        std::string trimmed = line.substr(first, last - first + 1);
        if (trimmed.find('=') == std::string::npos)
            sim::fatal("loadConfigFile: '", path, "' line ", line_no,
                       ": expected key=value");
        out.parseAssignment(trimmed);
    }
    return out;
}

} // namespace papi::core
