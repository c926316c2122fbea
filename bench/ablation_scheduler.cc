/**
 * @file
 * Ablation (DESIGN.md Section 5): PAPI's AI-threshold dynamic
 * scheduler vs static-GPU, static-PIM, and an oracle that measures
 * both targets every iteration. Quantifies how much of the oracle's
 * benefit the one-multiply heuristic captures.
 */

#include <deque>

#include "bench/bench_util.hh"

using namespace papi;

int
main()
{
    bench::banner("Ablation - FC scheduling policy "
                  "(LLaMA-65B, creative-writing)");

    llm::ModelConfig model = llm::llama65b();
    double alpha = bench::calibrateAlpha(model);
    const auto category = llm::TraceCategory::CreativeWriting;

    // The FC dispatch policies compared, one PAPI platform each:
    // static GPU (the speedup baseline), static FC-PIM, the paper's
    // threshold rule, and the hindsight oracle.
    const std::vector<std::string> policies = {
        "static:gpu", "static:fc-pim", "threshold:fc-pim->gpu",
        "oracle:gpu,fc-pim"};
    std::deque<core::Platform> platforms;
    std::deque<core::DecodeEngine> engines;
    for (const std::string &policy : policies) {
        core::PlatformConfig cfg = core::makePapiConfig();
        cfg.fcDispatch = core::dispatchPolicyFromName(policy);
        platforms.emplace_back(cfg);
        engines.emplace_back(platforms.back());
    }

    std::printf("alpha = %.0f\n", alpha);
    std::printf("%-6s %-8s |", "spec", "batch");
    for (const std::string &policy : policies)
        std::printf(" %-22s", policy.c_str());
    std::printf("\n");
    std::vector<double> dyn_vs_oracle;
    for (std::uint32_t spec : {1u, 4u}) {
        for (std::uint32_t batch : {4u, 16u, 64u}) {
            std::vector<double> seconds;
            for (std::size_t i = 0; i < policies.size(); ++i)
                seconds.push_back(
                    bench::runCell(platforms[i], engines[i], model,
                                   batch, spec, category, alpha)
                        .seconds());
            std::printf("%-6u %-8u |", spec, batch);
            for (double s : seconds)
                std::printf(" %-22.2f", seconds[0] / s);
            std::printf("\n");
            dyn_vs_oracle.push_back(seconds[3] / seconds[2]);
        }
    }
    std::printf("\nthreshold captures %.1f%% of oracle performance "
                "(geomean)\n",
                100.0 * core::geomean(dyn_vs_oracle));
    return 0;
}
