/**
 * @file
 * Regenerates paper Fig. 5(d): a per-iteration trace of PAPI's
 * dynamic mapping as RLP decays, showing the scheduler's RESULT row
 * switching from PU (GPU) to PIM.
 */

#include "bench/bench_util.hh"

using namespace papi;

int
main()
{
    bench::banner("Fig. 5(d) - PAPI dynamic mapping & scheduling "
                  "trace");

    llm::ModelConfig model = llm::llama65b();
    double alpha = bench::calibrateAlpha(model);
    std::printf("calibrated alpha = %.0f\n\n", alpha);

    core::Platform papi(core::makePapiConfig());
    core::DecodeEngine engine(papi);

    // A batch that starts compute-bound (RLP 2*alpha) and drains to
    // memory-bound, with staggered output lengths.
    std::vector<llm::Request> reqs;
    auto batch_size = static_cast<std::uint32_t>(alpha) * 2;
    for (std::uint32_t i = 0; i < batch_size; ++i)
        reqs.push_back(llm::Request{i, 32, 2 + i / 2, 0});
    llm::Batch batch(reqs, model);

    llm::SpeculativeConfig spec;
    spec.length = 1;
    core::RunOptions opt;
    opt.alpha = alpha;
    opt.recordTrace = true;
    opt.includePrefill = false;
    core::RunResult r = engine.run(batch, spec, model, opt);

    std::printf("%-6s %-6s %-6s %-10s %-8s %-12s\n", "iter", "RLP",
                "TLP", "est. AI", "RESULT", "reschedule");
    for (const auto &t : engine.trace()) {
        bool interesting = t.iteration <= 3 || t.rescheduled ||
                           t.iteration == r.iterations ||
                           t.eosCount > 0;
        if (!interesting)
            continue;
        std::printf("%-6lu %-6u %-6u %-10.0f %-8s %-12s\n",
                    static_cast<unsigned long>(t.iteration), t.rlp,
                    t.tlp, t.estimatedAi,
                    papi.targets().at(t.targetId).kind ==
                            core::TargetKind::Gpu
                        ? "PU"
                        : "PIM",
                    t.rescheduled ? "<-- switch" : "");
    }

    std::printf("\niterations=%lu  on GPU=%lu  on PIM=%lu  "
                "reschedules=%lu\n",
                static_cast<unsigned long>(r.iterations),
                static_cast<unsigned long>(r.fcOnGpuIterations),
                static_cast<unsigned long>(r.fcOnPimIterations),
                static_cast<unsigned long>(r.reschedules));
    std::printf("Paper shape check: RESULT starts at PU while "
                "RLP x TLP > alpha and\nswitches to PIM exactly once "
                "as the batch drains.\n");
    return 0;
}
