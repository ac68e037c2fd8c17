/**
 * @file
 * Quickstart: the whole lvplib pipeline on one benchmark.
 *
 *  1. build a VLISA program (the "grep" workload),
 *  2. run it functionally and verify it halts with a result,
 *  3. measure its load value locality (paper Figure 1),
 *  4. run the LVP unit over its trace (paper Tables 3-4),
 *  5. time it on the PowerPC 620 model with and without LVP
 *     (paper Figure 6).
 */

#include <cstdio>

#include "core/config.hh"
#include "sim/pipeline_driver.hh"
#include "uarch/machine_config.hh"
#include "workloads/workload.hh"

int
main()
{
    using namespace lvplib;

    // 1. Build the program.
    const auto &wl = workloads::findWorkload("grep");
    isa::Program prog = wl.build(workloads::CodeGen::Ppc, /*scale=*/2);
    std::printf("grep: %zu static instructions\n", prog.size());

    // 2. Functional run.
    auto func = sim::runFunctional(prog);
    std::printf("dynamic instructions: %llu  loads: %llu  result: %llu\n",
                (unsigned long long)func.stats.instructions(),
                (unsigned long long)func.stats.loads(),
                (unsigned long long)func.result);

    // 3. Value locality (Figure 1).
    auto prof = sim::profileLocality(prog);
    std::printf("value locality: %.1f%% (depth 1), %.1f%% (depth 16)\n",
                prof.total().pctDepth1(), prof.total().pctDepthN());

    // 4. LVP unit alone (Tables 3-4).
    auto lvp = sim::runPredictorOnly(prog, core::LvpConfig::simple());
    std::printf("LVP Simple: %.1f%% of loads predicted, %.1f%% accuracy, "
                "%.1f%% constants\n",
                lvp.predictionRate(), lvp.accuracy(), lvp.constantRate());

    // 5. Timing with and without LVP (Figure 6).
    auto base = sim::runPpc620(prog, uarch::Ppc620Config::base620(),
                               std::nullopt);
    auto with = sim::runPpc620(prog, uarch::Ppc620Config::base620(),
                               core::LvpConfig::simple());
    std::printf("620 IPC: %.3f -> %.3f with LVP (speedup %.3f)\n",
                base.timing.ipc(), with.timing.ipc(),
                with.timing.ipc() / base.timing.ipc());
    return 0;
}
