/**
 * @file
 * The paper's decoupled methodology (Section 5), with phase 1 on disk:
 *
 *   phase 1  trace generation     -> grep.trace (a few B/instruction)
 *   phase 2  LVP-unit simulation  \  one replay of the stored trace:
 *   phase 3  timing simulation    /  LvpAnnotator -> Ppc620Model
 *
 * The paper separated these phases "to shift complexity out of the
 * microarchitectural models ... and to conserve trace bandwidth by
 * passing only two bits of state per load." Here the LVP unit stamps
 * those two bits (a PredState) into each load record as the stored
 * trace streams past, and the timing model reads nothing else from
 * the predictor. The example verifies that the replayed run times
 * identically to the fused in-memory pipeline.
 *
 * Usage: trace_pipeline [benchmark] [scale]
 * (the trace goes to the system temp directory and is removed after)
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/lvp_unit.hh"
#include "sim/pipeline_driver.hh"
#include "trace/trace_file.hh"
#include "uarch/machine_config.hh"
#include "uarch/ppc620.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace lvplib;

    std::string name = argc > 1 ? argv[1] : "grep";
    unsigned scale =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 2;
    if (scale == 0)
        scale = 2;

    const std::string trace_path =
        (std::filesystem::temp_directory_path() /
         ("lvplib_" + name + ".trace"))
            .string();

    auto prog = workloads::findWorkload(name).build(
        workloads::CodeGen::Ppc, scale);

    // ---- phase 1: trace generation --------------------------------
    {
        trace::TraceFileWriter writer(
            trace_path, trace::programFingerprint(prog));
        vm::Interpreter interp(prog);
        interp.run(&writer);
        if (!writer.close()) {
            std::fprintf(stderr, "trace write failed: %s\n",
                         writer.error().c_str());
            return 1;
        }
        std::printf("phase 1: %llu records -> %s\n",
                    (unsigned long long)writer.recordsWritten(),
                    trace_path.c_str());
    }

    // ---- phases 2+3: LVP annotation feeding the timing model --------
    uarch::Ppc620Model model(uarch::Ppc620Config::base620(), true);
    core::LvpAnnotator annot(core::LvpConfig::simple(), model);
    {
        // The fingerprint argument rejects a trace generated from a
        // different program instead of replaying garbage.
        trace::TraceFileReader reader(trace_path, prog,
                                      trace::programFingerprint(prog));
        reader.replay(annot);
    }
    const auto &st = annot.unit().stats();
    std::printf("phase 2: %llu loads annotated: %.1f%% predicted, "
                "%.1f%% accuracy, %.1f%% constants\n",
                (unsigned long long)st.loads, st.predictionRate(),
                st.accuracy(), st.constantRate());
    std::printf("phase 3: %llu cycles, IPC %.3f\n",
                (unsigned long long)model.stats().cycles,
                model.stats().ipc());

    // ---- cross-check against the fused in-memory pipeline ----------
    auto fused = sim::runPpc620(prog, uarch::Ppc620Config::base620(),
                                core::LvpConfig::simple());
    bool same = fused.timing.cycles == model.stats().cycles &&
                fused.lvp == st;
    std::printf("fused pipeline: %llu cycles (%s)\n",
                (unsigned long long)fused.timing.cycles,
                same ? "identical, as required"
                     : "MISMATCH - this is a bug");

    std::remove(trace_path.c_str());
    return same ? 0 : 1;
}
