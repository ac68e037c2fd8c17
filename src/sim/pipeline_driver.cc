#include "sim/pipeline_driver.hh"

#include <atomic>
#include <cmath>

#include "obs/metrics.hh"
#include "sim/resilience.hh"
#include "util/logging.hh"
#include "vm/interpreter.hh"

namespace lvplib::sim
{

namespace
{

std::atomic<std::uint64_t> g_instructions{0};

void
runToCompletion(vm::Interpreter &interp, trace::TraceSink *sink,
                const RunConfig &rc)
{
    std::uint64_t wallMs =
        rc.wallLimitMs != 0 ? rc.wallLimitMs : defaultWallLimitMs();
    if (wallMs != 0 || rc.recordBudget != 0) {
        WatchdogSink wd(sink, wallMs, rc.recordBudget);
        addInstructionsProcessed(
            interp.run(&wd, rc.maxInstructions));
    } else {
        addInstructionsProcessed(
            interp.run(sink, rc.maxInstructions));
    }
    if (!interp.halted())
        lvp_warn("program did not halt within %llu instructions",
                 static_cast<unsigned long long>(rc.maxInstructions));
}

/**
 * Per-model instrument bundle, resolved once: registry references
 * stay valid for its lifetime, so finishing a run costs three relaxed
 * atomic adds and one short mutex hold. All volatile — how many runs
 * a process performs depends on which experiments it executes.
 */
struct ModelMetrics
{
    explicit ModelMetrics(const std::string &model)
        : runs(obs::metrics().counter("pipeline." + model + ".runs")),
          cycles(
              obs::metrics().counter("pipeline." + model + ".cycles")),
          instructions(obs::metrics().counter("pipeline." + model +
                                              ".instructions")),
          ipcX100(obs::metrics().distribution(
              "pipeline." + model + ".ipc_x100", 512))
    {
    }

    void
    publish(std::uint64_t cyc, std::uint64_t insts, double ipc)
    {
        runs.add();
        cycles.add(cyc);
        instructions.add(insts);
        ipcX100.record(
            static_cast<std::uint64_t>(std::llround(ipc * 100.0)));
    }

    obs::Counter &runs;
    obs::Counter &cycles;
    obs::Counter &instructions;
    obs::Distribution &ipcX100;
};

/**
 * Both models' bundles behind one once-initialized lookup: the
 * instrument-name strings are concatenated and resolved against the
 * registry exactly once per process, not per publishModelRun call
 * site (and a future model costs one line here, not another
 * function-local static with its own guard).
 */
ModelMetrics &
modelMetrics(bool alpha)
{
    static struct
    {
        ModelMetrics ppc{"ppc620"};
        ModelMetrics alpha{"alpha21164"};
    } bundles;
    return alpha ? bundles.alpha : bundles.ppc;
}

} // namespace

void
publishModelRun(const uarch::OooStats &s)
{
    modelMetrics(false).publish(s.cycles, s.instructions, s.ipc());
}

void
publishModelRun(const uarch::InOrderStats &s)
{
    modelMetrics(true).publish(s.cycles, s.instructions, s.ipc());
}

std::uint64_t
instructionsProcessed()
{
    return g_instructions.load(std::memory_order_relaxed);
}

void
addInstructionsProcessed(std::uint64_t n)
{
    g_instructions.fetch_add(n, std::memory_order_relaxed);
}

void
interpret(const isa::Program &prog, trace::TraceSink &sink,
          const RunConfig &rc)
{
    vm::Interpreter interp(prog);
    runToCompletion(interp, &sink, rc);
}

FuncResult
runFunctional(const isa::Program &prog, const RunConfig &rc)
{
    vm::Interpreter interp(prog);
    FuncResult r;
    runToCompletion(interp, &r.stats, rc);
    r.completed = interp.halted();
    if (prog.hasSymbol("__result"))
        r.result = interp.memory().read(prog.symbol("__result"), 8);
    return r;
}

core::ValueLocalityProfiler
profileLocality(const isa::Program &prog, const RunConfig &rc)
{
    core::ValueLocalityProfiler profiler;
    interpret(prog, profiler, rc);
    return profiler;
}

core::AllValueLocalityProfiler
profileAllValues(const isa::Program &prog, const RunConfig &rc)
{
    core::AllValueLocalityProfiler profiler;
    interpret(prog, profiler, rc);
    return profiler;
}

core::LvpStats
runPredictorOnly(const isa::Program &prog,
                 const core::PredictorSpec &spec, const RunConfig &rc)
{
    PredictorChain chain(spec);
    return runChain(prog, chain, rc);
}

PpcRun
runPpc620(const isa::Program &prog, const uarch::Ppc620Config &mc,
          const std::optional<core::LvpConfig> &lvp, const RunConfig &rc)
{
    PpcChain chain(mc, lvp);
    return runChain(prog, chain, rc);
}

AlphaRun
runAlpha21164(const isa::Program &prog, const uarch::AlphaConfig &mc,
              const std::optional<core::LvpConfig> &lvp,
              const RunConfig &rc)
{
    AlphaChain chain(mc, lvp);
    return runChain(prog, chain, rc);
}

} // namespace lvplib::sim
