/**
 * @file
 * End-to-end run drivers implementing the paper's three-phase
 * experimental framework (Section 5): functional trace generation,
 * LVP-unit simulation, and timing simulation — composed as streaming
 * trace sinks so no trace is ever materialized.
 */

#ifndef LVPLIB_SIM_PIPELINE_DRIVER_HH
#define LVPLIB_SIM_PIPELINE_DRIVER_HH

#include <cstdint>
#include <optional>

#include "core/config.hh"
#include "core/locality_profiler.hh"
#include "core/lvp_unit.hh"
#include "core/value_profiler.hh"
#include "core/value_predictor.hh"
#include "isa/program.hh"
#include "trace/trace_stats.hh"
#include "uarch/alpha21164.hh"
#include "uarch/ppc620.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

/** Common run bounds. */
struct RunConfig
{
    std::uint64_t maxInstructions = 200'000'000; ///< runaway guard

    // Watchdog guards (sim/resilience.hh). Unlike maxInstructions,
    // hitting one is an error: the run throws SimError(Watchdog)
    // instead of ending early with partial results. Both are
    // excluded from RunCache keys — a watchdog-aborted run throws,
    // and thrown runs are never memoized, so the cache only ever
    // holds results the limits did not affect. 0 disables; a zero
    // wallLimitMs falls back to the process default
    // (setDefaultWallLimitMs).
    std::uint64_t wallLimitMs = 0;   ///< wall-clock deadline
    std::uint64_t recordBudget = 0;  ///< max trace records consumed
};

/** Result of a functional (phase-1 only) run. */
struct FuncResult
{
    trace::TraceStats stats;
    Word result = 0;      ///< the program's "__result" checksum
    bool completed = false;
};

/** Run a program functionally, collecting trace statistics. */
FuncResult runFunctional(const isa::Program &prog,
                         const RunConfig &rc = {});

/** Measure load value locality (Figures 1-2). */
core::ValueLocalityProfiler profileLocality(const isa::Program &prog,
                                            const RunConfig &rc = {});

/** Measure all-instruction value locality (Section 7 extension). */
core::AllValueLocalityProfiler
profileAllValues(const isa::Program &prog, const RunConfig &rc = {});

/**
 * Run one predictor alone over a program's trace: the paper's LVP
 * unit (Tables 3-4), the extension units, or any registry contender.
 */
core::LvpStats runPredictorOnly(const isa::Program &prog,
                                const core::PredictorSpec &spec,
                                const RunConfig &rc = {});

/** Timing result for the out-of-order machine. */
struct PpcRun
{
    uarch::OooStats timing;
    core::LvpStats lvp; ///< zeroed when no LVP config was given
};

/**
 * Run the PowerPC 620/620+ timing model, optionally with an LVP unit
 * annotating loads ahead of it.
 */
PpcRun runPpc620(const isa::Program &prog,
                 const uarch::Ppc620Config &mc,
                 const std::optional<core::LvpConfig> &lvp,
                 const RunConfig &rc = {});

/** Timing result for the in-order machine. */
struct AlphaRun
{
    uarch::InOrderStats timing;
    core::LvpStats lvp;
};

/** Run the Alpha 21164 timing model, optionally with LVP. */
AlphaRun runAlpha21164(const isa::Program &prog,
                       const uarch::AlphaConfig &mc,
                       const std::optional<core::LvpConfig> &lvp,
                       const RunConfig &rc = {});

/**
 * Publish one finished timing-model run into the process metric
 * registry: pipeline.<model>.{runs,cycles,instructions} counters plus
 * a pipeline.<model>.ipc_x100 distribution (IPC in hundredths).
 * Called once per run through TimingChain::publish.
 */
void publishModelRun(const uarch::OooStats &s);
void publishModelRun(const uarch::InOrderStats &s);

/**
 * Interpret @p prog into @p sink until it halts or retires
 * rc.maxInstructions, under rc's watchdog guards.
 */
void interpret(const isa::Program &prog, trace::TraceSink &sink,
               const RunConfig &rc);

/**
 * @{
 * The sink chains every predictor-only and timing run is built from.
 * The in-memory drivers above feed one chain from the interpreter;
 * RunCache's sweep feeds many from one trace replay through a
 * MultiSink. top() is the sink the stream enters, collect() reads the
 * result once the stream has finished, and publish() records a
 * collected run in the metric registry (timing runs only).
 */
class PredictorChain
{
  public:
    using Result = core::LvpStats;

    explicit PredictorChain(const core::PredictorSpec &spec)
        : annot_(spec, null_)
    {}
    PredictorChain(const PredictorChain &) = delete;
    PredictorChain &operator=(const PredictorChain &) = delete;

    trace::TraceSink &top() { return annot_; }
    Result collect() const { return annot_.unit().stats(); }
    static void publish(const Result &) {}

  private:
    trace::NullSink null_;
    core::PredictorAnnotator annot_;
};

/** A timing model, optionally behind an LVP unit annotating its
 *  loads (nullopt = the no-LVP baseline machine). */
template <typename Model, typename Run>
class TimingChain
{
  public:
    using Result = Run;

    template <typename MachineConfig>
    TimingChain(const MachineConfig &mc,
                const std::optional<core::LvpConfig> &lvp)
        : model_(mc, lvp.has_value())
    {
        if (lvp)
            annot_.emplace(*lvp, model_);
    }
    TimingChain(const TimingChain &) = delete;
    TimingChain &operator=(const TimingChain &) = delete;

    trace::TraceSink &
    top()
    {
        if (annot_)
            return *annot_;
        return model_;
    }

    Result
    collect() const
    {
        Result r;
        if (annot_)
            r.lvp = annot_->unit().stats();
        r.timing = model_.stats();
        return r;
    }

    static void publish(const Result &r) { publishModelRun(r.timing); }

  private:
    Model model_;
    std::optional<core::LvpAnnotator> annot_;
};

using PpcChain = TimingChain<uarch::Ppc620Model, PpcRun>;
using AlphaChain = TimingChain<uarch::Alpha21164Model, AlphaRun>;
/** @} */

/**
 * Interpret @p prog into @p chain, then collect and publish its
 * result: every in-memory run, and RunCache's fallback when a trace
 * cannot serve one.
 */
template <typename Chain>
typename Chain::Result
runChain(const isa::Program &prog, Chain &chain, const RunConfig &rc)
{
    interpret(prog, chain.top(), rc);
    typename Chain::Result r = chain.collect();
    Chain::publish(r);
    return r;
}

/**
 * Process-wide count of dynamic instructions pushed through any
 * pipeline (interpreted or replayed from a cached trace). The
 * lvpbench driver differences this around each experiment to report
 * simulation throughput.
 */
std::uint64_t instructionsProcessed();

/** Add @p n to the process-wide instruction counter. */
void addInstructionsProcessed(std::uint64_t n);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_PIPELINE_DRIVER_HH
