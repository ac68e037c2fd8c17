/**
 * @file
 * Per-experiment runners: one function per table/figure of the paper,
 * each returning a TextTable whose rows mirror what the paper
 * reports. lvpbench prints these; the tests sanity-check their
 * shapes.
 */

#ifndef LVPLIB_SIM_EXPERIMENT_HH
#define LVPLIB_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "util/table.hh"

namespace lvplib::sim
{

/** Knobs shared by all experiment runners. */
struct ExperimentOptions
{
    unsigned scale = 4;   ///< workload input-size multiplier
    std::uint64_t maxInstructions = 200'000'000;

    /**
     * Comma-separated registry names restricting the championship's
     * contenders ("" = every registered predictor). Set by
     * `lvpbench --predictors` / LVPLIB_PREDICTORS; unknown names are
     * rejected at parse time.
     */
    std::string predictors;

    /** Read LVPLIB_SCALE / LVPLIB_PREDICTORS from the environment
     *  when set. */
    static ExperimentOptions fromEnv();
};

/** Table 1: benchmark descriptions and dynamic counts. */
TextTable table1Benchmarks(const ExperimentOptions &opts);

/** Figure 1: load value locality at history depth 1 and 16, per
 *  benchmark, for both code-generation styles (Alpha and PowerPC). */
TextTable fig1ValueLocality(const ExperimentOptions &opts);

/** Figure 2: PowerPC value locality by data type. */
TextTable fig2LocalityByType(const ExperimentOptions &opts);

/** Table 2: the four LVP Unit configurations. */
TextTable table2Configs();

/** Table 3: LCT hit rates (Simple and Limit, both styles). */
TextTable table3LctHitRates(const ExperimentOptions &opts);

/** Table 4: successful constant identification rates. */
TextTable table4ConstantRates(const ExperimentOptions &opts);

/** Table 5: instruction latencies of both machine models. */
TextTable table5Latencies();

/** Figure 6 (top): Alpha 21164 base-machine speedups. */
TextTable fig6AlphaSpeedups(const ExperimentOptions &opts);

/** Figure 6 (bottom): PowerPC 620 base-machine speedups. */
TextTable fig6PpcSpeedups(const ExperimentOptions &opts);

/** Table 6: PowerPC 620+ speedups. */
TextTable table6Plus620Speedups(const ExperimentOptions &opts);

/** Figure 7: load verification latency distribution, 620 and 620+. */
TextTable fig7VerificationLatency(const ExperimentOptions &opts);

/** Figure 8: normalized RS operand-wait time by FU type. */
TextTable fig8DependencyResolution(const ExperimentOptions &opts);

/** Figure 9: percentage of cycles with L1 bank conflicts. */
TextTable fig9BankConflicts(const ExperimentOptions &opts);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_EXPERIMENT_HH
