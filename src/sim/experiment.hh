/**
 * @file
 * Per-experiment runners: one function per table/figure of the paper.
 * Each fills a ResultTable (sim/result_table.hh), which prints every
 * number and publishes it as an "id.row.column" gauge in the same
 * call, and returns the sections lvpbench prints: the title and the
 * paper's expectation beside the table. The tests check their shapes.
 */

#ifndef LVPLIB_SIM_EXPERIMENT_HH
#define LVPLIB_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

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
     * contenders ("" = every registered predictor). lvpbench copies
     * it from parseBenchCli, which reads `--predictors` and, as its
     * default, LVPLIB_PREDICTORS, and rejects unknown names before
     * any experiment runs.
     */
    std::string predictors;

    /** Read LVPLIB_SCALE from the environment when set. */
    static ExperimentOptions fromEnv();
};

/** One printed table: exactly what printExperiment needs. */
struct ExperimentSection
{
    std::string title;
    std::string expectation;
    TextTable table;
};

/** The shape of every runner, paper and extension alike. */
using Sections = std::vector<ExperimentSection>;

/** Table 1: benchmark descriptions and dynamic counts. */
Sections table1Benchmarks(const ExperimentOptions &opts);

/** Figure 1: load value locality at history depth 1 and 16, per
 *  benchmark, for both code-generation styles (Alpha and PowerPC). */
Sections fig1ValueLocality(const ExperimentOptions &opts);

/** Figure 2: PowerPC value locality by data type. */
Sections fig2LocalityByType(const ExperimentOptions &opts);

/** Table 2: the four LVP Unit configurations. */
Sections table2Configs(const ExperimentOptions &opts);

/** Table 3: LCT hit rates (Simple and Limit, both styles). */
Sections table3LctHitRates(const ExperimentOptions &opts);

/** Table 4: successful constant identification rates. */
Sections table4ConstantRates(const ExperimentOptions &opts);

/** Table 5: instruction latencies of both machine models. */
Sections table5Latencies(const ExperimentOptions &opts);

/** Figure 6 (top): Alpha 21164 base-machine speedups. */
Sections fig6AlphaSpeedups(const ExperimentOptions &opts);

/** Figure 6 (bottom): PowerPC 620 base-machine speedups. */
Sections fig6PpcSpeedups(const ExperimentOptions &opts);

/** Table 6: PowerPC 620+ speedups. */
Sections table6Plus620Speedups(const ExperimentOptions &opts);

/** Figure 7: load verification latency distribution, 620 and 620+. */
Sections fig7VerificationLatency(const ExperimentOptions &opts);

/** Figure 8: normalized RS operand-wait time by FU type. */
Sections fig8DependencyResolution(const ExperimentOptions &opts);

/** Figure 9: percentage of cycles with L1 bank conflicts. */
Sections fig9BankConflicts(const ExperimentOptions &opts);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_EXPERIMENT_HH
