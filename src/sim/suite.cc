#include "sim/suite.hh"

#include "core/value_predictor.hh"
#include "sim/extensions.hh"

namespace lvplib::sim
{

const std::vector<ExperimentSpec> &
experimentSuite()
{
    static const std::vector<ExperimentSpec> suite = {
        {"table1", "table1_benchmarks",
         "benchmark descriptions and dynamic counts", table1Benchmarks},
        {"fig1", "fig1_value_locality",
         "load value locality at history depth 1 and 16",
         fig1ValueLocality},
        {"fig2", "fig2_locality_by_type",
         "PowerPC value locality by data type", fig2LocalityByType},
        {"table2", "table2_configs", "the four LVP unit configurations",
         table2Configs},
        {"table3", "table3_lct_hit_rates", "LCT hit rates",
         table3LctHitRates},
        {"table4", "table4_constant_rates",
         "successful constant identification rates",
         table4ConstantRates},
        {"table5", "table5_latencies",
         "instruction latencies of both machine models",
         table5Latencies},
        {"fig6alpha", "fig6_base_speedups_alpha",
         "Alpha 21164 base machine speedups", fig6AlphaSpeedups},
        {"fig6ppc", "fig6_base_speedups_ppc",
         "PowerPC 620 base machine speedups", fig6PpcSpeedups},
        {"table6", "table6_620plus_speedups", "PowerPC 620+ speedups",
         table6Plus620Speedups},
        {"fig7", "fig7_verification_latency",
         "load verification latency distribution",
         fig7VerificationLatency},
        {"fig8", "fig8_dependency_resolution",
         "normalized RS operand-wait time by FU type",
         fig8DependencyResolution},
        {"fig9", "fig9_bank_conflicts",
         "percentage of cycles with bank conflicts", fig9BankConflicts},
        {"ablation_predictors", "ablation_predictors",
         "last-value LVP vs stride vs two-level FCM",
         ablationPredictors},
        {"ablation_lvp_design", "ablation_lvp_design",
         "six LVP design-space ablations", ablationLvpDesign},
        {"ablation_all_values", "ablation_all_values",
         "value locality of all value-producing instructions",
         ablationAllValues},
        {"ablation_bpred", "ablation_bpred",
         "bimodal vs gshare front end with and without LVP",
         ablationBpred},
        {"sec61", "sec61_miss_rates",
         "21164 cache-bandwidth reduction from the CVU",
         sec61MissRates},
        {"championship", "championship",
         "predictor-zoo leaderboard with hardware bit budgets",
         championship},
    };
    return suite;
}

void
writeSuiteList(std::ostream &os)
{
    for (const auto &spec : experimentSuite())
        os << spec.id << '\t' << spec.binary << '\t' << spec.summary
           << '\n';
    for (const auto &info : core::predictorRegistry())
        os << "predictor" << '\t' << info.name << '\t' << info.summary
           << '\n';
}

} // namespace lvplib::sim
