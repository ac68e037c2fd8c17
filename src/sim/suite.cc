#include "sim/suite.hh"

#include "core/value_predictor.hh"
#include "sim/extensions.hh"

namespace lvplib::sim
{

namespace
{

using Runner = std::vector<ExperimentSection> (*)(
    const ExperimentOptions &);

/** Wrap a single-table paper runner with its banner strings. */
template <TextTable (*fn)(const ExperimentOptions &)>
std::vector<ExperimentSection>
paperSection(const ExperimentOptions &opts, const char *title,
             const char *expectation)
{
    return {{title, expectation, fn(opts)}};
}

} // namespace

const std::vector<ExperimentSpec> &
experimentSuite()
{
    static const std::vector<ExperimentSpec> suite = {
        {"table1", "table1_benchmarks",
         "benchmark descriptions and dynamic counts",
         [](const ExperimentOptions &o) {
             return paperSection<table1Benchmarks>(
                 o, "Table 1: Benchmark Descriptions",
                 "17 benchmarks; dynamic instruction counts in the "
                 "hundreds of thousands to millions of instructions "
                 "per run (the paper ran 0.7M-146M; our synthetic "
                 "inputs are scaled down uniformly).");
         }},
        {"fig1", "fig1_value_locality",
         "load value locality at history depth 1 and 16",
         [](const ExperimentOptions &o) {
             return paperSection<fig1ValueLocality>(
                 o,
                 "Figure 1: Load Value Locality (history depth 1 and "
                 "16)",
                 "most integer programs show ~40-60% locality at depth "
                 "1 and >80% at depth 16; cjpeg, swm256, and tomcatv "
                 "are the three poor-locality outliers.");
         }},
        {"fig2", "fig2_locality_by_type",
         "PowerPC value locality by data type",
         [](const ExperimentOptions &o) {
             return paperSection<fig2LocalityByType>(
                 o, "Figure 2: PowerPC Value Locality by Data Type",
                 "address loads (instruction and data addresses) show "
                 "better locality than data loads; instruction "
                 "addresses hold a slight edge over data addresses; "
                 "integer data beats floating-point data.");
         }},
        {"table2", "table2_configs", "the four LVP unit configurations",
         [](const ExperimentOptions &) {
             return std::vector<ExperimentSection>{
                 {"Table 2: LVP Unit Configurations",
                  "four configurations: Simple and Constant are "
                  "buildable; Limit (16-deep history with perfect "
                  "selection) and Perfect are oracle limit studies.",
                  table2Configs()}};
         }},
        {"table3", "table3_lct_hit_rates", "LCT hit rates",
         [](const ExperimentOptions &o) {
             return paperSection<table3LctHitRates>(
                 o, "Table 3: LCT Hit Rates",
                 "the LCT identifies most unpredictable loads as "
                 "unpredictable (GM ~80-90%) and most predictable "
                 "loads as predictable (GM ~75-90%) in both Simple and "
                 "Limit configurations.");
         }},
        {"table4", "table4_constant_rates",
         "successful constant identification rates",
         [](const ExperimentOptions &o) {
             return paperSection<table4ConstantRates>(
                 o, "Table 4: Successful Constant Identification Rates",
                 "constants are 10-25% of dynamic loads on average (GM "
                 "~13-22% in the paper), higher under the Constant "
                 "configuration's 1-bit LCT + 128-entry CVU; near zero "
                 "for quick and tomcatv.");
         }},
        {"table5", "table5_latencies",
         "instruction latencies of both machine models",
         [](const ExperimentOptions &) {
             return std::vector<ExperimentSection>{
                 {"Table 5: Instruction Latencies",
                  "issue/result latencies of the two machine models, "
                  "as configured (not measured).",
                  table5Latencies()}};
         }},
        {"fig6alpha", "fig6_base_speedups_alpha",
         "Alpha 21164 base machine speedups",
         [](const ExperimentOptions &o) {
             return paperSection<fig6AlphaSpeedups>(
                 o,
                 "Figure 6 (top): Alpha AXP 21164 Base Machine "
                 "Speedups",
                 "GM speedups ~1.06 (Simple), ~1.09 (Limit), ~1.16 "
                 "(Perfect); grep and gawk are the dramatic winners.");
         }},
        {"fig6ppc", "fig6_base_speedups_ppc",
         "PowerPC 620 base machine speedups",
         [](const ExperimentOptions &o) {
             return paperSection<fig6PpcSpeedups>(
                 o,
                 "Figure 6 (bottom): PowerPC 620 Base Machine Speedups",
                 "GM speedups ~1.03 (Simple), ~1.03 (Constant), ~1.06 "
                 "(Limit), ~1.09 (Perfect); the in-order 21164 gains "
                 "roughly twice as much as the 620.");
         }},
        {"table6", "table6_620plus_speedups", "PowerPC 620+ speedups",
         [](const ExperimentOptions &o) {
             return paperSection<table6Plus620Speedups>(
                 o, "Table 6: PowerPC 620+ Speedups",
                 "the 620+ is ~6% faster than the 620 without LVP; LVP "
                 "adds ~4.6% (Simple), ~4.2% (Constant), ~7.7% "
                 "(Limit), ~11.3% (Perfect) on top - relative LVP "
                 "gains are ~50% larger than on the base 620.");
         }},
        {"fig7", "fig7_verification_latency",
         "load verification latency distribution",
         [](const ExperimentOptions &o) {
             return paperSection<fig7VerificationLatency>(
                 o, "Figure 7: Load Verification Latency Distribution",
                 "most correctly-predicted loads verify 4-5 cycles "
                 "after dispatch; the distributions look alike across "
                 "LVP configurations; the 620+ shifts visibly right "
                 "(time dilation).");
         }},
        {"fig8", "fig8_dependency_resolution",
         "normalized RS operand-wait time by FU type",
         [](const ExperimentOptions &o) {
             return paperSection<fig8DependencyResolution>(
                 o,
                 "Figure 8: Average Data Dependency Resolution "
                 "Latencies",
                 "normalized RS operand-wait time vs no-LVP: BRU and "
                 "MCFX barely improve (LVP does not predict "
                 "cr/lr/ctr); FPU, SCFX and especially LSU drop "
                 "sharply (LSU ~50% with Simple/Constant).");
         }},
        {"fig9", "fig9_bank_conflicts",
         "percentage of cycles with bank conflicts",
         [](const ExperimentOptions &o) {
             return paperSection<fig9BankConflicts>(
                 o, "Figure 9: Percentage of Cycles with Bank Conflicts",
                 "bank conflicts occur in ~2.6% of 620 cycles and "
                 "~6.9% of 620+ cycles; Simple reduces them ~5-8%, "
                 "Constant ~14% (the CVU targets conflict-prone "
                 "loads).");
         }},
        {"ablation_predictors", "ablation_predictors",
         "last-value LVP vs stride vs two-level FCM",
         static_cast<Runner>(ablationPredictors)},
        {"ablation_lvp_design", "ablation_lvp_design",
         "six LVP design-space ablations",
         static_cast<Runner>(ablationLvpDesign)},
        {"ablation_all_values", "ablation_all_values",
         "value locality of all value-producing instructions",
         static_cast<Runner>(ablationAllValues)},
        {"ablation_bpred", "ablation_bpred",
         "bimodal vs gshare front end with and without LVP",
         static_cast<Runner>(ablationBpred)},
        {"sec61", "sec61_miss_rates",
         "21164 cache-bandwidth reduction from the CVU",
         static_cast<Runner>(sec61MissRates)},
        {"championship", "championship",
         "predictor-zoo leaderboard with hardware bit budgets",
         static_cast<Runner>(championship)},
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
