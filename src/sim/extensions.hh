/**
 * @file
 * Extension-study runners (ablations and Section 6.1/7 follow-ups),
 * routed through the parallel experiment engine and run-cache like
 * the paper runners in experiment.cc. Each returns the sections
 * (title, expectation, table) lvpbench prints for it.
 */

#ifndef LVPLIB_SIM_EXTENSIONS_HH
#define LVPLIB_SIM_EXTENSIONS_HH

#include <vector>

#include "core/value_predictor.hh"
#include "sim/experiment.hh"
#include "sim/suite.hh"

namespace lvplib::sim
{

/** Last-value LVP vs stride vs two-level FCM, head-to-head. */
std::vector<ExperimentSection>
ablationPredictors(const ExperimentOptions &opts);

/** The six LVP design-space ablations (DESIGN.md Section 4). */
std::vector<ExperimentSection>
ablationLvpDesign(const ExperimentOptions &opts);

/** Value locality of ALL value-producing instructions. */
std::vector<ExperimentSection>
ablationAllValues(const ExperimentOptions &opts);

/** Bimodal vs gshare front end, with and without LVP. */
std::vector<ExperimentSection>
ablationBpred(const ExperimentOptions &opts);

/** Section 6.1: 21164 cache-bandwidth reduction from the CVU. */
std::vector<ExperimentSection>
sec61MissRates(const ExperimentOptions &opts);

/**
 * The contenders a championship run sweeps: every registered
 * predictor, or the subset named by opts.predictors (comma-separated
 * registry names; lvp_fatal on an unknown name). Registry order is
 * preserved — it is part of the golden-metrics contract.
 */
std::vector<const core::PredictorInfo *>
championshipPredictors(const ExperimentOptions &opts);

/** CVP-style championship: every registry predictor over all 17
 *  workloads, ranked under bit-budget-fair accounting. */
std::vector<ExperimentSection>
championship(const ExperimentOptions &opts);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_EXTENSIONS_HH
