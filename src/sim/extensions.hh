/**
 * @file
 * Extension-study runners (ablations and Section 6.1/7 follow-ups),
 * routed through the parallel experiment engine and run-cache and
 * filling ResultTables like the paper runners in experiment.cc. Each
 * returns the sections (title, expectation, table) lvpbench prints
 * for it.
 */

#ifndef LVPLIB_SIM_EXTENSIONS_HH
#define LVPLIB_SIM_EXTENSIONS_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/value_predictor.hh"
#include "sim/experiment.hh"

namespace lvplib::sim
{

/** Last-value LVP vs stride vs two-level FCM, head-to-head. */
Sections ablationPredictors(const ExperimentOptions &opts);

/** The six LVP design-space ablations (DESIGN.md Section 4). */
Sections ablationLvpDesign(const ExperimentOptions &opts);

/** Value locality of ALL value-producing instructions. */
Sections ablationAllValues(const ExperimentOptions &opts);

/** Bimodal vs gshare front end, with and without LVP. */
Sections ablationBpred(const ExperimentOptions &opts);

/** Section 6.1: 21164 cache-bandwidth reduction from the CVU. */
Sections sec61MissRates(const ExperimentOptions &opts);

/** Correctly predicted loads, constants included, as a percentage of
 *  all loads: the "good" column of the ablations and the
 *  championship. */
double goodRate(const core::LvpStats &s);

/**
 * Parse a contender list: comma-separated registry names, empty
 * segments skipped, returned in REGISTRY order (not mention order)
 * so a filtered run publishes the same metrics the full run would
 * for those predictors. The one parser behind `lvpbench
 * --predictors`, LVPLIB_PREDICTORS and championshipPredictors().
 * @return std::nullopt with "unknown predictor 'NAME'", or for a list
 *         that names no predictor "bad --predictors value 'LIST'",
 *         in @p error.
 */
std::optional<std::vector<const core::PredictorInfo *>>
parsePredictors(std::string_view list, std::string &error);

/**
 * The contenders a championship run sweeps: every registered
 * predictor, or the subset opts.predictors names (parsePredictors;
 * lvp_fatal on a bad list). Registry order is part of the
 * golden-metrics contract.
 */
std::vector<const core::PredictorInfo *>
championshipPredictors(const ExperimentOptions &opts);

/** CVP-style championship: every registry predictor over all 17
 *  workloads, ranked under bit-budget-fair accounting. */
Sections championship(const ExperimentOptions &opts);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_EXTENSIONS_HH
