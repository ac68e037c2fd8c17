/**
 * @file
 * The experiment suite registry: every table/figure the repo
 * reproduces, each as a named spec the lvpbench driver runs through
 * the parallel engine.
 */

#ifndef LVPLIB_SIM_SUITE_HH
#define LVPLIB_SIM_SUITE_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace lvplib::sim
{

/** One table/figure registration in the experiment suite. */
struct ExperimentSpec
{
    std::string id;      ///< short handle, e.g. "fig1"
    std::string binary;  ///< long name, e.g. "fig1_value_locality"
    std::string summary; ///< one-line description for --list
    std::vector<ExperimentSection> (*run)(const ExperimentOptions &);
};

/** Every table/figure, in paper-then-extensions order. */
const std::vector<ExperimentSpec> &experimentSuite();

/**
 * Write the registry listing behind `lvpbench --list`: one
 * tab-separated line per experiment (id, long name, summary) in suite
 * order — unchanged from earlier releases, so scripts keyed on it
 * keep working — followed by one "predictor" line per registered
 * predictor (the championship contenders `--predictors` accepts).
 */
void writeSuiteList(std::ostream &os);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_SUITE_HH
