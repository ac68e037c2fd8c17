/**
 * @file
 * Report helpers for lvpbench's experiment sections: banner printing
 * and a standard "paper says / we measure" footer.
 */

#ifndef LVPLIB_SIM_REPORT_HH
#define LVPLIB_SIM_REPORT_HH

#include <ostream>
#include <string>

#include "sim/experiment.hh"
#include "util/table.hh"

namespace lvplib::sim
{

/** Print a banner, the table, and a commentary footer. */
void printExperiment(std::ostream &os, const std::string &title,
                     const std::string &paper_expectation,
                     const TextTable &table,
                     const ExperimentOptions &opts);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_REPORT_HH
