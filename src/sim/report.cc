#include "sim/report.hh"

namespace lvplib::sim
{

void
printExperiment(std::ostream &os, const std::string &title,
                const std::string &paper_expectation,
                const TextTable &table, const ExperimentOptions &opts)
{
    os << "==============================================================\n"
       << title << "\n"
       << "(workload scale " << opts.scale
       << "; set LVPLIB_SCALE to change)\n"
       << "==============================================================\n";
    table.print(os);
    if (!paper_expectation.empty())
        os << "\nPaper expectation: " << paper_expectation << "\n";
    os << "\n";
}

} // namespace lvplib::sim
