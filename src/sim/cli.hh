/**
 * @file
 * Command-line front end for the lvpsim tool: parse options, run one
 * benchmark (or a .s file) through the requested pipeline, print a
 * statistics report. The parsing and execution are library functions
 * so they can be unit-tested; tools/lvpsim.cc is a thin main().
 */

#ifndef LVPLIB_SIM_CLI_HH
#define LVPLIB_SIM_CLI_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "util/table.hh"

namespace lvplib::sim
{

/** Parsed lvpsim command line. */
struct CliOptions
{
    enum class Machine
    {
        Ppc620,
        Ppc620Plus,
        Alpha21164,
        None, ///< functional + LVP statistics only
    };

    std::string benchmark = "grep"; ///< benchmark name
    std::string asmFile;            ///< or a .s file (overrides)
    Machine machine = Machine::Ppc620;
    /** A Table 2 preset (simple|constant|limit|perfect), a registry
     *  predictor name, or none. */
    std::string lvpConfig = "simple";
    unsigned scale = 2;
    /** ppc|alpha, or "" for the machine's own: alpha on the 21164,
     *  ppc otherwise (as every experiment pairs them). */
    std::string codegen;
    bool profileLocality = false;
    bool listBenchmarks = false;
    bool help = false;
};

/**
 * Parse argv into options.
 * @return std::nullopt plus a message in @p error on bad input.
 */
std::optional<CliOptions> parseCli(const std::vector<std::string> &args,
                                   std::string &error);

/** Usage text. */
std::string cliUsage();

/** Parsed lvpbench command line (tools/lvpbench.cc is a thin main). */
struct BenchOptions
{
    std::vector<std::string> filters; ///< --filter, OR-matched
    std::optional<unsigned> jobs;     ///< --jobs (1..1024)
    std::optional<unsigned> scale;    ///< --scale (>= 1)
    /** --predictors LIST, default LVPLIB_PREDICTORS: championship
     *  contenders, comma-separated registry names ("" = every
     *  registered predictor). */
    std::string predictors;
    bool json = false;
    bool list = false;
    bool traceCache = true; ///< cleared by --no-trace-cache
    bool prune = false;
    bool help = false;
    std::string verifyDir;      ///< --verify-trace-cache DIR
    std::string metricsOut;     ///< --metrics-out FILE.json
    std::string timelineOut;    ///< --timeline-out FILE.json
    std::string checkBaseline;  ///< --check BASELINE.json
    double relTol = 1e-6;       ///< --rel-tol for --check
    /** --chaos SEED[,N]: run the fault-injection campaign and exit. */
    std::optional<std::uint64_t> chaosSeed;
    std::uint64_t chaosFaults = 1000; ///< the N in --chaos SEED,N
    unsigned retries = 2;             ///< --retries (0..8) per experiment
    std::uint64_t watchdogMs = 0;     ///< --watchdog-ms (0 = off) per run
};

/**
 * Parse lvpbench argv into options. Every failure names the
 * offending token in @p error ("unknown option '--x'",
 * "--jobs needs a value", "bad --scale value '0'").
 * @return std::nullopt plus a message in @p error on bad input.
 */
std::optional<BenchOptions>
parseBenchCli(const std::vector<std::string> &args, std::string &error);

/** lvpbench usage text. */
std::string benchUsage();

/**
 * Execute the parsed command, writing the report to @p os.
 * @return process exit code.
 */
int runCli(const CliOptions &opts, std::ostream &os);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_CLI_HH
