#include "sim/cli.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <set>
#include <string_view>

#include "core/value_predictor.hh"
#include "isa/text_asm.hh"
#include "sim/extensions.hh"
#include "sim/pipeline_driver.hh"
#include "uarch/machine_config.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

namespace
{

bool
parseMachine(const std::string &s, CliOptions::Machine &out)
{
    if (s == "620") { out = CliOptions::Machine::Ppc620; return true; }
    if (s == "620+" || s == "620plus") {
        out = CliOptions::Machine::Ppc620Plus;
        return true;
    }
    if (s == "21164" || s == "alpha") {
        out = CliOptions::Machine::Alpha21164;
        return true;
    }
    if (s == "none") { out = CliOptions::Machine::None; return true; }
    return false;
}

/**
 * The predictor an --lvp name selects, into @p out: a Table 2 preset
 * by its lowercase name, else a registry contender; "none" selects no
 * predictor. False for an unknown name.
 */
bool
lvpByName(const std::string &s, std::optional<core::PredictorSpec> &out)
{
    out.reset();
    if (s == "none")
        return true;
    for (const auto &cfg : core::LvpConfig::paperConfigs())
        if (std::ranges::equal(cfg.name, s, [](char a, char b) {
                return std::tolower(static_cast<unsigned char>(a)) == b;
            })) {
            out = cfg;
            return true;
        }
    if (const core::PredictorInfo *info = core::findPredictor(s))
        out = info->spec;
    return out.has_value();
}

/**
 * Read the value of flag args[i] into @p v and step past it; false,
 * with "FLAG needs a value" in @p error, when the flag is last.
 */
bool
flagValue(const std::vector<std::string> &args, std::size_t &i,
          std::string &v, std::string &error)
{
    if (i + 1 >= args.size()) {
        error = args[i] + " needs a value";
        return false;
    }
    v = args[++i];
    return true;
}

void
printLvpStats(std::ostream &os, const char *title,
              const core::LvpStats &st)
{
    os << title << ": loads " << st.loads << ", predicted "
       << TextTable::fmtPct(st.predictionRate()) << " (accuracy "
       << TextTable::fmtPct(st.accuracy()) << "), constants "
       << TextTable::fmtPct(st.constantRate())
       << ", LCT unpred/pred hit "
       << TextTable::fmtPct(st.unpredHitRate()) << "/"
       << TextTable::fmtPct(st.predHitRate()) << "\n";
}

} // namespace

std::string
cliUsage()
{
    return R"(usage: lvpsim [options]
  --bench NAME      benchmark to run (default grep; --list to see all)
  --asm FILE        run a VLISA .s file instead of a benchmark
  --machine M       620 | 620+ | 21164 | none   (default 620)
  --lvp CFG         simple | constant | limit | perfect (Table 2),
                    lvp | stride | fcm | vtage | skewstride, or none
                    (default simple)
  --scale N         workload input scale (default 2)
  --codegen CG      ppc | alpha  (default: the machine's own,
                    alpha on the 21164, ppc otherwise)
  --locality        also print the value-locality profile (Fig. 1)
  --list            list available benchmarks and exit
  --help            this text
)";
}

std::optional<CliOptions>
parseCli(const std::vector<std::string> &args, std::string &error)
{
    static const std::set<std::string> valued = {
        "--bench", "--asm", "--machine", "--lvp", "--scale", "--codegen"};
    CliOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        std::string v;
        if (valued.count(a) && !flagValue(args, i, v, error))
            return std::nullopt;
        if (a == "--help" || a == "-h") {
            opts.help = true;
        } else if (a == "--list") {
            opts.listBenchmarks = true;
        } else if (a == "--locality") {
            opts.profileLocality = true;
        } else if (a == "--bench") {
            opts.benchmark = v;
        } else if (a == "--asm") {
            opts.asmFile = v;
        } else if (a == "--machine") {
            if (!parseMachine(v, opts.machine)) {
                error = "unknown machine '" + v + "'";
                return std::nullopt;
            }
        } else if (a == "--lvp") {
            std::optional<core::PredictorSpec> spec;
            if (!lvpByName(v, spec)) {
                error = "unknown LVP config '" + v + "'";
                return std::nullopt;
            }
            opts.lvpConfig = v;
        } else if (a == "--scale") {
            auto n = parseUnsigned(v, 1,
                                   std::numeric_limits<unsigned>::max());
            if (!n) {
                error = "bad scale '" + v + "'";
                return std::nullopt;
            }
            opts.scale = static_cast<unsigned>(*n);
        } else if (a == "--codegen") {
            if (v != "ppc" && v != "alpha") {
                error = "codegen must be ppc or alpha";
                return std::nullopt;
            }
            opts.codegen = v;
        } else {
            error = "unknown option '" + a + "'";
            return std::nullopt;
        }
    }
    return opts;
}

std::string
benchUsage()
{
    return R"(usage: lvpbench [options]
  --filter SUBSTR   run experiments whose id or long name contains
                    SUBSTR
                    (repeatable; matches are OR-ed)
  --jobs N          simulation threads (1..1024; default LVPLIB_JOBS
                    or hardware concurrency)
  --scale N         workload input scale (default LVPLIB_SCALE or 4)
  --predictors L    championship contenders: comma-separated registry
                    names, e.g. lvp,vtage (default LVPLIB_PREDICTORS
                    or every registered predictor)
  --json            machine-readable timings on stdout
  --list            show experiment ids and registered predictors,
                    then exit
  --no-trace-cache  keep phase 1 in-memory only
  --metrics-out F   write the metric registry (every reproduced paper
                    number) as versioned JSON to F
  --timeline-out F  record experiment phases and write a Chrome
                    trace_event timeline to F
  --check F         after the run, diff metrics against baseline F
                    (e.g. bench/golden/metrics.json); exit 3 on drift
  --rel-tol X       relative tolerance for --check (default 1e-6)
  --retries N       extra attempts per failed experiment (0..8,
                    default 2; exponential backoff between attempts)
  --watchdog-ms N   wall-clock budget per pipeline run (0 = off);
                    a run over budget fails with a watchdog error
  --help            this text
       lvpbench --verify-trace-cache DIR [--prune]
                    scan a trace directory and exit (2 if any invalid);
                    reports each file's format version and compression
                    ratio; --prune deletes invalid traces (including
                    other format versions) and abandoned temp files
                    (age-gated: fresh temps are left for their
                    possibly-live writers)
       lvpbench --chaos SEED[,N]
                    run the seeded fault-injection campaign (N =
                    predictor-fault quota, default 1000) and exit
                    (0 = every invariant held, 4 = violation)

SIGINT/SIGTERM stop the suite at the next experiment boundary; the
--metrics-out snapshot of the completed prefix is still written
(tagged "interrupted") and lvpbench exits 5. A second signal kills
immediately.
)";
}

std::optional<BenchOptions>
parseBenchCli(const std::vector<std::string> &args, std::string &error)
{
    static const std::set<std::string> valued = {
        "--filter",      "--jobs",         "--scale",
        "--predictors",  "--verify-trace-cache",
        "--metrics-out", "--timeline-out", "--check",
        "--rel-tol",     "--retries",      "--watchdog-ms",
        "--chaos"};
    BenchOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        std::string v;
        if (valued.count(a) && !flagValue(args, i, v, error))
            return std::nullopt;
        bool ok = true; // cleared by a value that does not parse
        // Every numeric flag: a whole decimal in [min, max].
        auto number = [&](unsigned long long min, unsigned long long max) {
            auto n = parseUnsigned(v, min, max);
            ok = n.has_value();
            return n.value_or(0);
        };
        if (a == "--help" || a == "-h") {
            opts.help = true;
        } else if (a == "--json") {
            opts.json = true;
        } else if (a == "--list") {
            opts.list = true;
        } else if (a == "--no-trace-cache") {
            opts.traceCache = false;
        } else if (a == "--prune") {
            opts.prune = true;
        } else if (a == "--filter") {
            opts.filters.push_back(v);
        } else if (a == "--jobs") {
            opts.jobs = static_cast<unsigned>(number(1, 1024));
        } else if (a == "--scale") {
            opts.scale = static_cast<unsigned>(
                number(1, std::numeric_limits<unsigned>::max()));
        } else if (a == "--predictors") {
            // Validate names here so a typo fails before any
            // experiment runs rather than mid-suite.
            if (!parsePredictors(v, error))
                return std::nullopt;
            opts.predictors = v;
        } else if (a == "--verify-trace-cache") {
            opts.verifyDir = v;
        } else if (a == "--metrics-out") {
            opts.metricsOut = v;
        } else if (a == "--timeline-out") {
            opts.timelineOut = v;
        } else if (a == "--check") {
            opts.checkBaseline = v;
        } else if (a == "--rel-tol") {
            char *end = nullptr;
            opts.relTol = std::strtod(v.c_str(), &end);
            ok = !v.empty() && !*end && opts.relTol >= 0.0;
        } else if (a == "--retries") {
            opts.retries = static_cast<unsigned>(number(0, 8));
        } else if (a == "--watchdog-ms") {
            opts.watchdogMs =
                number(0, std::numeric_limits<std::uint64_t>::max());
        } else if (a == "--chaos") {
            // SEED or SEED,N — both strict decimals, N at least 1.
            const std::string_view sv = v;
            const auto comma = sv.find(',');
            auto seed = parseUnsigned(sv.substr(0, comma));
            auto faults = comma == std::string_view::npos
                              ? opts.chaosFaults
                              : parseUnsigned(sv.substr(comma + 1), 1);
            ok = seed && faults;
            opts.chaosSeed = seed;
            opts.chaosFaults = faults.value_or(0);
        } else {
            error = "unknown option '" + a + "'";
            return std::nullopt;
        }
        if (!ok) {
            error = "bad " + a + " value '" + v + "'";
            return std::nullopt;
        }
    }
    // LVPLIB_PREDICTORS is the default --predictors and passes the
    // same check, so a bad value also fails before any experiment.
    if (const char *env = std::getenv("LVPLIB_PREDICTORS");
        opts.predictors.empty() && env && *env) {
        if (!parsePredictors(env, error))
            return std::nullopt;
        opts.predictors = env;
    }
    return opts;
}

namespace
{

/** Everything runCli does besides --help and --list. */
int
simulate(const CliOptions &opts, std::ostream &os)
{
    std::optional<core::PredictorSpec> lvp;
    if (!lvpByName(opts.lvpConfig, lvp)) {
        os << "error: unknown LVP config '" << opts.lvpConfig << "'\n";
        return 1;
    }
    isa::Program prog;
    if (!opts.asmFile.empty()) {
        prog = isa::assembleFile(opts.asmFile);
        os << "program: " << opts.asmFile << " (" << prog.size()
           << " static instructions)\n";
    } else {
        const auto &w = workloads::findWorkload(opts.benchmark);
        const std::string codegen =
            !opts.codegen.empty() ? opts.codegen
            : opts.machine == CliOptions::Machine::Alpha21164 ? "alpha"
                                                              : "ppc";
        auto cg = codegen == "ppc" ? workloads::CodeGen::Ppc
                                   : workloads::CodeGen::Alpha;
        prog = w.build(cg, opts.scale);
        os << "benchmark: " << w.name << " (" << w.description
           << "), codegen " << codegen << ", scale " << opts.scale
           << "\n";
    }

    auto func = runFunctional(prog);
    os << "dynamic instructions: " << func.stats.instructions()
       << ", loads: " << func.stats.loads()
       << ", stores: " << func.stats.stores()
       << ", branches: " << func.stats.branches() << "\n";
    if (!func.completed) {
        os << "warning: program did not halt within the budget\n";
        return 2;
    }

    if (opts.profileLocality) {
        auto prof = profileLocality(prog);
        os << "value locality: "
           << TextTable::fmtPct(prof.total().pctDepth1())
           << " (depth 1), "
           << TextTable::fmtPct(prof.total().pctDepthN())
           << " (depth 16)\n";
    }

    if (lvp) {
        auto st = runPredictorOnly(prog, *lvp);
        printLvpStats(os, ("LVP " + opts.lvpConfig).c_str(), st);
    }

    switch (opts.machine) {
      case CliOptions::Machine::None:
        break;
      case CliOptions::Machine::Ppc620:
      case CliOptions::Machine::Ppc620Plus: {
        auto mc = opts.machine == CliOptions::Machine::Ppc620
                      ? uarch::Ppc620Config::base620()
                      : uarch::Ppc620Config::plus620();
        auto base = runPpc620(prog, mc, std::nullopt);
        os << mc.name << " baseline: " << base.timing.cycles
           << " cycles, IPC "
           << TextTable::fmtDouble(base.timing.ipc(), 3) << "\n";
        if (lvp) {
            auto run = runPpc620(prog, mc, lvp);
            os << mc.name << " with " << opts.lvpConfig << ": "
               << run.timing.cycles << " cycles, IPC "
               << TextTable::fmtDouble(run.timing.ipc(), 3)
               << ", speedup "
               << TextTable::fmtDouble(
                      run.timing.ipc() / base.timing.ipc(), 3)
               << "\n"
               << "  predicted loads " << run.timing.predictedLoads
               << ", reissued consumers " << run.timing.reissuedInsts
               << ", bank-conflict cycles "
               << TextTable::fmtPct(run.timing.bankConflictPct())
               << "\n";
        }
        break;
      }
      case CliOptions::Machine::Alpha21164: {
        auto mc = uarch::AlphaConfig::base21164();
        auto base = runAlpha21164(prog, mc, std::nullopt);
        os << mc.name << " baseline: " << base.timing.cycles
           << " cycles, IPC "
           << TextTable::fmtDouble(base.timing.ipc(), 3) << "\n";
        if (lvp) {
            auto run = runAlpha21164(prog, mc, lvp);
            os << mc.name << " with " << opts.lvpConfig << ": "
               << run.timing.cycles << " cycles, IPC "
               << TextTable::fmtDouble(run.timing.ipc(), 3)
               << ", speedup "
               << TextTable::fmtDouble(
                      run.timing.ipc() / base.timing.ipc(), 3)
               << "\n"
               << "  predicted loads " << run.timing.predictedLoads
               << ", constants " << run.timing.constLoads
               << ", squashes " << run.timing.squashes
               << ", L1 miss/instr "
               << TextTable::fmtPct(run.timing.missRatePerInst())
               << "\n";
        }
        break;
      }
    }
    return 0;
}

} // namespace

int
runCli(const CliOptions &opts, std::ostream &os)
{
    if (opts.help) {
        os << cliUsage();
        return 0;
    }
    if (opts.listBenchmarks) {
        for (const auto &w : workloads::allWorkloads())
            os << w.name << " - " << w.description << "\n";
        return 0;
    }
    // A program that runs off its code (no HALT, an empty file, a
    // jump outside the program) is a user error, not a crash.
    try {
        return simulate(opts, os);
    } catch (const SimError &e) {
        os << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace lvplib::sim
