#include "sim/cli.hh"

#include <cstdlib>
#include <limits>

#include "core/stride_unit.hh"
#include "core/value_predictor.hh"
#include "isa/text_asm.hh"
#include "sim/pipeline_driver.hh"
#include "uarch/machine_config.hh"
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

bool
validLvp(const std::string &s)
{
    return s == "simple" || s == "constant" || s == "limit" ||
           s == "perfect" || s == "none" || s == "stride";
}

std::optional<core::LvpConfig>
lvpConfigByName(const std::string &s)
{
    if (s == "simple") return core::LvpConfig::simple();
    if (s == "constant") return core::LvpConfig::constant();
    if (s == "limit") return core::LvpConfig::limit();
    if (s == "perfect") return core::LvpConfig::perfect();
    return std::nullopt; // "none" and "stride"
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
  --lvp CFG         simple | constant | limit | perfect | stride | none
                    (default simple)
  --scale N         workload input scale (default 2)
  --codegen CG      ppc | alpha                 (default ppc)
  --locality        also print the value-locality profile (Fig. 1)
  --list            list available benchmarks and exit
  --help            this text
)";
}

std::optional<CliOptions>
parseCli(const std::vector<std::string> &args, std::string &error)
{
    CliOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&](const char *flag) -> const std::string * {
            if (i + 1 >= args.size()) {
                error = std::string(flag) + " needs a value";
                return nullptr;
            }
            return &args[++i];
        };
        if (a == "--help" || a == "-h") {
            opts.help = true;
        } else if (a == "--list") {
            opts.listBenchmarks = true;
        } else if (a == "--locality") {
            opts.profileLocality = true;
        } else if (a == "--bench") {
            auto *v = value("--bench");
            if (!v)
                return std::nullopt;
            opts.benchmark = *v;
        } else if (a == "--asm") {
            auto *v = value("--asm");
            if (!v)
                return std::nullopt;
            opts.asmFile = *v;
        } else if (a == "--machine") {
            auto *v = value("--machine");
            if (!v)
                return std::nullopt;
            if (!parseMachine(*v, opts.machine)) {
                error = "unknown machine '" + *v + "'";
                return std::nullopt;
            }
        } else if (a == "--lvp") {
            auto *v = value("--lvp");
            if (!v)
                return std::nullopt;
            if (!validLvp(*v)) {
                error = "unknown LVP config '" + *v + "'";
                return std::nullopt;
            }
            opts.lvpConfig = *v;
        } else if (a == "--scale") {
            auto *v = value("--scale");
            if (!v)
                return std::nullopt;
            int n = std::atoi(v->c_str());
            if (n < 1) {
                error = "bad scale '" + *v + "'";
                return std::nullopt;
            }
            opts.scale = static_cast<unsigned>(n);
        } else if (a == "--codegen") {
            auto *v = value("--codegen");
            if (!v)
                return std::nullopt;
            if (*v != "ppc" && *v != "alpha") {
                error = "codegen must be ppc or alpha";
                return std::nullopt;
            }
            opts.codegen = *v;
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
  --filter SUBSTR   run experiments whose id/binary contains SUBSTR
                    (repeatable; matches are OR-ed)
  --jobs N          worker threads (1..1024; default LVPLIB_JOBS or
                    hardware concurrency)
  --shards N        most variant groups one sweep replays in parallel
                    (1..1024; default LVPLIB_SHARDS or the
                    worker-thread count; 1 replays each sweep serially)
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
  --bench-out F     write the performance snapshot (per-experiment
                    wall time and MIPS, suite totals, run-cache
                    counters) as the --json document to F
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
       lvpbench --verify-trace-cache DIR [--prune] [--migrate]
                    scan a trace directory and exit (2 if any invalid);
                    reports each file's format version and compression
                    ratio; --prune deletes invalid traces and abandoned
                    temp files (age-gated: fresh temps are left for
                    their possibly-live writers); --migrate rewrites
                    valid v2 traces as v3 in place (atomic temp+rename)
       lvpbench --chaos SEED[,N]
                    run the seeded fault-injection campaign (N =
                    predictor-fault quota, default 1000) and exit
                    (0 = every invariant held, 4 = violation)

SIGINT/SIGTERM stop the suite at the next experiment boundary; the
--bench-out/--metrics-out snapshots of the completed prefix are still
written (tagged "interrupted") and lvpbench exits 5. A second signal
kills immediately.
)";
}

std::optional<BenchOptions>
parseBenchCli(const std::vector<std::string> &args, std::string &error)
{
    BenchOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&]() -> const std::string * {
            if (i + 1 >= args.size()) {
                error = a + " needs a value";
                return nullptr;
            }
            return &args[++i];
        };
        auto unsignedValue =
            [&](unsigned long min,
                unsigned long max) -> std::optional<unsigned> {
            const std::string *v = value();
            if (!v)
                return std::nullopt;
            char *end = nullptr;
            unsigned long n = std::strtoul(v->c_str(), &end, 10);
            if (v->empty() || !end || *end || n < min || n > max) {
                error = "bad " + a + " value '" + *v + "'";
                return std::nullopt;
            }
            return static_cast<unsigned>(n);
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
        } else if (a == "--migrate") {
            opts.migrate = true;
        } else if (a == "--filter") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            opts.filters.push_back(*v);
        } else if (a == "--jobs") {
            auto n = unsignedValue(1, 1024);
            if (!n)
                return std::nullopt;
            opts.jobs = n;
        } else if (a == "--shards") {
            auto n = unsignedValue(1, 1024);
            if (!n)
                return std::nullopt;
            opts.shards = n;
        } else if (a == "--scale") {
            auto n = unsignedValue(
                1, std::numeric_limits<unsigned>::max());
            if (!n)
                return std::nullopt;
            opts.scale = n;
        } else if (a == "--predictors") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            // Validate names here so a typo fails before any
            // experiment runs rather than mid-suite.
            std::string rest = *v;
            bool any = false;
            while (!rest.empty()) {
                auto comma = rest.find(',');
                std::string name = rest.substr(0, comma);
                rest = comma == std::string::npos
                           ? ""
                           : rest.substr(comma + 1);
                if (name.empty())
                    continue;
                if (!core::findPredictor(name)) {
                    error = "unknown predictor '" + name + "'";
                    return std::nullopt;
                }
                any = true;
            }
            if (!any) {
                error = "bad --predictors value '" + *v + "'";
                return std::nullopt;
            }
            opts.predictors = *v;
        } else if (a == "--verify-trace-cache") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            opts.verifyDir = *v;
        } else if (a == "--metrics-out") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            opts.metricsOut = *v;
        } else if (a == "--bench-out") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            opts.benchOut = *v;
        } else if (a == "--timeline-out") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            opts.timelineOut = *v;
        } else if (a == "--check") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            opts.checkBaseline = *v;
        } else if (a == "--rel-tol") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            char *end = nullptr;
            double x = std::strtod(v->c_str(), &end);
            if (v->empty() || !end || *end || !(x >= 0.0)) {
                error = "bad --rel-tol value '" + *v + "'";
                return std::nullopt;
            }
            opts.relTol = x;
        } else if (a == "--retries") {
            auto n = unsignedValue(0, 8);
            if (!n)
                return std::nullopt;
            opts.retries = *n;
        } else if (a == "--watchdog-ms") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            char *end = nullptr;
            unsigned long long n = std::strtoull(v->c_str(), &end, 10);
            if (v->empty() || !end || *end) {
                error = "bad --watchdog-ms value '" + *v + "'";
                return std::nullopt;
            }
            opts.watchdogMs = n;
        } else if (a == "--chaos") {
            auto *v = value();
            if (!v)
                return std::nullopt;
            // SEED or SEED,N — both strict unsigned decimals.
            std::string seedPart = *v, faultPart;
            if (auto comma = v->find(','); comma != std::string::npos) {
                seedPart = v->substr(0, comma);
                faultPart = v->substr(comma + 1);
            }
            char *end = nullptr;
            unsigned long long seed =
                std::strtoull(seedPart.c_str(), &end, 10);
            bool ok = !seedPart.empty() && end && !*end;
            if (ok && !faultPart.empty()) {
                unsigned long long n =
                    std::strtoull(faultPart.c_str(), &end, 10);
                ok = end && !*end && n > 0;
                if (ok)
                    opts.chaosFaults = n;
            } else if (ok && faultPart.empty() &&
                       v->find(',') != std::string::npos) {
                ok = false; // "--chaos 1," is malformed
            }
            if (!ok) {
                error = "bad --chaos value '" + *v + "'";
                return std::nullopt;
            }
            opts.chaosSeed = seed;
        } else {
            error = "unknown option '" + a + "'";
            return std::nullopt;
        }
    }
    return opts;
}

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

    isa::Program prog;
    if (!opts.asmFile.empty()) {
        prog = isa::assembleFile(opts.asmFile);
        os << "program: " << opts.asmFile << " (" << prog.size()
           << " static instructions)\n";
    } else {
        const auto &w = workloads::findWorkload(opts.benchmark);
        auto cg = opts.codegen == "ppc" ? workloads::CodeGen::Ppc
                                        : workloads::CodeGen::Alpha;
        prog = w.build(cg, opts.scale);
        os << "benchmark: " << w.name << " (" << w.description
           << "), codegen " << opts.codegen << ", scale " << opts.scale
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

    std::optional<core::LvpConfig> lvp =
        lvpConfigByName(opts.lvpConfig);
    if (opts.lvpConfig == "stride") {
        auto st = runPredictorOnly(prog, core::StrideConfig::simple());
        printLvpStats(os, "stride unit", st);
        // The timing models consume history-based annotations only;
        // a stride run is statistics-only.
        if (opts.machine != CliOptions::Machine::None)
            os << "(stride runs are statistics-only; pick --lvp "
                  "simple/constant/limit/perfect for timing)\n";
        return 0;
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

} // namespace lvplib::sim
