/**
 * @file
 * lvpbench: regenerate every table and figure in one process.
 *
 * Every experiment in the suite registry (sim/suite.hh) runs through
 * the shared TaskPool (LVPLIB_JOBS or --jobs) and the process-wide
 * RunCache, so common sub-runs (the same workload under the same
 * machine/LVP configuration) simulate exactly once, and phase-1
 * traces are written to an on-disk cache and replayed by every later
 * phase-2/3 run instead of re-interpreting. --jobs bounds every
 * simulation thread (replays split only onto idle workers).
 *
 *   lvpbench                  # everything, human-readable
 *   lvpbench --filter fig     # experiments whose id/long name matches
 *   lvpbench --jobs 8         # override LVPLIB_JOBS
 *   lvpbench --scale 2        # override LVPLIB_SCALE
 *   lvpbench --json           # machine-readable timings on stdout
 *                             # (redirect to keep a snapshot)
 *   lvpbench --list           # show experiment ids and exit
 *   lvpbench --no-trace-cache # keep phase 1 in-memory only
 *   lvpbench --metrics-out run.json
 *                             # export every reproduced paper number
 *   lvpbench --timeline-out tl.json
 *                             # record a chrome://tracing timeline
 *   lvpbench --check bench/golden/metrics.json [--rel-tol X]
 *                             # diff this run against the golden
 *                             # baseline; exit 3 on drift
 *   lvpbench --verify-trace-cache DIR [--prune]
 *                             # scan a trace directory and exit
 *   lvpbench --chaos 1        # seeded fault-injection campaign
 *   lvpbench --retries 3      # extra attempts per failed experiment
 *   lvpbench --watchdog-ms 60000
 *                             # wall-clock budget per pipeline run
 *
 * The trace cache defaults to a fresh temporary directory (removed on
 * exit); set LVPLIB_TRACE_CACHE to persist traces across runs. Trace
 * files are self-describing (versioned header, program fingerprint,
 * checksummed footer); stale or corrupt files are detected and
 * regenerated automatically and counted as trace_invalid in the
 * run-cache stats. --verify-trace-cache reports each file's status
 * without running any experiment, including each file's format
 * version and compression ratio; with --prune, invalid trace files
 * and leftover *.tmp.* files are deleted. An intact cache file from
 * another format version is reported as bad-version by
 * --verify-trace-cache (and deleted with --prune); a run regenerates
 * it and counts it as trace_format_upgrade, separate from
 * trace_invalid.
 *
 * Exit status: 0 success; 1 usage or file errors; 2 when
 * --verify-trace-cache finds an invalid trace; 3 when --check finds
 * metric drift; 4 when an experiment still fails after its retries
 * or when --chaos finds an invariant violation; 5 when SIGINT or
 * SIGTERM interrupted the suite (the completed-prefix --metrics-out
 * snapshot is still written, tagged "interrupted"; --check is
 * skipped).
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.hh"
#include "obs/check.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/cli.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/report.hh"
#include "sim/resilience.hh"
#include "sim/run_cache.hh"
#include "sim/suite.hh"
#include "trace/trace_dir.hh"
#include "trace/trace_file.hh"
#include "util/env.hh"
#include "util/table.hh"

namespace
{

using namespace lvplib;
using Clock = std::chrono::steady_clock;

/**
 * Graceful-interrupt flag: SIGINT/SIGTERM stop the suite at the next
 * experiment boundary, and whatever --metrics-out or --json asked for
 * is still written — a valid snapshot of the completed prefix (tagged
 * "interrupted") instead of nothing — then lvpbench exits 5.
 * The handler re-arms the default action, so a second signal kills a
 * stuck run the normal way.
 */
volatile std::sig_atomic_t gInterrupted = 0;

extern "C" void
onBenchSignal(int sig)
{
    gInterrupted = sig;
    std::signal(sig, SIG_DFL);
}

struct Timing
{
    std::string id;
    std::string title;
    std::size_t sections = 0;
    double wallSeconds = 0;
    std::uint64_t instructions = 0;
};

std::string
fmtSeconds(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", s);
    return buf;
}

int
usage(int code)
{
    (code == 0 ? std::cout : std::cerr) << sim::benchUsage();
    return code;
}

/**
 * Scan @p dir for trace files, report each one's integrity, format
 * version, and compression ratio, and (with @p prune) delete the
 * invalid ones plus abandoned temp files. Temps are age-gated
 * (trace::TempPruneAgeSeconds): a young temp may belong to a live
 * concurrent writer and is never deleted. Fingerprints are reported
 * but not matched against a program: the full stale-program check
 * happens when the run-cache reuses a file.
 * @return 0 when every trace verifies, 2 otherwise.
 */
int
verifyTraceCacheDir(const std::string &dir, bool prune)
{
    auto scan = trace::scanTraceDir(dir, prune);
    if (!scan.ok) {
        std::cerr << "lvpbench: cannot read directory '" << dir
                  << "': " << scan.error << '\n';
        return 1;
    }
    for (const auto &e : scan.traces) {
        char fp[32];
        std::snprintf(fp, sizeof fp, "%016llx",
                      static_cast<unsigned long long>(
                          e.report.fingerprint));
        if (e.report.ok()) {
            char ratio[32];
            std::snprintf(ratio, sizeof ratio, "%.1fx",
                          e.report.compressionRatio());
            std::cout << "ok       " << e.name << "  "
                      << e.report.records << " records  v"
                      << e.report.version << "  " << ratio
                      << "  fp " << fp << '\n';
            continue;
        }
        std::cout << "INVALID  " << e.name << "  "
                  << trace::traceFileStatusName(e.report.status)
                  << (e.report.detail.empty() ? "" : ": ")
                  << e.report.detail << (e.pruned ? "  [pruned]" : "")
                  << '\n';
    }
    for (const auto &e : scan.temps) {
        if (e.ageSeconds > trace::TempPruneAgeSeconds)
            std::cout << "STALE    " << e.name
                      << "  abandoned temp file"
                      << (e.pruned ? "  [pruned]" : "") << '\n';
        else
            std::cout << "TEMP     " << e.name
                      << "  [kept: possible live writer]\n";
    }
    std::cout << scan.traces.size() << " trace file(s), "
              << scan.invalid << " invalid, " << scan.temps.size()
              << " temp(s)"
              << (scan.prunedCount
                      ? ", " + std::to_string(scan.prunedCount) +
                            " pruned"
                      : "")
              << '\n';
    return scan.invalid == 0 ? 0 : 2;
}

/**
 * The versioned metrics dump --metrics-out writes and --check
 * consumes: schema tag, the context every reproduced number depends
 * on, then the whole registry. Returned as a string so --check can
 * diff the exact bytes that would be written.
 */
std::string
metricsDump(const sim::ExperimentOptions &opts, bool interrupted = false)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.member("schema", obs::kMetricsSchema);
    w.key("context");
    w.beginObject();
    w.member("scale", static_cast<std::uint64_t>(opts.scale));
    w.member("max_instructions", opts.maxInstructions);
    // Only tagged on an interrupted run: a normal dump's bytes must
    // stay identical to every earlier release (golden baselines).
    if (interrupted)
        w.member("interrupted", true);
    w.endObject();
    w.key("metrics");
    obs::metrics().writeJson(w);
    w.endObject();
    os << '\n';
    return os.str();
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << content;
    f.flush();
    return f.good();
}

/**
 * Diff this run's metrics against the committed baseline.
 * @return 0 on agreement, 1 on file/parse errors, 3 on drift.
 */
int
checkAgainstBaseline(const std::string &baselinePath, double relTol,
                     const sim::ExperimentOptions &opts)
{
    std::ifstream f(baselinePath, std::ios::binary);
    if (!f) {
        std::cerr << "lvpbench: cannot read baseline '" << baselinePath
                  << "'\n";
        return 1;
    }
    std::ostringstream text;
    text << f.rdbuf();
    std::string error;
    auto baseline = obs::parseJson(text.str(), error);
    if (!baseline) {
        std::cerr << "lvpbench: baseline '" << baselinePath
                  << "' is not valid JSON: " << error << '\n';
        return 1;
    }
    auto current = obs::parseJson(metricsDump(opts), error);
    if (!current) {
        std::cerr << "lvpbench: internal error: metrics dump does not "
                     "parse: "
                  << error << '\n';
        return 1;
    }
    auto report = obs::checkMetrics(*baseline, *current, relTol);
    obs::printCheckReport(std::cout, report, baselinePath, relTol);
    if (!report.error.empty())
        return 1;
    return report.ok() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string error;
    auto parsed = sim::parseBenchCli(
        std::vector<std::string>(argv + 1, argv + argc), error);
    if (!parsed) {
        std::cerr << "lvpbench: " << error << '\n';
        return usage(1);
    }
    const sim::BenchOptions &bench = *parsed;

    if (bench.help)
        return usage(0);

    if (!bench.verifyDir.empty())
        return verifyTraceCacheDir(bench.verifyDir, bench.prune);

    if (bench.list) {
        sim::writeSuiteList(std::cout);
        return 0;
    }

    if (bench.jobs)
        sim::setExperimentJobs(*bench.jobs);
    auto opts = sim::ExperimentOptions::fromEnv();
    if (bench.scale)
        opts.scale = *bench.scale;
    if (!bench.predictors.empty())
        opts.predictors = bench.predictors;

    if (bench.chaosSeed) {
        chaos::CampaignOptions copts;
        copts.seed = *bench.chaosSeed;
        copts.minPredictorFaults = bench.chaosFaults;
        copts.scale = opts.scale;
        copts.maxInstructions = opts.maxInstructions;
        return chaos::runChaosCampaign(copts, std::cout);
    }

    if (bench.watchdogMs)
        sim::setDefaultWallLimitMs(bench.watchdogMs);
    if (!bench.timelineOut.empty())
        obs::Timeline::process().setEnabled(true);

    auto &cache = sim::RunCache::instance();
    std::filesystem::path tempTraceDir;
    if (!bench.traceCache) {
        cache.setTraceDir("");
    } else if (cache.traceDir().empty()) {
        // No LVPLIB_TRACE_CACHE: use a private temp dir for this run.
        std::string tmpl =
            (std::filesystem::temp_directory_path() /
             "lvpbench-cache-XXXXXX")
                .string();
        if (char *dir = mkdtemp(tmpl.data())) {
            tempTraceDir = dir;
            cache.setTraceDir(dir);
        }
    }

    std::signal(SIGINT, onBenchSignal);
    std::signal(SIGTERM, onBenchSignal);

    std::vector<Timing> timings;
    double totalWall = 0;
    std::uint64_t totalInstr = 0;
    unsigned matched = 0, failedExperiments = 0;
    sim::RetryPolicy retryPolicy;
    retryPolicy.attempts = 1 + bench.retries;

    for (const auto &spec : sim::experimentSuite()) {
        if (gInterrupted)
            break;
        if (!bench.filters.empty()) {
            bool match = false;
            for (const auto &f : bench.filters)
                if (spec.id.find(f) != std::string::npos ||
                    spec.binary.find(f) != std::string::npos)
                    match = true;
            if (!match)
                continue;
        }
        ++matched;
        Timing tm;
        tm.id = spec.id;
        std::uint64_t instr0 = sim::instructionsProcessed();
        auto t0 = Clock::now();
        std::vector<sim::ExperimentSection> sections;
        try {
            obs::Timeline::Scope span(spec.id, "experiment");
            sections = sim::runWithRetry(spec.id, retryPolicy,
                                         [&] { return spec.run(opts); });
        } catch (const SimError &e) {
            // A recoverable failure in one experiment must not take
            // down the rest of the suite.
            std::cerr << "lvpbench: experiment " << spec.id
                      << " failed: " << e.what() << '\n';
            ++failedExperiments;
            continue;
        }
        tm.wallSeconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        tm.instructions = sim::instructionsProcessed() - instr0;
        tm.sections = sections.size();
        tm.title = sections.empty() ? spec.summary : sections[0].title;
        if (!bench.json)
            for (const auto &sec : sections)
                sim::printExperiment(std::cout, sec.title,
                                     sec.expectation, sec.table, opts);
        totalWall += tm.wallSeconds;
        totalInstr += tm.instructions;
        timings.push_back(std::move(tm));
    }

    if (!tempTraceDir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(tempTraceDir, ec);
    }

    const bool interrupted = gInterrupted != 0;
    if (matched == 0 && !interrupted) {
        std::cerr << "lvpbench: no experiment matches the filter\n";
        return 1;
    }
    if (timings.empty() && !interrupted) {
        std::cerr << "lvpbench: every matched experiment failed\n";
        return 4;
    }

    auto cs = cache.stats();

    if (bench.json) {
        obs::JsonWriter w(std::cout);
        w.beginObject();
        w.member("schema", "lvpbench-v1");
        // See metricsDump: present only on interrupted runs.
        if (interrupted)
            w.member("interrupted", true);
        w.member("scale", static_cast<std::uint64_t>(opts.scale));
        w.member("jobs", static_cast<std::uint64_t>(
                             sim::experimentPool().jobs()));
        w.key("experiments");
        w.beginArray();
        for (const auto &tm : timings) {
            w.beginObject();
            w.member("id", tm.id);
            w.member("title", tm.title);
            w.member("sections",
                     static_cast<std::uint64_t>(tm.sections));
            w.member("wall_seconds", tm.wallSeconds);
            w.member("instructions", tm.instructions);
            w.endObject();
        }
        w.endArray();
        w.key("total");
        w.beginObject();
        w.member("wall_seconds", totalWall);
        w.member("instructions", totalInstr);
        w.endObject();
        w.key("run_cache");
        w.beginObject();
        w.member("hits", cs.hits);
        w.member("misses", cs.misses);
        w.member("trace_writes", cs.traceWrites);
        w.member("trace_replays", cs.traceReplays);
        w.member("trace_invalid", cs.traceInvalid);
        w.member("trace_format_upgrade", cs.traceFormatUpgrade);
        w.endObject();
        w.endObject();
        std::cout << '\n';
    } else {
        TextTable t;
        t.header({"Experiment", "Wall (s)", "Instructions"});
        for (const auto &tm : timings)
            t.row({tm.id, fmtSeconds(tm.wallSeconds),
                   TextTable::fmtCount(tm.instructions)});
        t.row({"TOTAL", fmtSeconds(totalWall),
               TextTable::fmtCount(totalInstr)});
        std::cout << "\n== lvpbench timings (jobs="
                  << sim::experimentPool().jobs()
                  << ", scale=" << opts.scale << ") ==\n";
        t.print(std::cout);
        std::cout << "run cache: " << cs.hits << " hits, " << cs.misses
                  << " misses, " << cs.traceWrites
                  << " traces written, " << cs.traceReplays
                  << " replays, " << cs.traceInvalid
                  << " invalid traces regenerated\n";
    }

    if (!bench.metricsOut.empty()) {
        if (!writeFile(bench.metricsOut, metricsDump(opts, interrupted))) {
            std::cerr << "lvpbench: cannot write metrics to '"
                      << bench.metricsOut << "'\n";
            return 1;
        }
        std::cerr << "lvpbench: wrote " << obs::metrics().size()
                  << " metrics to " << bench.metricsOut << '\n';
    }

    if (!bench.timelineOut.empty()) {
        std::ostringstream os;
        obs::Timeline::process().writeJson(os);
        if (!writeFile(bench.timelineOut, os.str())) {
            std::cerr << "lvpbench: cannot write timeline to '"
                      << bench.timelineOut << "'\n";
            return 1;
        }
        std::cerr << "lvpbench: wrote "
                  << obs::Timeline::process().spanCount()
                  << " spans to " << bench.timelineOut << '\n';
    }

    if (interrupted) {
        // --check is skipped on purpose: a prefix run would "drift"
        // from the full-suite baseline by construction.
        std::cerr << "lvpbench: interrupted by signal "
                  << static_cast<int>(gInterrupted)
                  << "; snapshots cover the " << timings.size()
                  << " completed experiment(s)\n";
        return 5;
    }

    if (failedExperiments) {
        std::cerr << "lvpbench: " << failedExperiments
                  << " experiment(s) failed after "
                  << retryPolicy.attempts << " attempt(s) each\n";
        return 4;
    }

    if (!bench.checkBaseline.empty())
        return checkAgainstBaseline(bench.checkBaseline, bench.relTol,
                                    opts);
    return 0;
}
