#include "chaos/campaign.hh"

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "core/lvp_unit.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/resilience.hh"
#include "sim/run_cache.hh"
#include "util/logging.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace lvplib::chaos
{

namespace
{

namespace fs = std::filesystem;
using workloads::CodeGen;
using workloads::Workload;

/** Everything an architectural-equivalence check compares. */
struct ArchSnapshot
{
    bool completed = false;
    bool hasResult = false;
    Word result = 0;           ///< the "__result" checksum word
    std::uint64_t memHash = 0; ///< full final-memory-image hash
    std::uint64_t retired = 0;
    std::size_t pages = 0;
    core::LvpStats lvp;
};

ArchSnapshot
runAnnotated(const isa::Program &prog, const core::LvpConfig &cfg,
             std::uint64_t maxInstructions)
{
    vm::Interpreter interp(prog);
    trace::NullSink null;
    core::LvpAnnotator annot(cfg, null);
    interp.run(&annot, maxInstructions);
    ArchSnapshot s;
    s.completed = interp.halted();
    if (prog.hasSymbol("__result")) {
        s.hasResult = true;
        s.result = interp.memory().read(prog.symbol("__result"), 8);
    }
    s.memHash = interp.memory().imageHash();
    s.retired = interp.retired();
    s.pages = interp.memory().pageCount();
    s.lvp = annot.unit().stats();
    return s;
}

/** Bit-identical architectural state? (Predictor stats may differ.) */
bool
archEqual(const ArchSnapshot &a, const ArchSnapshot &b)
{
    return a.completed == b.completed && a.hasResult == b.hasResult &&
           a.result == b.result && a.memHash == b.memHash &&
           a.retired == b.retired && a.pages == b.pages;
}

bool
lvpStatsEqual(const core::LvpStats &a, const core::LvpStats &b)
{
    return a.loads == b.loads && a.noPred == b.noPred &&
           a.incorrect == b.incorrect && a.correct == b.correct &&
           a.constants == b.constants &&
           a.actualUnpred == b.actualUnpred &&
           a.actualPred == b.actualPred &&
           a.unpredIdentified == b.unpredIdentified &&
           a.predIdentified == b.predIdentified &&
           a.cvuInsertions == b.cvuInsertions &&
           a.cvuStoreInvalidations == b.cvuStoreInvalidations &&
           a.cvuDisplaceInvalidations == b.cvuDisplaceInvalidations &&
           a.cvuStaleHits == b.cvuStaleHits;
}

} // namespace

int
runChaosCampaign(const CampaignOptions &opts, std::ostream &out)
{
    auto &ce = engine();
    ce.disarm();
    ce.resetCounts();

    const auto &all = workloads::allWorkloads();
    unsigned n = opts.numWorkloads;
    if (n == 0 || n > all.size())
        n = static_cast<unsigned>(all.size());
    const core::LvpConfig cfg = core::LvpConfig::simple();
    const sim::RunConfig rc{opts.maxInstructions};

    out << "== lvpchaos campaign ==\n"
        << "seed " << opts.seed << "  scale " << opts.scale
        << "  workloads " << n << "  predictor-fault quota "
        << opts.minPredictorFaults << "\n";

    // Fault-free references (chaos disarmed).
    std::vector<std::shared_ptr<const isa::Program>> progs;
    std::vector<ArchSnapshot> refs;
    for (unsigned i = 0; i < n; ++i) {
        progs.push_back(std::make_shared<const isa::Program>(
            all[i].build(CodeGen::Ppc, opts.scale)));
        refs.push_back(
            runAnnotated(*progs[i], cfg, opts.maxInstructions));
    }

    unsigned violations = 0;

    // ---- Phase 1: predictor-state faults (speculation safety) ----
    // Tighten the injection period round by round until the fault
    // quota is met: every faulted run must match its reference's
    // architectural state exactly, with zero CVU stale hits.
    out << "\n-- phase 1: predictor-state corruption --\n";
    std::uint64_t predictorFaults = 0;
    for (std::uint64_t period = 97;; period /= 2) {
        if (period == 0)
            period = 1;
        for (unsigned i = 0; i < n; ++i) {
            std::uint64_t before = ce.injectedTotal();
            ce.arm({opts.seed, PredictorPoints, period});
            ArchSnapshot got =
                runAnnotated(*progs[i], cfg, opts.maxInstructions);
            ce.disarm();
            std::uint64_t injected = ce.injectedTotal() - before;
            predictorFaults += injected;
            bool ok =
                archEqual(refs[i], got) && got.lvp.cvuStaleHits == 0;
            if (!ok)
                ++violations;
            out << "period " << period << "  " << all[i].name << "  "
                << injected << " faults (lvpt "
                << ce.injected(Point::LvptValue) << ", lct "
                << ce.injected(Point::LctCounter) << ", cvu "
                << ce.injected(Point::CvuEntry) << " cumulative)  "
                << (ok ? "arch-identical" : "ARCH-DIVERGENCE")
                << "\n";
        }
        if (violations || predictorFaults >= opts.minPredictorFaults ||
            period == 1)
            break;
    }
    out << "predictor faults injected: " << predictorFaults << "\n";
    if (predictorFaults < opts.minPredictorFaults) {
        ++violations;
        out << "VIOLATION: fault quota not met at period 1\n";
    }

    // ---- Phase 2: engine faults (recovery) ----
    out << "\n-- phase 2: engine-fault recovery --\n";
    auto &cache = sim::RunCache::instance();
    const std::string savedTraceDir = cache.traceDir();
    cache.clear();
    std::string dir;
    {
        std::string tmpl =
            (fs::temp_directory_path() / "lvpchaos-XXXXXX").string();
        if (char *d = mkdtemp(tmpl.data()))
            dir = d;
    }
    if (dir.empty()) {
        out << "VIOLATION: cannot create temp trace dir\n";
        return 4;
    }
    cache.setTraceDir(dir);

    // Step A: bit flips on trace read. Write traces fault-free, then
    // replay them with TraceReadFlip armed: a flipped replay must be
    // detected, discarded, and replaced by an in-memory run whose
    // stats match the reference exactly.
    for (unsigned i = 0; i < n; ++i)
        cache.lvpOnly(all[i], CodeGen::Ppc, opts.scale, cfg, rc);
    cache.clear(); // forget the memos, keep the trace files
    {
        std::uint64_t before = ce.injected(Point::TraceReadFlip);
        std::uint64_t recovered0 = ce.recoveredTotal();
        ce.arm({opts.seed, pointBit(Point::TraceReadFlip), 512});
        for (unsigned i = 0; i < n; ++i) {
            core::LvpStats got = cache.lvpOnly(all[i], CodeGen::Ppc,
                                               opts.scale, cfg, rc);
            bool ok = lvpStatsEqual(got, refs[i].lvp);
            if (!ok)
                ++violations;
            out << "read-flip  " << all[i].name << "  "
                << (ok ? "stats-identical" : "STATS-DIVERGENCE")
                << "\n";
        }
        ce.disarm();
        out << "read-flip faults "
            << (ce.injected(Point::TraceReadFlip) - before)
            << ", recovered events "
            << (ce.recoveredTotal() - recovered0) << "\n";
    }

    // Step B: failing writes/renames. Regeneration fails, every run
    // falls back to in-memory interpretation, and after enough
    // consecutive failures the cache degrades to cache-less mode.
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directory(dir, ec);
    cache.clear();
    {
        std::uint64_t recovered0 = ce.recoveredTotal();
        ce.arm({opts.seed,
                pointBit(Point::TraceWriteRecord) |
                    pointBit(Point::TraceWriteFooter) |
                    pointBit(Point::CacheRename),
                2});
        for (unsigned i = 0; i < n; ++i) {
            core::LvpStats got = cache.lvpOnly(all[i], CodeGen::Ppc,
                                               opts.scale, cfg, rc);
            bool ok = lvpStatsEqual(got, refs[i].lvp);
            if (!ok)
                ++violations;
            out << "write-fail  " << all[i].name << "  "
                << (ok ? "stats-identical" : "STATS-DIVERGENCE")
                << "\n";
        }
        ce.disarm();
        out << "write-fail recovered events "
            << (ce.recoveredTotal() - recovered0) << ", cache "
            << (cache.traceDir().empty() ? "degraded to in-memory"
                                         : "still on disk")
            << "\n";
    }

    // Step C: worker tasks dying inside a TaskPool, absorbed by the
    // engine's bounded retry (recovery) or reported as a clean
    // RetryExhausted error — either is a pass; a crash is not.
    {
        ce.arm({opts.seed, pointBit(Point::TaskThrow), 16});
        sim::TaskPool pool(2);
        std::vector<int> items(32);
        for (int i = 0; i < 32; ++i)
            items[static_cast<std::size_t>(i)] = i;
        sim::RetryPolicy policy;
        policy.attempts = 6;
        policy.sleep = false;
        try {
            auto doubled = sim::runWithRetry(
                "chaos.taskpool", policy, [&] {
                    return pool.map(items,
                                    [](const int &v) { return v * 2; });
                });
            bool ok = doubled.size() == items.size();
            for (std::size_t i = 0; ok && i < doubled.size(); ++i)
                ok = doubled[i] == items[i] * 2;
            if (!ok)
                ++violations;
            out << "task-throw  "
                << (ok ? "recovered (results intact)"
                       : "WRONG-RESULTS")
                << "\n";
        } catch (const SimError &e) {
            out << "task-throw  clean error ("
                << errorKindName(e.kind()) << ")\n";
        }
        ce.disarm();
        out << "task-throw faults " << ce.injected(Point::TaskThrow)
            << " cumulative\n";
    }

    // Step D: watchdog. A run that exceeds its budget must be cut
    // short with SimError(Watchdog), not run away or crash.
    {
        bool caught = false;
        try {
            vm::Interpreter interp(*progs[0]);
            trace::NullSink null;
            sim::WatchdogSink wd(&null, /*wallLimitMs=*/0,
                                 /*recordBudget=*/1000);
            interp.run(&wd, opts.maxInstructions);
        } catch (const SimError &e) {
            caught = e.kind() == ErrorKind::Watchdog;
        }
        if (!caught)
            ++violations;
        out << "watchdog  "
            << (caught ? "clean error (watchdog)" : "NOT-TRIGGERED")
            << "\n";
    }

    // Restore the process state the campaign borrowed.
    ce.disarm();
    cache.clear();
    cache.setTraceDir(savedTraceDir);
    fs::remove_all(dir, ec);

    out << "\ninjected " << ce.injectedTotal()
        << " faults total, recovered events " << ce.recoveredTotal()
        << "\nverdict: "
        << (violations == 0 ? "PASS"
                            : "FAIL (" + std::to_string(violations) +
                                  " violation(s))")
        << "\n";
    return violations == 0 ? 0 : 4;
}

} // namespace lvplib::chaos
