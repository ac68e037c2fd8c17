#include "sim/run_cache.hh"

#include <atomic>
#include <cstdio>
#include <deque>
#include <utility>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>
#include <unistd.h>

#include "chaos/chaos.hh"
#include "core/lvp_unit.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/parallel.hh"
#include "trace/trace_file.hh"
#include "uarch/alpha21164.hh"
#include "uarch/ppc620.hh"
#include "util/logging.hh"

namespace lvplib::sim
{

namespace
{

using workloads::CodeGen;
using workloads::Workload;

/** A program: what RunCache::program() builds once. */
using ProgramKey = std::tuple<std::string, CodeGen, unsigned>;

/** A run: a program plus its instruction budget. The watchdog fields
 *  stay out; a run they abort throws and is never memoized. */
using RunKey = std::pair<ProgramKey, std::uint64_t>;

RunKey
runKey(const Workload &w, CodeGen cg, unsigned scale,
       const RunConfig &rc)
{
    return {{w.name, cg, scale}, rc.maxInstructions};
}

/** Memo keys of a sweep: each of @p configs within one run. Configs
 *  compare member by member, so a variant that changes any field of a
 *  preset never aliases the preset's entry. */
template <typename Config>
std::vector<std::pair<RunKey, Config>>
sweepKeys(const RunKey &run, const std::vector<Config> &configs)
{
    std::vector<std::pair<RunKey, Config>> keys;
    keys.reserve(configs.size());
    for (const auto &c : configs)
        keys.emplace_back(run, c);
    return keys;
}

/** What every replay of one replayHandingOff() call shares. */
struct Replays
{
    TaskPool &pool;
    const std::string &path;
    const isa::Program &prog;
    const std::string &span;
    const unsigned limit = shardJobs() != 0 ? shardJobs() : ~0u;
    std::atomic<unsigned> running{1}; ///< replays still reading
    std::atomic<unsigned> passes{0};  ///< reader passes completed
};

std::uint64_t replayFrom(Replays &r, std::vector<trace::TraceSink *> sinks,
                         std::uint64_t from);

/** A MultiSink that may hand the back half of its sinks to an idle
 *  worker after each block (the reader's batches are its blocks). */
struct HandOffSink : trace::MultiSink
{
    Replays &r;
    std::uint64_t records = 0;
    std::deque<HandOff> handOffs;

    HandOffSink(Replays &r, std::vector<trace::TraceSink *> sinks)
        : MultiSink(std::move(sinks)), r(r)
    {}

    void
    consumeBatch(std::span<const trace::TraceRecord> recs) override
    {
        MultiSink::consumeBatch(recs);
        const std::uint64_t next = recs.back().seq + 1;
        if (sinks_.size() < 2 || next >= records ||
            chaos::engine().enabled() || r.pool.idle() == 0)
            return;
        if (r.running.fetch_add(1) >= r.limit) {
            r.running.fetch_sub(1);
            return;
        }
        const auto half = sinks_.begin() + sinks_.size() / 2;
        handOffs.emplace_back(
            r.pool, [&r = r, back = std::vector(half, sinks_.end()), next] {
                obs::Timeline::Scope scope(r.span, "sim");
                replayFrom(r, back, next);
            });
        sinks_.erase(half, sinks_.end());
    }
};

/** One reader pass over records [from, end) into @p sinks; settles
 *  its hand-offs before it returns or throws. */
std::uint64_t
replayFrom(Replays &r, std::vector<trace::TraceSink *> sinks,
           std::uint64_t from)
{
    HandOffSink sink(r, std::move(sinks));
    std::exception_ptr error;
    std::uint64_t n = 0;
    try {
        trace::TraceFileReader reader(r.path, r.prog);
        reader.skipTo(from);
        sink.records = reader.records();
        n = reader.replay(sink);
    } catch (...) {
        error = std::current_exception();
    }
    r.running.fetch_sub(1);
    for (auto &h : sink.handOffs)
        if (auto e = h.settle(); e && !error)
            error = e;
    if (error)
        std::rethrow_exception(error);
    r.passes.fetch_add(1);
    return n;
}

} // namespace

HandOffReplay
replayHandingOff(TaskPool &pool, const std::string &path,
                 const isa::Program &prog,
                 std::vector<trace::TraceSink *> sinks,
                 const std::string &span)
{
    Replays r{pool, path, prog, span};
    std::uint64_t n = replayFrom(r, std::move(sinks), 0);
    return {n, r.passes.load()};
}

struct RunCache::Impl
{
    mutable std::mutex m;
    std::string traceDir;

    std::map<ProgramKey,
             std::shared_future<std::shared_ptr<const isa::Program>>>
        programs;
    std::map<RunKey, std::shared_future<FuncResult>> funcs;
    std::map<RunKey, std::shared_future<core::LoadLocality>> localities;
    std::map<std::pair<RunKey, core::PredictorSpec>,
             std::shared_future<core::LvpStats>>
        preds;
    std::map<std::pair<RunKey, PpcVariant>, std::shared_future<PpcRun>>
        ppcRuns;
    std::map<std::pair<RunKey, AlphaVariant>,
             std::shared_future<AlphaRun>>
        alphaRuns;
    /** Keyed on the trace path; value: the path ("" when generation
     *  was skipped). */
    std::map<std::string, std::shared_future<std::string>> traces;

    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> traceWrites{0};
    std::atomic<std::uint64_t> traceReplays{0};
    std::atomic<std::uint64_t> traceInvalid{0};
    std::atomic<std::uint64_t> traceFormatUpgrade{0};

    // Obs mirrors of the counters above, resolved once: registry
    // references stay valid for its lifetime, so the hot path never
    // re-looks-up by name. All volatile — cache effectiveness depends
    // on which experiments ran and in what order.
    obs::Counter &obsHits = obs::metrics().counter("runcache.hits");
    obs::Counter &obsMisses = obs::metrics().counter("runcache.misses");
    obs::Counter &obsTraceWrites =
        obs::metrics().counter("runcache.trace_writes");
    obs::Counter &obsTraceReplays =
        obs::metrics().counter("runcache.trace_replays");
    obs::Counter &obsTraceInvalid =
        obs::metrics().counter("runcache.trace_invalid");
    obs::Counter &obsTraceFormatUpgrade =
        obs::metrics().counter("runcache.trace_format_upgrade");
    obs::Counter &obsFanoutPasses =
        obs::metrics().counter("runcache.fanout.passes");
    obs::Counter &obsFanoutSinks =
        obs::metrics().counter("runcache.fanout.sinks");

    /** Consecutive failed trace writes before degrading to
     *  cache-less in-memory replay (clearing traceDir). */
    static constexpr unsigned DegradeThreshold = 3;
    std::atomic<unsigned> consecutiveTraceFailures{0};

    std::string ensureTrace(RunCache &cache, const Workload &w,
                            CodeGen cg, unsigned scale,
                            const RunConfig &rc);

    void
    noteTraceSuccess()
    {
        consecutiveTraceFailures.store(0, std::memory_order_relaxed);
    }

    /**
     * A trace write or publish failed (the run itself fell back to
     * in-memory interpretation, so this is recovered, not fatal). A
     * persistently failing disk degrades the cache: after
     * DegradeThreshold consecutive failures the trace directory is
     * dropped and every later run interprets in memory.
     */
    void
    noteTraceFailure()
    {
        chaos::engine().recordRecovered("trace_write");
        unsigned n = consecutiveTraceFailures.fetch_add(
                         1, std::memory_order_relaxed) +
                     1;
        if (n < DegradeThreshold)
            return;
        std::lock_guard<std::mutex> lock(m);
        if (traceDir.empty())
            return;
        lvp_warn("trace cache: %u consecutive write failures, "
                 "degrading to in-memory replay (disabling '%s')",
                 n, traceDir.c_str());
        traceDir.clear();
        obs::metrics().counter("runcache.degraded").add();
    }

    /**
     * A persisted trace failed mid-replay (corrupt payload, vanished
     * file, injected bit flip). Discard the file and its memo so the
     * caller's in-memory fallback — and any later request — starts
     * clean.
     */
    void
    onReplayError(const std::string &path, const SimError &e)
    {
        lvp_warn("trace cache: replay of '%s' failed (%s), falling "
                 "back to in-memory run: %s",
                 path.c_str(), errorKindName(e.kind()), e.what());
        traceInvalid.fetch_add(1, std::memory_order_relaxed);
        obsTraceInvalid.add();
        std::remove(path.c_str());
        {
            std::lock_guard<std::mutex> lock(m);
            traces.erase(path);
        }
        chaos::engine().recordRecovered("trace_replay");
    }

    /**
     * Resolve @p keys against @p map, computing each missing value
     * exactly once. Already-memoized keys are hits; the rest are
     * claimed under one lock (so concurrent requesters block on our
     * futures instead of recomputing) and handed as index lists to
     * @p batch, which computes them together (a sweep: one shared
     * trace replay), filling vals[k] for owned[k]. Any owned key
     * @p batch could not serve (no trace, replay failed and was
     * reported, or batch threw) is computed by the per-key
     * @p fallback. Every claimed promise is settled — value, or key
     * erased then exception, so failures are never memoized and a
     * later request recomputes — before results are collected, and
     * the first failing key's exception (in key order) propagates to
     * the caller.
     */
    template <typename V, typename K>
    std::vector<V>
    fanOutCompute(
        std::map<K, std::shared_future<V>> &map,
        const std::vector<K> &keys,
        const std::function<void(const std::vector<std::size_t> &,
                                 std::vector<std::optional<V>> &)>
            &batch,
        const std::function<V(std::size_t)> &fallback)
    {
        std::vector<std::shared_future<V>> futs(keys.size());
        std::vector<std::promise<V>> proms(keys.size());
        std::vector<std::size_t> owned;
        {
            std::lock_guard<std::mutex> lock(m);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                auto it = map.find(keys[i]);
                if (it != map.end()) {
                    // Includes duplicate keys earlier in this call:
                    // the first occurrence owns, the rest wait.
                    futs[i] = it->second;
                } else {
                    futs[i] = proms[i].get_future().share();
                    map.emplace(keys[i], futs[i]);
                    owned.push_back(i);
                }
            }
        }
        std::size_t nHits = keys.size() - owned.size();
        if (nHits > 0) {
            hits.fetch_add(nHits, std::memory_order_relaxed);
            obsHits.add(nHits);
        }
        if (!owned.empty()) {
            misses.fetch_add(owned.size(), std::memory_order_relaxed);
            obsMisses.add(owned.size());
            std::vector<std::optional<V>> vals(owned.size());
            std::vector<std::exception_ptr> errs(owned.size());
            try {
                batch(owned, vals);
            } catch (...) {
                auto e = std::current_exception();
                for (std::size_t k = 0; k < owned.size(); ++k)
                    if (!vals[k])
                        errs[k] = e;
            }
            for (std::size_t k = 0; k < owned.size(); ++k) {
                if (vals[k] || errs[k])
                    continue;
                try {
                    vals[k] = fallback(owned[k]);
                } catch (...) {
                    errs[k] = std::current_exception();
                }
            }
            for (std::size_t k = 0; k < owned.size(); ++k) {
                std::size_t i = owned[k];
                if (vals[k]) {
                    proms[i].set_value(std::move(*vals[k]));
                } else {
                    {
                        std::lock_guard<std::mutex> lock(m);
                        map.erase(keys[i]);
                    }
                    proms[i].set_exception(errs[k]);
                }
            }
        }
        std::vector<V> out;
        out.reserve(keys.size());
        for (auto &f : futs)
            out.push_back(f.get());
        return out;
    }

    /** fanOutCompute() for one key, computed by @p make. */
    template <typename V, typename K>
    V
    getOrCompute(std::map<K, std::shared_future<V>> &map, const K &key,
                 const std::function<V()> &make)
    {
        return std::move(
            fanOutCompute<V>(
                map, {key},
                [&](const std::vector<std::size_t> &,
                    std::vector<std::optional<V>> &vals) {
                    vals[0] = make();
                },
                {})
                .front());
    }

    /**
     * The one sweep behind every locality, predictor-only and timing
     * entry point. fanOutCompute claims the keys still missing from
     * @p memo; the claimed variants are then served from the shared
     * phase-1 trace by one replayHandingOff() over their chains
     * (@p make builds variant i's chain), which hands chains to idle
     * experimentPool() workers at block boundaries. Results are
     * collected from the chains in variant order and each is
     * published once. If the trace is unusable, or a replay fails
     * (reported through onReplayError), every claimed variant falls
     * back to an in-memory run of the same chain. @p kind names the
     * variants' timeline spans.
     */
    template <typename Chain, typename K, typename Make>
    std::vector<typename Chain::Result>
    sweep(RunCache &cache,
          std::map<K, std::shared_future<typename Chain::Result>> &memo,
          const std::vector<K> &keys, const char *kind,
          const Workload &w, CodeGen cg, unsigned scale,
          const RunConfig &rc, const Make &make)
    {
        using V = typename Chain::Result;
        const std::string span = std::string(kind) + ":" + w.name;
        return fanOutCompute<V>(
            memo, keys,
            [&](const std::vector<std::size_t> &owned,
                std::vector<std::optional<V>> &vals) {
                auto prog = cache.program(w, cg, scale);
                std::string tr = ensureTrace(cache, w, cg, scale, rc);
                if (tr.empty())
                    return;
                obs::Timeline::Scope scope(span, "sim");
                std::vector<std::unique_ptr<Chain>> chains;
                std::vector<trace::TraceSink *> tops;
                for (std::size_t i : owned) {
                    chains.push_back(make(i));
                    tops.push_back(&chains.back()->top());
                }
                HandOffReplay replay;
                try {
                    replay = replayHandingOff(experimentPool(), tr,
                                              *prog, std::move(tops),
                                              span);
                } catch (const SimError &e) {
                    onReplayError(tr, e);
                    return;
                }
                traceReplays.fetch_add(replay.passes,
                                       std::memory_order_relaxed);
                obsTraceReplays.add(replay.passes);
                obsFanoutPasses.add(replay.passes);
                obsFanoutSinks.add(chains.size());
                for (std::size_t k = 0; k < chains.size(); ++k) {
                    vals[k] = chains[k]->collect();
                    Chain::publish(*vals[k]);
                }
                addInstructionsProcessed(replay.records * owned.size());
            },
            [&](std::size_t i) {
                auto prog = cache.program(w, cg, scale);
                obs::Timeline::Scope scope(span, "sim");
                auto chain = make(i);
                return runChain(*prog, *chain, rc);
            });
    }
};

RunCache::RunCache() : impl_(std::make_unique<Impl>())
{
    if (const char *dir = std::getenv("LVPLIB_TRACE_CACHE"))
        impl_->traceDir = dir;
}

RunCache::~RunCache() = default;

RunCache &
RunCache::instance()
{
    static RunCache cache;
    return cache;
}

std::shared_ptr<const isa::Program>
RunCache::program(const Workload &w, CodeGen cg, unsigned scale)
{
    return impl_->getOrCompute<std::shared_ptr<const isa::Program>>(
        impl_->programs, ProgramKey{w.name, cg, scale}, [&] {
            return std::make_shared<const isa::Program>(
                w.build(cg, scale));
        });
}

namespace
{

bool
fileExists(const std::string &path)
{
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return true;
    }
    return false;
}

/**
 * A temp name no other writer can collide with: trace directories may
 * be shared by concurrent lvpbench processes, so the name carries the
 * pid plus a process-local counter.
 */
std::string
uniqueTempName(const std::string &path)
{
    static std::atomic<unsigned> seq{0};
    std::ostringstream os;
    os << path << ".tmp." << ::getpid() << '.'
       << seq.fetch_add(1, std::memory_order_relaxed);
    return os.str();
}

} // namespace

/**
 * Phase 1, once per (workload, codegen, scale, maxInstructions):
 * interpret the program and persist its dynamic trace. Returns the
 * trace path, or "" when the trace cache is disabled or the write
 * failed (callers then fall back to in-memory interpretation; the
 * failure itself is never memoized, so a later request retries).
 *
 * An existing file is fully verified (envelope, checksum, and the
 * fingerprint of the program + salt) before reuse; any mismatch —
 * stale fingerprint, old format version, truncation, bit flip — is
 * treated as a cache miss: the bad file is deleted, counted in
 * Stats::traceInvalid, and regenerated.
 */
std::string
RunCache::Impl::ensureTrace(RunCache &cache, const Workload &w,
                            CodeGen cg, unsigned scale,
                            const RunConfig &rc)
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(m);
        dir = traceDir;
    }
    if (dir.empty())
        return "";
    std::ostringstream name;
    name << dir << '/' << w.name << '-' << workloads::codeGenName(cg)
         << "-s" << scale << "-m" << rc.maxInstructions << ".trace";
    std::string result = getOrCompute<std::string>(
        traces, name.str(), [&, path = name.str()] {
            auto prog = cache.program(w, cg, scale);
            // The salt's bytes are part of every persisted trace's
            // fingerprint: change them and every cache goes stale.
            std::ostringstream salt;
            salt << w.name << '|' << workloads::codeGenName(cg) << '|'
                 << scale << '|' << rc.maxInstructions;
            std::uint64_t fp = trace::mixFingerprint(
                trace::programFingerprint(*prog), salt.str());
            if (fileExists(path)) {
                // Reuse a previous process's phase 1 — but only
                // after it proves it matches this program and run.
                auto rep = trace::verifyTraceFile(path, fp);
                if (rep.ok())
                    return path;
                if (rep.status == trace::TraceFileStatus::BadVersion) {
                    // An intact file from another format generation is
                    // migration churn, not corruption; count it apart
                    // so metrics can tell the two stories.
                    lvp_warn("trace cache: '%s' is format v%u, "
                             "regenerating as v%u",
                             path.c_str(), rep.version,
                             trace::TraceFormatVersion);
                    traceFormatUpgrade.fetch_add(
                        1, std::memory_order_relaxed);
                    obsTraceFormatUpgrade.add();
                } else {
                    lvp_warn("trace cache: '%s' invalid (%s%s%s), "
                             "regenerating",
                             path.c_str(),
                             trace::traceFileStatusName(rep.status),
                             rep.detail.empty() ? "" : ": ",
                             rep.detail.c_str());
                    traceInvalid.fetch_add(1,
                                           std::memory_order_relaxed);
                    obsTraceInvalid.add();
                }
                std::remove(path.c_str());
            }
            std::string tmp = uniqueTempName(path);
            bool written;
            {
                obs::Timeline::Scope span("trace:" + w.name, "trace");
                trace::TraceFileWriter writer(tmp, fp);
                // Phase 1 is the unbounded phase, so it runs under the
                // in-memory driver's watchdog budgets (replays are
                // bounded by the verified file).
                try {
                    interpret(*prog, writer, rc);
                } catch (const SimError &) {
                    writer.close();
                    std::remove(tmp.c_str());
                    throw;
                }
                written = writer.close();
                if (!written)
                    lvp_warn("trace cache: cannot write '%s' (%s)",
                             tmp.c_str(), writer.error().c_str());
            }
            bool renameFailed =
                written &&
                (chaos::engine().shouldInject(
                     chaos::Point::CacheRename,
                     trace::mixFingerprint(0, path), 0) ||
                 std::rename(tmp.c_str(), path.c_str()) != 0);
            if (!written || renameFailed) {
                if (renameFailed)
                    lvp_warn("cannot rename trace '%s'", tmp.c_str());
                std::remove(tmp.c_str());
                noteTraceFailure();
                return std::string();
            }
            noteTraceSuccess();
            traceWrites.fetch_add(1, std::memory_order_relaxed);
            obsTraceWrites.add();
            return path;
        });
    if (result.empty()) {
        // Do not memoize the failure: let a later request retry
        // (disk pressure and permission problems are transient).
        std::lock_guard<std::mutex> lock(m);
        traces.erase(name.str());
    }
    return result;
}

FuncResult
RunCache::functional(const Workload &w, CodeGen cg, unsigned scale,
                     const RunConfig &rc)
{
    return impl_->getOrCompute<FuncResult>(
        impl_->funcs, runKey(w, cg, scale, rc), [&] {
            obs::Timeline::Scope span("functional:" + w.name, "sim");
            // Functional runs need the final memory image (the
            // "__result" checksum), so they always interpret.
            return runFunctional(*program(w, cg, scale), rc);
        });
}

core::LoadLocality
RunCache::locality(const Workload &w, CodeGen cg, unsigned scale,
                   const RunConfig &rc)
{
    return impl_->sweep<LocalityChain>(
        *this, impl_->localities, {runKey(w, cg, scale, rc)}, "locality",
        w, cg, scale, rc,
        [](std::size_t) { return std::make_unique<LocalityChain>(); })
        .front();
}

core::LvpStats
RunCache::lvpOnly(const Workload &w, CodeGen cg, unsigned scale,
                  const core::LvpConfig &cfg, const RunConfig &rc)
{
    return predictorOnlyMany(w, cg, scale, {cfg}, rc).front();
}

core::LvpStats
RunCache::predictorOnly(const Workload &w, CodeGen cg, unsigned scale,
                        const core::PredictorInfo &info,
                        const RunConfig &rc)
{
    return predictorOnlyMany(w, cg, scale, {info.spec}, rc).front();
}

std::uint64_t
RunCache::replayShared(const Workload &w, CodeGen cg, unsigned scale,
                       const RunConfig &rc, trace::TraceSink &sink)
{
    auto prog = program(w, cg, scale);
    std::string tr = impl_->ensureTrace(*this, w, cg, scale, rc);
    obs::Timeline::Scope span("replay:" + w.name, "sim");
    if (!tr.empty()) {
        try {
            trace::TraceFileReader reader(tr, *prog);
            std::uint64_t n = reader.replay(sink);
            addInstructionsProcessed(n);
            impl_->traceReplays.fetch_add(1, std::memory_order_relaxed);
            impl_->obsTraceReplays.add();
            return n;
        } catch (const SimError &e) {
            // Invalidate the artifact, then let the caller decide:
            // unlike the memoized paths, the sink already consumed a
            // partial stream, so a silent in-memory fallback here
            // would double-feed it.
            impl_->onReplayError(tr, e);
            throw;
        }
    }
    // No usable trace: interpret in memory, as phase 1 would.
    return interpret(*prog, sink, rc);
}

std::vector<core::LvpStats>
RunCache::predictorOnlyMany(const Workload &w, CodeGen cg,
                            unsigned scale,
                            const std::vector<core::PredictorSpec> &specs,
                            const RunConfig &rc)
{
    return impl_->sweep<PredictorChain>(
        *this, impl_->preds, sweepKeys(runKey(w, cg, scale, rc), specs),
        "pred", w, cg, scale, rc,
        [&](std::size_t i) {
            return std::make_unique<PredictorChain>(specs[i]);
        });
}

PpcRun
RunCache::ppc620(const Workload &w, CodeGen cg, unsigned scale,
                 const uarch::Ppc620Config &mc,
                 const std::optional<core::PredictorSpec> &lvp,
                 const RunConfig &rc)
{
    return ppc620Many(w, cg, scale, {PpcVariant{mc, lvp}}, rc).front();
}

AlphaRun
RunCache::alpha21164(const Workload &w, CodeGen cg, unsigned scale,
                     const uarch::AlphaConfig &mc,
                     const std::optional<core::PredictorSpec> &lvp,
                     const RunConfig &rc)
{
    return alpha21164Many(w, cg, scale, {AlphaVariant{mc, lvp}}, rc)
        .front();
}

std::vector<PpcRun>
RunCache::ppc620Many(const Workload &w, CodeGen cg, unsigned scale,
                     const std::vector<PpcVariant> &variants,
                     const RunConfig &rc)
{
    return impl_->sweep<PpcChain>(
        *this, impl_->ppcRuns, sweepKeys(runKey(w, cg, scale, rc), variants),
        "ppc620", w, cg, scale, rc,
        [&](std::size_t i) {
            return std::make_unique<PpcChain>(variants[i].mc,
                                              variants[i].lvp);
        });
}

std::vector<AlphaRun>
RunCache::alpha21164Many(const Workload &w, CodeGen cg,
                         unsigned scale,
                         const std::vector<AlphaVariant> &variants,
                         const RunConfig &rc)
{
    return impl_->sweep<AlphaChain>(
        *this, impl_->alphaRuns,
        sweepKeys(runKey(w, cg, scale, rc), variants), "alpha21164", w,
        cg, scale, rc,
        [&](std::size_t i) {
            return std::make_unique<AlphaChain>(variants[i].mc,
                                                variants[i].lvp);
        });
}

void
RunCache::setTraceDir(std::string dir)
{
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->traceDir = std::move(dir);
}

std::string
RunCache::traceDir() const
{
    std::lock_guard<std::mutex> lock(impl_->m);
    return impl_->traceDir;
}

RunCache::Stats
RunCache::stats() const
{
    Stats s;
    s.hits = impl_->hits.load(std::memory_order_relaxed);
    s.misses = impl_->misses.load(std::memory_order_relaxed);
    s.traceWrites =
        impl_->traceWrites.load(std::memory_order_relaxed);
    s.traceReplays =
        impl_->traceReplays.load(std::memory_order_relaxed);
    s.traceInvalid =
        impl_->traceInvalid.load(std::memory_order_relaxed);
    s.traceFormatUpgrade =
        impl_->traceFormatUpgrade.load(std::memory_order_relaxed);
    return s;
}

void
RunCache::clear()
{
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->programs.clear();
    impl_->funcs.clear();
    impl_->localities.clear();
    impl_->preds.clear();
    impl_->ppcRuns.clear();
    impl_->alphaRuns.clear();
    impl_->traces.clear();
    impl_->hits = 0;
    impl_->misses = 0;
    impl_->traceWrites = 0;
    impl_->traceReplays = 0;
    impl_->traceInvalid = 0;
    impl_->traceFormatUpgrade = 0;
    impl_->consecutiveTraceFailures = 0;
}

} // namespace lvplib::sim
