#include "sim/run_cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <unistd.h>

#include "chaos/chaos.hh"
#include "core/lvp_unit.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/parallel.hh"
#include "sim/resilience.hh"
#include "trace/trace_file.hh"
#include "uarch/alpha21164.hh"
#include "uarch/ppc620.hh"
#include "util/logging.hh"
#include "vm/interpreter.hh"

namespace lvplib::sim
{

namespace
{

using workloads::CodeGen;
using workloads::Workload;

/** Append one key component with a separator that never occurs in
 *  benchmark or configuration names. */
template <typename T>
void
keyPart(std::ostringstream &os, const T &v)
{
    os << '|' << v;
}

std::string
baseKey(const Workload &w, CodeGen cg, unsigned scale)
{
    std::ostringstream os;
    os << w.name;
    keyPart(os, workloads::codeGenName(cg));
    keyPart(os, scale);
    return os.str();
}

std::string
runKey(const Workload &w, CodeGen cg, unsigned scale,
       const RunConfig &rc)
{
    std::ostringstream os;
    os << baseKey(w, cg, scale);
    keyPart(os, rc.maxInstructions);
    return os.str();
}

/** Full-field fingerprints: ablation variants that tweak any knob of
 *  a preset must never alias the preset's cache entries (predictor
 *  configs use core::fingerprint). */
std::string
fp(const mem::HierarchyConfig &h)
{
    std::ostringstream os;
    for (auto v : {h.l1.sizeBytes, h.l1.assoc, h.l1.lineBytes,
                   h.l2.sizeBytes, h.l2.assoc, h.l2.lineBytes,
                   h.banks, h.l2Latency, h.memLatency})
        keyPart(os, v);
    return os.str();
}

std::string
fp(const uarch::BpredConfig &b)
{
    std::ostringstream os;
    keyPart(os, b.bhtEntries);
    keyPart(os, b.btbEntries);
    keyPart(os, b.gshareBits);
    return os.str();
}

std::string
fp(const uarch::Ppc620Config &m)
{
    std::ostringstream os;
    os << m.name;
    for (auto v : {m.fetchWidth, m.fetchBuffer, m.dispatchWidth,
                   m.completeWidth, m.rsPerUnit, m.gprRename,
                   m.fprRename, m.completionEntries, m.numScfx,
                   m.numMcfx, m.numFpu, m.numLsu, m.numBru,
                   m.memOpsPerCycle, m.mshrs})
        keyPart(os, v);
    keyPart(os, m.squashOnValueMispredict);
    os << fp(m.mem) << fp(m.bpred);
    return os.str();
}

std::string
fp(const uarch::AlphaConfig &m)
{
    std::ostringstream os;
    os << m.name;
    for (auto v :
         {m.width, m.intPipes, m.fpPipes, m.inflight})
        keyPart(os, v);
    os << fp(m.mem) << fp(m.bpred);
    return os.str();
}

std::string
fp(const std::optional<core::LvpConfig> &c)
{
    return c ? core::fingerprint(*c) : std::string("nolvp");
}

/**
 * Contiguous near-equal partition of [0, n) into at most @p g
 * non-empty [lo, hi) groups, for fanning one sweep's variants out
 * across the shard pool. Contiguity keeps the group→variant mapping
 * order-preserving, so results can be stitched back by walking
 * groups in order.
 */
std::vector<std::pair<std::size_t, std::size_t>>
partitionGroups(std::size_t n, std::size_t g)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    out.reserve(g);
    for (std::size_t i = 0; i < g; ++i) {
        std::size_t lo = i * n / g;
        std::size_t hi = (i + 1) * n / g;
        if (lo != hi)
            out.emplace_back(lo, hi);
    }
    return out;
}

} // namespace

struct RunCache::Impl
{
    mutable std::mutex m;
    std::string traceDir;

    std::map<std::string,
             std::shared_future<std::shared_ptr<const isa::Program>>>
        programs;
    std::map<std::string, std::shared_future<FuncResult>> funcs;
    std::map<std::string,
             std::shared_future<
                 std::shared_ptr<const core::ValueLocalityProfiler>>>
        localities;
    /** Predictor-only runs, keyed on core::fingerprint(spec). */
    std::map<std::string, std::shared_future<core::LvpStats>> preds;
    std::map<std::string, std::shared_future<PpcRun>> ppcRuns;
    std::map<std::string, std::shared_future<AlphaRun>> alphaRuns;
    /** Value: trace-file path ("" when generation was skipped). */
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

    /** One single-pass fan-out replay served @p sinks variants. */
    void
    noteFanoutReplay(std::size_t sinks)
    {
        traceReplays.fetch_add(1, std::memory_order_relaxed);
        obsTraceReplays.add();
        obsFanoutPasses.add();
        obsFanoutSinks.add(sinks);
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
     * Return the memoized value for @p key, computing it with
     * @p make exactly once: the first requester publishes a future
     * under the lock and computes outside it; concurrent requesters
     * block on that future.
     */
    template <typename V>
    V
    getOrCompute(std::map<std::string, std::shared_future<V>> &map,
                 const std::string &key,
                 const std::function<V()> &make)
    {
        std::promise<V> prom;
        std::shared_future<V> fut;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(m);
            auto it = map.find(key);
            if (it != map.end()) {
                fut = it->second;
            } else {
                fut = prom.get_future().share();
                map.emplace(key, fut);
                owner = true;
            }
        }
        if (owner) {
            misses.fetch_add(1, std::memory_order_relaxed);
            obsMisses.add();
            try {
                prom.set_value(make());
            } catch (...) {
                // Failures are not memoized: drop the future before
                // publishing the exception so current waiters see it
                // but a later request recomputes from scratch.
                {
                    std::lock_guard<std::mutex> lock(m);
                    map.erase(key);
                }
                prom.set_exception(std::current_exception());
            }
        } else {
            hits.fetch_add(1, std::memory_order_relaxed);
            obsHits.add();
        }
        return fut.get();
    }

    /**
     * Fan-out variant of getOrCompute(): resolve @p keys together.
     * Already-memoized keys are hits; the rest are claimed under one
     * lock (so concurrent sweeps block on our futures instead of
     * recomputing) and handed as index lists to @p batch, which
     * computes them in one shared trace replay, filling vals[k] for
     * owned[k]. Any owned variant @p batch could not serve (no trace,
     * replay failed and was reported, or batch threw) is computed by
     * the per-variant @p fallback. Every claimed promise is settled —
     * value, or key erased then exception, mirroring getOrCompute's
     * no-memoized-failures rule — before results are collected, and
     * the first failing variant's exception (in variant order)
     * propagates to the caller.
     */
    template <typename V>
    std::vector<V>
    fanOutCompute(
        std::map<std::string, std::shared_future<V>> &map,
        const std::vector<std::string> &keys,
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

    /**
     * The one sweep behind every predictor-only and timing entry
     * point. fanOutCompute claims the keys still missing from @p memo;
     * the claimed variants are then served from the shared phase-1
     * trace, cut into G = min(shardJobs(), claimed) contiguous groups,
     * each replaying the trace once through a MultiSink over its
     * variants' chains (@p make builds variant i's chain). Groups run
     * concurrently on the shard pool; G = 1 is a plain serial pass in
     * the calling thread. Grouping is off while chaos is armed:
     * shard-pool tasks would consume its TaskThrow stream and shift
     * which faults later campaign runs observe. Results stitch back in
     * variant order and each is published once. If the trace is
     * unusable, or a replay fails (reported through onReplayError),
     * every claimed variant falls back to an in-memory run of the same
     * chain. @p kind names the variants' timeline spans.
     */
    template <typename Chain, typename Make>
    std::vector<typename Chain::Result>
    sweep(RunCache &cache,
          std::map<std::string,
                   std::shared_future<typename Chain::Result>> &memo,
          const std::vector<std::string> &keys, const char *kind,
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
                struct GroupOut
                {
                    std::vector<V> vals;
                    std::uint64_t n = 0;
                };
                auto replayGroup =
                    [&](const std::pair<std::size_t, std::size_t> &g) {
                        std::vector<std::unique_ptr<Chain>> chains;
                        std::vector<trace::TraceSink *> tops;
                        for (std::size_t k = g.first; k < g.second; ++k) {
                            chains.push_back(make(owned[k]));
                            tops.push_back(&chains.back()->top());
                        }
                        trace::TraceFileReader reader(tr, *prog);
                        trace::MultiSink multi(std::move(tops));
                        GroupOut out;
                        out.n = reader.replay(multi);
                        for (const auto &c : chains)
                            out.vals.push_back(c->collect());
                        return out;
                    };
                std::size_t G =
                    chaos::engine().enabled()
                        ? 1
                        : std::min<std::size_t>(shardJobs(),
                                                owned.size());
                auto groups = partitionGroups(owned.size(), G);
                std::vector<GroupOut> outs;
                try {
                    if (groups.size() == 1)
                        outs.push_back(replayGroup(groups.front()));
                    else
                        outs = shardPool().map(groups, replayGroup);
                } catch (const SimError &e) {
                    onReplayError(tr, e);
                    return;
                }
                std::size_t k = 0;
                for (auto &o : outs) {
                    noteFanoutReplay(o.vals.size());
                    for (auto &v : o.vals) {
                        Chain::publish(v);
                        vals[k++] = std::move(v);
                    }
                }
                addInstructionsProcessed(outs.front().n * owned.size());
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
        impl_->programs, baseKey(w, cg, scale), [&] {
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
 * fingerprint of the program + run key) before reuse; any mismatch —
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
            std::ostringstream salt;
            salt << baseKey(w, cg, scale);
            keyPart(salt, rc.maxInstructions);
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
                vm::Interpreter interp(*prog);
                // Phase 1 is the unbounded phase, so it honors the
                // same watchdog budgets as the in-memory drivers
                // (replays are bounded by the verified file).
                std::uint64_t wallMs = rc.wallLimitMs != 0
                                           ? rc.wallLimitMs
                                           : defaultWallLimitMs();
                try {
                    if (wallMs != 0 || rc.recordBudget != 0) {
                        WatchdogSink wd(&writer, wallMs,
                                        rc.recordBudget);
                        interp.run(&wd, rc.maxInstructions);
                    } else {
                        interp.run(&writer, rc.maxInstructions);
                    }
                } catch (const SimError &) {
                    writer.close();
                    std::remove(tmp.c_str());
                    throw;
                }
                if (!interp.halted())
                    writer.finish();
                addInstructionsProcessed(interp.retired());
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

std::shared_ptr<const core::ValueLocalityProfiler>
RunCache::locality(const Workload &w, CodeGen cg, unsigned scale,
                   const RunConfig &rc)
{
    return impl_->getOrCompute<
        std::shared_ptr<const core::ValueLocalityProfiler>>(
        impl_->localities, runKey(w, cg, scale, rc), [&] {
            auto prog = program(w, cg, scale);
            std::string tr =
                impl_->ensureTrace(*this, w, cg, scale, rc);
            obs::Timeline::Scope span("locality:" + w.name, "sim");
            if (!tr.empty()) {
                try {
                    auto prof = std::make_shared<
                        core::ValueLocalityProfiler>();
                    trace::TraceFileReader reader(tr, *prog);
                    addInstructionsProcessed(reader.replay(*prof));
                    impl_->traceReplays.fetch_add(
                        1, std::memory_order_relaxed);
                    impl_->obsTraceReplays.add();
                    return std::shared_ptr<
                        const core::ValueLocalityProfiler>(prof);
                } catch (const SimError &e) {
                    impl_->onReplayError(tr, e);
                }
            }
            return std::shared_ptr<
                const core::ValueLocalityProfiler>(
                std::make_shared<core::ValueLocalityProfiler>(
                    profileLocality(*prog, rc)));
        });
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
    // No usable trace: interpret in memory under the same watchdog
    // envelope phase 1 uses.
    vm::Interpreter interp(*prog);
    std::uint64_t wallMs =
        rc.wallLimitMs != 0 ? rc.wallLimitMs : defaultWallLimitMs();
    if (wallMs != 0 || rc.recordBudget != 0) {
        WatchdogSink wd(&sink, wallMs, rc.recordBudget);
        interp.run(&wd, rc.maxInstructions);
    } else {
        interp.run(&sink, rc.maxInstructions);
    }
    if (!interp.halted())
        sink.finish();
    addInstructionsProcessed(interp.retired());
    return interp.retired();
}

std::vector<core::LvpStats>
RunCache::predictorOnlyMany(const Workload &w, CodeGen cg,
                            unsigned scale,
                            const std::vector<core::PredictorSpec> &specs,
                            const RunConfig &rc)
{
    std::string base = runKey(w, cg, scale, rc) + "|pred|";
    std::vector<std::string> keys;
    keys.reserve(specs.size());
    for (const auto &spec : specs)
        keys.push_back(base + core::fingerprint(spec));
    return impl_->sweep<PredictorChain>(
        *this, impl_->preds, keys, "pred", w, cg, scale, rc,
        [&](std::size_t i) {
            return std::make_unique<PredictorChain>(specs[i]);
        });
}

PpcRun
RunCache::ppc620(const Workload &w, CodeGen cg, unsigned scale,
                 const uarch::Ppc620Config &mc,
                 const std::optional<core::LvpConfig> &lvp,
                 const RunConfig &rc)
{
    return ppc620Many(w, cg, scale, {PpcVariant{mc, lvp}}, rc).front();
}

AlphaRun
RunCache::alpha21164(const Workload &w, CodeGen cg, unsigned scale,
                     const uarch::AlphaConfig &mc,
                     const std::optional<core::LvpConfig> &lvp,
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
    std::string base = runKey(w, cg, scale, rc) + "|ppc|";
    std::vector<std::string> keys;
    keys.reserve(variants.size());
    for (const auto &v : variants)
        keys.push_back(base + fp(v.mc) + '|' + fp(v.lvp));
    return impl_->sweep<PpcChain>(
        *this, impl_->ppcRuns, keys, "ppc620", w, cg, scale, rc,
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
    std::string base = runKey(w, cg, scale, rc) + "|alpha|";
    std::vector<std::string> keys;
    keys.reserve(variants.size());
    for (const auto &v : variants)
        keys.push_back(base + fp(v.mc) + '|' + fp(v.lvp));
    return impl_->sweep<AlphaChain>(
        *this, impl_->alphaRuns, keys, "alpha21164", w, cg, scale, rc,
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
