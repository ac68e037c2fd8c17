/**
 * @file
 * Process-wide memoizing run-cache for the experiment engine.
 *
 * The paper's evaluation re-runs the same 17 workloads through the
 * same handful of machine/LVP configurations for every table and
 * figure; a whole-suite regeneration used to rebuild and re-simulate
 * each (workload, codegen, scale) program dozens of times. The cache
 * shares, across every experiment runner in the process:
 *
 *  - built Programs, keyed on (workload, codegen, scale);
 *  - functional results, locality profiles, predictor-only
 *    statistics, and timing runs, keyed additionally on
 *    maxInstructions and on the predictor spec or machine variant
 *    itself. The keys are the configs, compared member by member (each
 *    config declares a defaulted operator<=>), so an ablation variant
 *    that changes any field never aliases a paper preset, and a new
 *    field joins the key by being declared;
 *  - optionally, on-disk phase-1 traces (Section 5's decoupled
 *    methodology): when a trace directory is configured, the
 *    functional interpreter runs once per (workload, codegen, scale,
 *    maxInstructions) to write a binary trace via TraceFileWriter,
 *    and every phase-2/3 run (predictor-only, locality, timing) replays
 *    that trace through TraceFileReader instead of re-interpreting.
 *
 * All entries are computed at most once even under concurrent access:
 * the first requester computes, later requesters block on a shared
 * future. Cached values are pure functions of their keys, so cache
 * order (and therefore thread schedule) never changes any result.
 *
 * The trace directory comes from the LVPLIB_TRACE_CACHE environment
 * variable at construction, or setTraceDir(). Trace files are named
 * by workload/codegen/scale/maxInstructions, but reuse is gated on
 * the self-describing trace format (trace/trace_file.hh): before a
 * file is replayed its header fingerprint — a hash of the encoded
 * Program plus the salt "workload|codegen|scale|maxInstructions" —
 * its format version, its footer record count, and its payload
 * checksum are all verified. A stale, truncated, or corrupt file is
 * treated as a cache miss (deleted, regenerated, and counted in
 * Stats::traceInvalid), never as a silent replay and never as a fatal
 * error; there is no need to wipe the directory when workload
 * builders or the interpreter change.
 * Writes go through per-process-unique temp files and an atomic
 * rename, so concurrent processes sharing one directory cannot
 * publish interleaved or partial traces; if the write itself fails
 * (e.g. disk full) the run falls back to in-memory interpretation
 * and the failure is not memoized.
 */

#ifndef LVPLIB_SIM_RUN_CACHE_HH
#define LVPLIB_SIM_RUN_CACHE_HH

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/locality_profiler.hh"
#include "sim/pipeline_driver.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

/** Memoizes experiment sub-runs; see file comment. */
class RunCache
{
  public:
    /** The process-wide instance the experiment runners share. */
    static RunCache &instance();

    /**
     * A private cache instance. The experiment engine shares
     * instance(); code that needs its own memoization domain — a
     * test isolating cache effects, a serving process keeping its
     * trace artifacts apart from an embedded bench run — constructs
     * its own. A fresh instance reads LVPLIB_TRACE_CACHE like the
     * shared one; setTraceDir() overrides per instance.
     */
    RunCache();

    ~RunCache();
    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /** Build (once) and share the program for one workload. */
    std::shared_ptr<const isa::Program>
    program(const workloads::Workload &w, workloads::CodeGen cg,
            unsigned scale);

    /** Cached runFunctional(). */
    FuncResult functional(const workloads::Workload &w,
                          workloads::CodeGen cg, unsigned scale,
                          const RunConfig &rc);

    /** Cached profileLocality() counts. */
    core::LoadLocality
    locality(const workloads::Workload &w, workloads::CodeGen cg,
             unsigned scale, const RunConfig &rc);

    /** Cached runPredictorOnly() for one paper LVP unit. */
    core::LvpStats lvpOnly(const workloads::Workload &w,
                           workloads::CodeGen cg, unsigned scale,
                           const core::LvpConfig &cfg,
                           const RunConfig &rc);

    /** Cached runPredictorOnly() for a registry predictor: the entry
     *  lvpOnly() or predictorOnlyMany() reach for the same spec. */
    core::LvpStats predictorOnly(const workloads::Workload &w,
                                 workloads::CodeGen cg, unsigned scale,
                                 const core::PredictorInfo &info,
                                 const RunConfig &rc);

    /**
     * Replay the shared phase-1 trace of (w, cg, scale, rc) into a
     * caller-owned @p sink — the per-session half of the
     * per-session/shared split behind lvp-serve: the immutable trace
     * artifact is produced once and shared, while the consuming state
     * (a session's predictor, a stream encoder) belongs entirely to
     * the caller. Falls back to a fresh in-memory interpretation when
     * the trace cache is disabled or unusable; either way the sink
     * sees the exact record sequence every other replay path sees.
     *
     * @return instructions replayed.
     * @throws SimError on a mid-replay failure. The bad trace has
     * already been invalidated (a retry regenerates it), but the sink
     * may have consumed a partial stream — reset or discard it before
     * retrying.
     */
    std::uint64_t replayShared(const workloads::Workload &w,
                               workloads::CodeGen cg, unsigned scale,
                               const RunConfig &rc,
                               trace::TraceSink &sink);

    /** Cached runPpc620(). */
    PpcRun ppc620(const workloads::Workload &w, workloads::CodeGen cg,
                  unsigned scale, const uarch::Ppc620Config &mc,
                  const std::optional<core::PredictorSpec> &lvp,
                  const RunConfig &rc);

    /** Cached runAlpha21164(). */
    AlphaRun alpha21164(const workloads::Workload &w,
                        workloads::CodeGen cg, unsigned scale,
                        const uarch::AlphaConfig &mc,
                        const std::optional<core::PredictorSpec> &lvp,
                        const RunConfig &rc);

    /**
     * @{
     * Single-pass configuration sweeps. Each call is equivalent to
     * invoking the matching singular method once per variant, in
     * order — same keys, same memoized values, same exceptions — and
     * the singular methods are sweeps of one. Every variant still
     * missing from the cache is computed from ONE replay of the
     * shared phase-1 trace in the calling thread, fanned out to all
     * of them; at block boundaries the replay hands half of its
     * variants to any idle experimentPool() worker, which replays
     * the rest of the trace for them (replayHandingOff() below;
     * never while chaos is armed).
     * runcache.trace_replays counts reader passes: one per sweep
     * plus one per hand-off. If the trace is unusable the
     * un-memoized variants fall back to per-variant in-memory runs.
     *
     * Predictor-only and timing results are keyed on the spec or
     * variant itself, compared member by member, so one configured
     * predictor is one entry however it is reached.
     */
    std::vector<core::LvpStats>
    predictorOnlyMany(const workloads::Workload &w,
                      workloads::CodeGen cg, unsigned scale,
                      const std::vector<core::PredictorSpec> &specs,
                      const RunConfig &rc);

    /** One timing-sweep variant: a machine config plus an optional
     *  predictor (nullopt = the no-LVP baseline machine). */
    struct PpcVariant
    {
        uarch::Ppc620Config mc;
        std::optional<core::PredictorSpec> lvp;

        auto operator<=>(const PpcVariant &) const = default;
    };

    struct AlphaVariant
    {
        uarch::AlphaConfig mc;
        std::optional<core::PredictorSpec> lvp;

        auto operator<=>(const AlphaVariant &) const = default;
    };

    std::vector<PpcRun>
    ppc620Many(const workloads::Workload &w, workloads::CodeGen cg,
               unsigned scale, const std::vector<PpcVariant> &variants,
               const RunConfig &rc);

    std::vector<AlphaRun>
    alpha21164Many(const workloads::Workload &w, workloads::CodeGen cg,
                   unsigned scale,
                   const std::vector<AlphaVariant> &variants,
                   const RunConfig &rc);
    /** @} */

    /**
     * Enable (non-empty) or disable (empty) the on-disk trace cache.
     * The directory must already exist.
     */
    void setTraceDir(std::string dir);

    /** Current trace-cache directory ("" = disabled). */
    std::string traceDir() const;

    /** Effectiveness counters. */
    struct Stats
    {
        std::uint64_t hits = 0;     ///< memoized results returned
        std::uint64_t misses = 0;   ///< results computed
        std::uint64_t traceWrites = 0;  ///< phase-1 traces written
        std::uint64_t traceReplays = 0; ///< runs served by replay
        std::uint64_t traceInvalid = 0; ///< bad traces regenerated
        /** Intact traces from another format version regenerated
         *  (migration churn, kept apart from corruption). */
        std::uint64_t traceFormatUpgrade = 0;
    };

    Stats stats() const;

    /** Drop every memoized entry (trace files stay on disk). */
    void clear();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

class TaskPool;

/** What replayHandingOff() did. */
struct HandOffReplay
{
    std::uint64_t records; ///< records in the trace
    unsigned passes;       ///< reader passes: 1 + hand-offs
};

/**
 * Replay the trace at @p path (of @p prog) once into every sink of
 * @p sinks, in the calling thread: the fan-out behind every sweep.
 * After each block, if chaos is disarmed, two or more sinks remain,
 * records remain, fewer than shardJobs() replays run and @p pool has
 * an idle worker, the replay hands the back half of its sinks to that
 * worker (a HandOff), which replays the rest of the trace on its own
 * reader inside timeline span @p span and may hand off again. Every
 * sink sees exactly a serial replay's stream.
 * @throws the first exception of any replay, once all have settled.
 */
HandOffReplay replayHandingOff(TaskPool &pool, const std::string &path,
                               const isa::Program &prog,
                               std::vector<trace::TraceSink *> sinks,
                               const std::string &span);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_RUN_CACHE_HH
