/**
 * @file
 * The common interface of every load value predictor in the zoo, the
 * one annotator stage that drives any of them, the PredictorSpec that
 * names a configured predictor, and the name-keyed registry behind
 * the championship harness (realizing paper Section 7's call to move
 * "beyond history-based prediction").
 *
 * Every unit — the paper's LVPT+LCT+CVU, the stride and FCM
 * extensions, and the CVP-style contenders (VTAGE, skewed stride) —
 * exposes the same trace-driven protocol: onLoad / onStore / onBranch
 * in program order, LvpStats accounting, and checkpointable state as
 * a type-erased snapshot so an lvp-serve session can park and resume
 * any predictor without knowing its concrete table layout.
 * bitBudget() counts every bit of architected table state, making
 * leaderboard comparisons hardware-budget-fair.
 */

#ifndef LVPLIB_CORE_VALUE_PREDICTOR_HH
#define LVPLIB_CORE_VALUE_PREDICTOR_HH

#include <any>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/config.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace lvplib::core
{

struct LvpStats;

/**
 * Abstract trace-driven value predictor. Concrete units keep their
 * typed interfaces (tests and the paper runners use those); the
 * virtual layer exists so the registry, the championship experiment,
 * and lvp-serve sessions can treat the whole zoo uniformly. Deriving
 * adds no state and changes no arithmetic, so the migrated units'
 * outputs stay byte-identical.
 */
class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /** Process one dynamic load; returns its prediction state. */
    virtual trace::PredState onLoad(Addr pc, Addr addr, Word value,
                                    unsigned size) = 0;

    /** Process one dynamic store (CVU coherence; no-op for CVU-less
     *  units). */
    virtual void onStore(Addr addr, unsigned size) = 0;

    /** Process one dynamic branch outcome (history-indexed units);
     *  default no-op. */
    virtual void onBranch(bool taken) { (void)taken; }

    virtual const LvpStats &stats() const = 0;

    /** Clear tables and statistics. */
    virtual void reset() = 0;

    /**
     * Bits of architected predictor state: every value, tag, counter,
     * valid bit, and history register a hardware implementation would
     * have to keep. Excludes statistics (measurement, not hardware)
     * and simulation bookkeeping. DESIGN.md documents the counting
     * rules per unit.
     */
    virtual std::uint64_t bitBudget() const = 0;

    /**
     * Type-erased Snapshot of the unit's replayable state (stats
     * excluded), holding the unit's concrete Snapshot type. Feeding it
     * to restoreState() on a same-configured unit and replaying
     * records [i, j) reproduces a serial replay's table state and
     * per-segment stats bit for bit — the contract lvp-serve's
     * session resume is built on.
     */
    virtual std::any snapshotState() const = 0;

    /** Restore state captured by snapshotState(); stats untouched.
     *  Panics if @p s holds a different unit's snapshot type. */
    virtual void restoreState(const std::any &s) = 0;
};

/**
 * Trace-pipeline stage driving one predictor unit: stamps each load's
 * PredState into the record and forwards everything downstream.
 * Loads reach onLoad(), stores onStore() (CVU coherence), branches
 * onBranch() (history-indexed units). Templated on the concrete unit
 * so the per-record loop calls it directly, never through the
 * ValuePredictor vtable: each unit's header declares its instance
 * extern and its .cc instantiates it, so the unit's hot methods
 * inline into the loop. LvpAnnotator is Annotator<LvpUnit>.
 */
template <typename Unit>
class Annotator : public trace::TraceSink
{
  public:
    template <typename Config>
    Annotator(const Config &config, trace::TraceSink &downstream)
        : unit_(config), downstream_(downstream)
    {}

    void consume(const trace::TraceRecord &rec) override;
    void consumeBatch(std::span<const trace::TraceRecord> recs) override;
    void finish() override { downstream_.finish(); }

    const Unit &unit() const { return unit_; }

  private:
    /** Run the unit over @p out, stamping its pred in place. */
    void annotate(trace::TraceRecord &out);

    Unit unit_;
    trace::TraceSink &downstream_;
    std::vector<trace::TraceRecord> batch_; ///< annotated copies
};

template <typename Unit>
void
Annotator<Unit>::annotate(trace::TraceRecord &out)
{
    const auto &inst = *out.inst;
    if (inst.load()) {
        out.pred = unit_.onLoad(out.pc, out.effAddr, out.value,
                                inst.accessSize());
    } else if (inst.store()) {
        unit_.onStore(out.effAddr, inst.accessSize());
    } else if (inst.branch()) {
        unit_.onBranch(out.taken);
    }
}

template <typename Unit>
void
Annotator<Unit>::consume(const trace::TraceRecord &rec)
{
    trace::TraceRecord out = rec;
    annotate(out);
    downstream_.consume(out);
}

template <typename Unit>
void
Annotator<Unit>::consumeBatch(std::span<const trace::TraceRecord> recs)
{
    batch_.assign(recs.begin(), recs.end());
    for (trace::TraceRecord &out : batch_)
        annotate(out);
    downstream_.consumeBatch(std::span<const trace::TraceRecord>(
        batch_.data(), batch_.size()));
}

/**
 * One predictor, fully configured: a family (the alternative held)
 * plus that family's parameters. Every predictor-only run — the paper
 * tables, the ablations, the championship, lvp-serve sessions — is
 * described by a spec, and the run cache keys it on fingerprint().
 */
using PredictorSpec = std::variant<LvpConfig, StrideConfig, FcmConfig,
                                   VtageConfig, SkewStrideConfig>;

/**
 * Full-field fingerprint of @p spec: the family plus every
 * parameter, so a variant that tweaks any knob of a preset never
 * aliases the preset's cache entries.
 */
std::string fingerprint(const PredictorSpec &spec);

/** Build the unit @p spec describes. */
std::unique_ptr<ValuePredictor> makePredictor(const PredictorSpec &spec);

/** One registered predictor: a name, a blurb, and the spec of its
 *  Simple-class-budget instance. */
struct PredictorInfo
{
    std::string name;    ///< registry key, e.g. "vtage"
    std::string summary; ///< one-line description for reports
    PredictorSpec spec;
};

/**
 * Every predictor in the zoo, in fixed leaderboard order. The order
 * is part of the golden-metrics contract: experiments iterate it
 * deterministically.
 */
const std::vector<PredictorInfo> &predictorRegistry();

/** Look up a registered predictor; nullptr when unknown. */
const PredictorInfo *findPredictor(std::string_view name);

/**
 * Annotator for any spec: picks the Annotator<Unit> instance that
 * matches the spec's family and forwards the stream to it whole, so
 * there is one per-record loop for every predictor.
 */
class PredictorAnnotator : public trace::TraceSink
{
  public:
    PredictorAnnotator(const PredictorSpec &spec,
                       trace::TraceSink &downstream);
    PredictorAnnotator(const PredictorInfo &info,
                       trace::TraceSink &downstream)
        : PredictorAnnotator(info.spec, downstream)
    {}

    void
    consume(const trace::TraceRecord &rec) override
    {
        stage_->consume(rec);
    }

    void
    consumeBatch(std::span<const trace::TraceRecord> recs) override
    {
        stage_->consumeBatch(recs);
    }

    void finish() override { stage_->finish(); }

    const ValuePredictor &unit() const { return *unit_; }

  private:
    std::unique_ptr<trace::TraceSink> stage_; ///< an Annotator<Unit>
    const ValuePredictor *unit_ = nullptr;    ///< stage_'s unit
};

} // namespace lvplib::core

#endif // LVPLIB_CORE_VALUE_PREDICTOR_HH
