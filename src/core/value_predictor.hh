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

#include <algorithm>
#include <any>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/config.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace lvplib::core
{

/** Aggregate statistics of one predictor unit over one trace. */
struct LvpStats
{
    std::uint64_t loads = 0;        ///< dynamic loads processed
    std::uint64_t noPred = 0;       ///< the unit's gate said "don't predict"
    std::uint64_t incorrect = 0;    ///< predicted, wrong
    std::uint64_t correct = 0;      ///< predicted, verified via memory
    std::uint64_t constants = 0;    ///< verified by the CVU (no access)

    // Classification confusion matrix (Table 3). "Actually
    // predictable" means the unit's prediction matched this dynamic
    // load's value.
    std::uint64_t actualUnpred = 0;      ///< dynamic loads it got wrong
    std::uint64_t actualPred = 0;        ///< dynamic loads it got right
    std::uint64_t unpredIdentified = 0;  ///< ...and the gate said don't-predict
    std::uint64_t predIdentified = 0;    ///< ...and the gate said predict/const

    std::uint64_t cvuInsertions = 0;
    std::uint64_t cvuStoreInvalidations = 0;
    std::uint64_t cvuDisplaceInvalidations = 0;
    std::uint64_t cvuStaleHits = 0; ///< must stay 0: coherence property

    /**
     * The outcome rule every unit runs once per dynamic load (paper
     * Tables 3 and 4). @p wouldBeCorrect says whether the unit's
     * prediction matches the loaded value, @p predict whether its
     * gate lets the prediction issue, and @p cvuHit whether a CVU
     * vouched for it as a constant (which implies @p predict). Counts
     * the load, its confusion-matrix cell and exactly one outcome,
     * and returns the load's PredState.
     */
    trace::PredState
    record(bool wouldBeCorrect, bool predict, bool cvuHit = false)
    {
        using trace::PredState;
        ++loads;
        if (wouldBeCorrect) {
            ++actualPred;
            if (predict)
                ++predIdentified;
        } else {
            ++actualUnpred;
            if (!predict)
                ++unpredIdentified;
        }
        if (cvuHit) {
            // The value is guaranteed coherent with memory, so the
            // load bypasses the memory hierarchy entirely.
            ++constants;
            if (!wouldBeCorrect)
                ++cvuStaleHits; // coherence violation: must not happen
            return PredState::Constant;
        }
        if (!predict) {
            ++noPred;
            return PredState::None;
        }
        if (wouldBeCorrect) {
            ++correct;
            return PredState::Correct;
        }
        ++incorrect;
        return PredState::Incorrect;
    }

    /**
     * Accumulate @p o into this. Every field is a plain event count,
     * so stats from consecutive replay segments sum to exactly the
     * stats of one serial pass — the property a resumed lvp-serve
     * session's final stats depend on.
     */
    LvpStats &operator+=(const LvpStats &o);

    /** Field-wise equality: the byte-identity check the serving path
     *  (lvp-serve sessions vs the offline pipeline) is verified by. */
    bool operator==(const LvpStats &o) const = default;

    /** Table 3 column: % of unpredictable loads identified as such. */
    double unpredHitRate() const;

    /** Table 3 column: % of predictable loads identified as such. */
    double predHitRate() const;

    /** Table 4: constant loads as a fraction of all dynamic loads. */
    double constantRate() const;

    /** Fraction of loads predicted (correct+incorrect+constant). */
    double predictionRate() const;

    /** Fraction of issued predictions that were correct. */
    double accuracy() const;
};

/**
 * Abstract trace-driven value predictor, and the skeleton every unit
 * shares: the statistics, the checkpoint and the default hooks. A
 * unit writes its tables, its prediction and its training; it counts
 * each load through LvpStats::record. Concrete units keep their
 * typed interfaces (tests and the paper runners use those); the
 * virtual layer exists so the registry, the championship experiment,
 * and lvp-serve sessions can treat the whole zoo uniformly.
 */
class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /** Process one dynamic load; returns its prediction state. */
    virtual trace::PredState onLoad(Addr pc, Addr addr, Word value,
                                    unsigned size) = 0;

    /** Process one dynamic store (CVU coherence); default no-op. */
    virtual void
    onStore(Addr addr, unsigned size)
    {
        (void)addr;
        (void)size;
    }

    /** Process one dynamic branch outcome (history-indexed units);
     *  default no-op. */
    virtual void onBranch(bool taken) { (void)taken; }

    const LvpStats &stats() const { return stats_; }

    /**
     * Bits of architected predictor state: every value, tag, counter,
     * valid bit, and history register a hardware implementation would
     * have to keep. Excludes statistics (measurement, not hardware)
     * and simulation bookkeeping. DESIGN.md documents the counting
     * rules per unit.
     */
    virtual std::uint64_t bitBudget() const = 0;

    /**
     * A checkpoint: a copy of the whole concrete unit, type-erased.
     * Feeding it to restoreState() on a same-configured unit and
     * replaying records [i, j) reproduces a serial replay's table
     * state and per-segment stats bit for bit — the contract
     * lvp-serve's session resume is built on. Each unit implements it
     * as `return *this;`.
     */
    virtual std::any snapshotState() const = 0;

    /** Become the unit captured by snapshotState(), keeping this
     *  unit's own stats. Panics if @p s holds another unit type.
     *  Each unit implements it as `restoreFrom<Unit>(s);`. */
    virtual void restoreState(const std::any &s) = 0;

  protected:
    // Protected so a unit copies as its own type, never sliced to
    // the base.
    ValuePredictor() = default;
    ValuePredictor(const ValuePredictor &) = default;
    ValuePredictor(ValuePredictor &&) = default;
    ValuePredictor &operator=(const ValuePredictor &) = default;
    ValuePredictor &operator=(ValuePredictor &&) = default;

    /** restoreState() for a unit of type @p Unit: assign the copy
     *  back, stats excluded. */
    template <typename Unit>
    void
    restoreFrom(const std::any &s)
    {
        const auto *snap = std::any_cast<Unit>(&s);
        lvp_assert(snap, "restoreState: wrong snapshot type");
        const LvpStats kept = stats_;
        static_cast<Unit &>(*this) = *snap;
        stats_ = kept;
    }

    LvpStats stats_;
};

/**
 * Records an Annotator copies, stamps and forwards at a time. A decoded
 * trace block is 8 Ki records (576 KiB); copying a whole block per
 * chain before forwarding it made every predictor in a sweep stream
 * that much through L2. A 256-record chunk (18 KiB) is stamped and
 * consumed downstream while it is still in L1, and it is large enough
 * that the per-chunk virtual call into the downstream sink stays
 * negligible. Measured on both perfbench `predict` and `timing`
 * (docs/PERFORMANCE.md).
 */
constexpr std::size_t AnnotateChunkRecords = 256;

/**
 * Trace-pipeline stage driving one predictor unit: stamps each load's
 * PredState into the record and forwards everything downstream.
 * Loads reach onLoad(), stores onStore() (CVU coherence), branches
 * onBranch() (history-indexed units). Templated on the concrete unit
 * so the per-record loop calls it directly, never through the
 * ValuePredictor vtable; each unit's header declares its instance
 * extern and its .cc instantiates it. Whether those direct calls
 * inline is up to the compiler. A batch goes downstream in chunks of
 * at most AnnotateChunkRecords records. LvpAnnotator is
 * Annotator<LvpUnit>.
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
    /** Annotated copies of the chunk in flight. */
    std::array<trace::TraceRecord, AnnotateChunkRecords> chunk_;
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
    while (!recs.empty()) {
        const std::size_t n = std::min(recs.size(), chunk_.size());
        std::copy_n(recs.begin(), n, chunk_.begin());
        for (std::size_t i = 0; i < n; ++i)
            annotate(chunk_[i]);
        downstream_.consumeBatch(
            std::span<const trace::TraceRecord>(chunk_.data(), n));
        recs = recs.subspan(n);
    }
}

/**
 * One predictor, fully configured: a family (the alternative held)
 * plus that family's parameters. Every predictor-only run — the paper
 * tables, the ablations, the championship, lvp-serve sessions — is
 * described by a spec. Specs compare member by member (every config
 * declares a defaulted operator<=>), and the run cache keys on them.
 */
using PredictorSpec = std::variant<LvpConfig, StrideConfig, FcmConfig,
                                   VtageConfig, SkewStrideConfig>;

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
