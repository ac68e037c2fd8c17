#include "core/lvp_unit.hh"

#include "chaos/chaos.hh"
#include "isa/program.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace lvplib::core
{

double
LvpStats::unpredHitRate()  const
{
    return pct(unpredIdentified, actualUnpred);
}

double
LvpStats::predHitRate() const
{
    return pct(predIdentified, actualPred);
}

double
LvpStats::constantRate() const
{
    return pct(constants, loads);
}

double
LvpStats::predictionRate() const
{
    return pct(incorrect + correct + constants, loads);
}

double
LvpStats::accuracy() const
{
    return pct(correct + constants, incorrect + correct + constants);
}

LvpStats &
LvpStats::operator+=(const LvpStats &o)
{
    loads += o.loads;
    noPred += o.noPred;
    incorrect += o.incorrect;
    correct += o.correct;
    constants += o.constants;
    actualUnpred += o.actualUnpred;
    actualPred += o.actualPred;
    unpredIdentified += o.unpredIdentified;
    predIdentified += o.predIdentified;
    cvuInsertions += o.cvuInsertions;
    cvuStoreInvalidations += o.cvuStoreInvalidations;
    cvuDisplaceInvalidations += o.cvuDisplaceInvalidations;
    cvuStaleHits += o.cvuStaleHits;
    return *this;
}

// The (validate(), config) comma idiom runs the config's own fatal
// checks BEFORE the member-initializer list builds any sub-table,
// whose internal asserts would otherwise fire first with a cruder
// message.
LvpUnit::LvpUnit(const LvpConfig &config)
    : config_((config.validate(), config)),
      lvpt_(config.lvptEntries, config.historyDepth, config.taggedLvpt),
      lct_(config.lctEntries, config.lctBits),
      cvu_(config.cvuEntries, config.cvuWays)
{
    chaosKey_ = chaos::streamKey(config_.name);
}

trace::PredState
LvpUnit::onLoad(Addr pc, Addr addr, Word value, unsigned size)
{
    using trace::PredState;

    ++stats_.loads;

    if (config_.perfectPrediction) {
        // Paper Table 2 "Perfect": every load value predicted
        // correctly, none classified as constant. No table state.
        ++stats_.correct;
        ++stats_.actualPred;
        ++stats_.predIdentified;
        return PredState::Correct;
    }

    if (chaos::engine().enabled())
        injectChaos();

    // The LVPT (and with it the CVU's index half) is looked up with
    // the pc, optionally hashed with global branch history (paper
    // Section 7's "branch history bits in the lookup index"). The
    // LCT stays pc-indexed: classification is per static load.
    //
    // Would this prediction have been correct? One scan of the entry
    // answers it and locates the value for training below. For
    // history depth > 1 the paper assumes a perfect selection
    // mechanism among the entry's values; at depth 1 the value is
    // present exactly when it is the MRU prediction.
    const Addr key = lookupKey(pc);
    const LvptProbe probe = lvpt_.probe(key, value);
    const std::uint32_t idx = probe.idx;
    const bool would_be_correct = lvpt_.hit(probe);

    const LoadClass cls = lct_.classify(pc);

    // Table 3 bookkeeping: how well does the LCT separate the loads
    // the LVPT can predict from the ones it cannot?
    if (would_be_correct) {
        ++stats_.actualPred;
        if (cls != LoadClass::DontPredict)
            ++stats_.predIdentified;
    } else {
        ++stats_.actualUnpred;
        if (cls == LoadClass::DontPredict)
            ++stats_.unpredIdentified;
    }

    PredState state = PredState::None;
    if (cls == LoadClass::Constant && cvu_.enabled() &&
        cvu_.lookup(addr, idx)) {
        // CVU hit: the LVPT value is guaranteed coherent with memory,
        // so the load bypasses the memory hierarchy entirely.
        state = PredState::Constant;
        ++stats_.constants;
        if (!would_be_correct)
            ++stats_.cvuStaleHits; // coherence violation: must not happen
    } else if (cls != LoadClass::DontPredict) {
        // Predictable (or constant that missed the CVU and was demoted
        // to predictable status, paper Section 3.3): verify against
        // the conventional memory hierarchy.
        if (would_be_correct) {
            state = PredState::Correct;
            ++stats_.correct;
            if (cls == LoadClass::Constant && cvu_.enabled()) {
                cvu_.insert(addr, idx, size);
                ++stats_.cvuInsertions;
            }
        } else {
            state = PredState::Incorrect;
            ++stats_.incorrect;
        }
    } else {
        ++stats_.noPred;
    }

    // Train the LCT on the outcome the LVPT would have produced, and
    // record the actual value in the LVPT.
    lct_.update(pc, would_be_correct);
    bool displaced = lvpt_.update(probe, key, value);
    if (displaced && cvu_.enabled()) {
        // The entry's prediction changed: constants verified against
        // the old value are stale.
        stats_.cvuDisplaceInvalidations += cvu_.displaceInvalidate(idx);
    }

    return state;
}

void
LvpUnit::injectChaos()
{
    // One decision per armed point per dynamic load, all keyed on the
    // unit's own load counter so the fault schedule is independent of
    // thread scheduling. Every corruption models what real hardware
    // does on that fault: an LVPT value flip changes the entry's MRU
    // value, so constants verified against the old value must be
    // displace-invalidated; an LCT flip only perturbs classification;
    // a CVU parity fault evicts the entry (treating it as present
    // could vouch for a stale value).
    using chaos::Point;
    auto &ce = chaos::engine();
    const std::uint64_t n = chaosLoads_++;

    if (ce.shouldInject(Point::LvptValue, chaosKey_, n)) {
        std::uint64_t h = ce.faultHash(Point::LvptValue, chaosKey_, n);
        auto idx = static_cast<std::uint32_t>(h) & (lvpt_.entries() - 1);
        Word mask = Word(1) << ((h >> 32) & 63);
        if (lvpt_.corruptMruValue(idx, mask) && cvu_.enabled()) {
            stats_.cvuDisplaceInvalidations +=
                cvu_.displaceInvalidate(idx);
        }
    }
    if (ce.shouldInject(Point::LctCounter, chaosKey_, n)) {
        std::uint64_t h = ce.faultHash(Point::LctCounter, chaosKey_, n);
        lct_.corruptCounter(static_cast<std::uint32_t>(h));
    }
    if (ce.shouldInject(Point::CvuEntry, chaosKey_, n)) {
        cvu_.corruptEvict(ce.faultHash(Point::CvuEntry, chaosKey_, n));
    }
}

Addr
LvpUnit::lookupKey(Addr pc) const
{
    if (config_.bhrBits == 0)
        return pc;
    Word mask = (Word(1) << config_.bhrBits) - 1;
    // Shift the history above the instruction-alignment bits so it
    // lands in the index.
    return pc ^ ((bhr_ & mask) * isa::layout::InstBytes);
}

void
LvpUnit::onBranch(bool taken)
{
    if (config_.bhrBits == 0)
        return;
    bhr_ = (bhr_ << 1) | (taken ? 1 : 0);
}

void
LvpUnit::onStore(Addr addr, unsigned size)
{
    if (cvu_.enabled())
        stats_.cvuStoreInvalidations += cvu_.storeInvalidate(addr, size);
}

void
LvpUnit::reset()
{
    lvpt_.reset();
    lct_.reset();
    cvu_.reset();
    bhr_ = 0;
    stats_ = LvpStats();
    chaosLoads_ = 0;
}

LvpUnit::Snapshot
LvpUnit::snapshot() const
{
    return Snapshot{lvpt_, lct_, cvu_, bhr_, chaosLoads_};
}

void
LvpUnit::restore(const Snapshot &s)
{
    lvpt_ = s.lvpt;
    lct_ = s.lct;
    cvu_ = s.cvu;
    bhr_ = s.bhr;
    // Resuming the fault-stream counter keeps a chaos-armed resumed
    // unit injecting exactly the faults an uninterrupted one would.
    chaosLoads_ = s.chaosLoads;
}

std::uint64_t
LvpUnit::bitBudget() const
{
    auto log2up = [](std::uint64_t v) {
        std::uint64_t n = 0;
        while ((std::uint64_t{1} << n) < v)
            ++n;
        return n;
    };
    // LVPT: depth 64-bit values + valid bit each, LRU ordering bits
    // when depth > 1, and a full tag per entry in the tagged ablation.
    const std::uint64_t depth = config_.historyDepth;
    std::uint64_t lvptEntry = depth * (64 + 1) + depth * log2up(depth);
    if (config_.taggedLvpt)
        lvptEntry += 64;
    std::uint64_t bits = config_.lvptEntries * lvptEntry;
    // LCT: one saturating counter per entry.
    bits += std::uint64_t{config_.lctEntries} * config_.lctBits;
    // CVU: each CAM entry holds a data address, the owning LVPT
    // index, an access size (4 bits cover 1..8 bytes), and a valid.
    bits += std::uint64_t{config_.cvuEntries} *
            (64 + log2up(config_.lvptEntries) + 4 + 1);
    // Branch history register (bhrBits == 0 for the paper design).
    bits += config_.bhrBits;
    return bits;
}

std::any
LvpUnit::snapshotState() const
{
    return snapshot();
}

void
LvpUnit::restoreState(const std::any &s)
{
    const auto *snap = std::any_cast<Snapshot>(&s);
    lvp_assert(snap, "lvp restoreState: wrong snapshot type");
    restore(*snap);
}

template class Annotator<LvpUnit>;

} // namespace lvplib::core
