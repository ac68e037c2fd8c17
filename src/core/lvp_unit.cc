#include "core/lvp_unit.hh"

#include "chaos/chaos.hh"
#include "isa/program.hh"

namespace lvplib::core
{

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
    // Paper Table 2 "Perfect": every load value predicted correctly,
    // none classified as constant. No table state.
    if (config_.perfectPrediction)
        return stats_.record(true, true);

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

    const trace::PredState state =
        cvuGate(stats_, cvu_, lct_.classify(pc), /*cvuEligible=*/true,
                addr, idx, size, would_be_correct);

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

std::uint64_t
LvpUnit::bitBudget() const
{
    // The branch history register adds bhrBits (0 for the paper
    // design).
    return lvpt_.bitBudget() + lct_.bitBudget() +
           cvu_.bitBudget(config_.lvptEntries) + config_.bhrBits;
}

template class Annotator<LvpUnit>;

} // namespace lvplib::core
