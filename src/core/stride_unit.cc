#include "core/stride_unit.hh"

#include "isa/program.hh"
#include "util/logging.hh"

namespace lvplib::core
{

StrideConfig
StrideConfig::simple()
{
    return StrideConfig();
}

void
StrideConfig::validate() const
{
    auto pow2 = [](std::uint32_t v) {
        return v != 0 && (v & (v - 1)) == 0;
    };
    if (!pow2(entries))
        lvp_fatal("stride entries must be a power of two (%u)",
                  entries);
    if (!pow2(lctEntries))
        lvp_fatal("stride lctEntries must be a power of two (%u)",
                  lctEntries);
    if (lctBits < 1 || lctBits > 8)
        lvp_fatal("stride lctBits out of range (%u)", lctBits);
    if (strideConfBits < 1 || strideConfBits > 8)
        lvp_fatal("stride strideConfBits out of range (%u)",
                  strideConfBits);
}

StrideLvpUnit::StrideLvpUnit(const StrideConfig &config)
    : config_((config.validate(), config)), mask_(config.entries - 1),
      lct_(config.lctEntries, config.lctBits), cvu_(config.cvuEntries)
{
    table_.assign(config.entries, Entry());
    for (auto &e : table_)
        e.conf = SatCounter(config.strideConfBits);
}

std::uint32_t
StrideLvpUnit::index(Addr pc) const
{
    return static_cast<std::uint32_t>(pc / isa::layout::InstBytes) &
           mask_;
}

Word
StrideLvpUnit::predictionOf(const Entry &e) const
{
    // Use the stride only once it has proven itself; otherwise fall
    // back to last-value prediction.
    if (e.conf.upperHalf())
        return e.last + static_cast<Word>(e.stride);
    return e.last;
}

trace::PredState
StrideLvpUnit::onLoad(Addr pc, Addr addr, Word value, unsigned size)
{
    using trace::PredState;

    ++stats_.loads;
    const std::uint32_t idx = index(pc);
    Entry &e = table_[idx];

    bool would_be_correct = e.valid && predictionOf(e) == value;
    const LoadClass cls = lct_.classify(pc);

    if (would_be_correct) {
        ++stats_.actualPred;
        if (cls != LoadClass::DontPredict)
            ++stats_.predIdentified;
    } else {
        ++stats_.actualUnpred;
        if (cls == LoadClass::DontPredict)
            ++stats_.unpredIdentified;
    }

    // Only a zero-stride (constant) entry may be CVU-verified: the
    // CVU guarantees the value in the table equals memory, which is
    // meaningless for a computed (changing) prediction.
    bool constant_entry = e.valid && e.stride == 0 && e.conf.upperHalf();

    PredState state = PredState::None;
    if (cls == LoadClass::Constant && constant_entry &&
        cvu_.enabled() && cvu_.lookup(addr, idx)) {
        state = PredState::Constant;
        ++stats_.constants;
        if (!would_be_correct)
            ++stats_.cvuStaleHits;
    } else if (cls != LoadClass::DontPredict) {
        if (would_be_correct) {
            state = PredState::Correct;
            ++stats_.correct;
            if (cls == LoadClass::Constant && constant_entry &&
                cvu_.enabled()) {
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

    lct_.update(pc, would_be_correct);

    // Stride training.
    if (!e.valid) {
        e.valid = true;
        e.last = value;
        e.stride = 0;
        e.conf.reset();
        stats_.cvuDisplaceInvalidations += cvu_.displaceInvalidate(idx);
        return state;
    }
    auto delta = static_cast<SWord>(value - e.last);
    if (delta == e.stride) {
        e.conf.increment();
    } else {
        e.stride = delta;
        e.conf.reset();
    }
    bool displaced = e.last != value || e.stride != 0;
    e.last = value;
    if (displaced && cvu_.enabled())
        stats_.cvuDisplaceInvalidations += cvu_.displaceInvalidate(idx);

    return state;
}

void
StrideLvpUnit::onStore(Addr addr, unsigned size)
{
    if (cvu_.enabled())
        stats_.cvuStoreInvalidations += cvu_.storeInvalidate(addr, size);
}

void
StrideLvpUnit::reset()
{
    for (auto &e : table_) {
        e = Entry();
        e.conf = SatCounter(config_.strideConfBits);
    }
    lct_.reset();
    cvu_.reset();
    stats_ = LvpStats();
}

std::uint64_t
StrideLvpUnit::bitBudget() const
{
    auto log2up = [](std::uint64_t v) {
        std::uint64_t n = 0;
        while ((std::uint64_t{1} << n) < v)
            ++n;
        return n;
    };
    // Stride table: last value + stride + confidence + valid.
    std::uint64_t bits =
        std::uint64_t{config_.entries} *
        (64 + 64 + config_.strideConfBits + 1);
    bits += std::uint64_t{config_.lctEntries} * config_.lctBits;
    // CVU CAM entries, as in LvpUnit::bitBudget().
    bits += std::uint64_t{config_.cvuEntries} *
            (64 + log2up(config_.entries) + 4 + 1);
    return bits;
}

std::any
StrideLvpUnit::snapshotState() const
{
    return snapshot();
}

void
StrideLvpUnit::restoreState(const std::any &s)
{
    const auto *snap = std::any_cast<Snapshot>(&s);
    lvp_assert(snap, "stride restoreState: wrong snapshot type");
    restore(*snap);
}

StrideLvpUnit::Snapshot
StrideLvpUnit::snapshot() const
{
    return Snapshot{table_, lct_, cvu_};
}

void
StrideLvpUnit::restore(const Snapshot &s)
{
    table_ = s.table;
    lct_ = s.lct;
    cvu_ = s.cvu;
}

template class Annotator<StrideLvpUnit>;

} // namespace lvplib::core
