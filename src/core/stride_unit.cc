#include "core/stride_unit.hh"

#include <bit>

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
    if (!std::has_single_bit(entries))
        lvp_fatal("stride entries must be a power of two (%u)",
                  entries);
    if (!std::has_single_bit(lctEntries))
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
    const std::uint32_t idx = index(pc);
    Entry &e = table_[idx];

    const bool would_be_correct = e.valid && predictionOf(e) == value;
    // Only a zero-stride (constant) entry may be CVU-verified: the
    // CVU guarantees the value in the table equals memory, which is
    // meaningless for a computed (changing) prediction.
    const bool constant_entry =
        e.valid && e.stride == 0 && e.conf.upperHalf();
    const trace::PredState state =
        cvuGate(stats_, cvu_, lct_.classify(pc), constant_entry, addr,
                idx, size, would_be_correct);

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

std::uint64_t
StrideLvpUnit::bitBudget() const
{
    // Stride table: last value + stride + confidence + valid.
    return std::uint64_t{config_.entries} *
               (64 + 64 + config_.strideConfBits + 1) +
           lct_.bitBudget() + cvu_.bitBudget(config_.entries);
}

template class Annotator<StrideLvpUnit>;

} // namespace lvplib::core
