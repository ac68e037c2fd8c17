#include "core/fcm_unit.hh"

#include <algorithm>
#include <bit>

#include "isa/program.hh"
#include "util/logging.hh"

namespace lvplib::core
{

namespace
{

/** Mixing constant for context folding (splitmix64 finalizer flavor). */
constexpr Word FoldMul = 0x9E3779B97F4A7C15ull;

} // namespace

FcmConfig
FcmConfig::simple()
{
    return FcmConfig();
}

void
FcmConfig::validate() const
{
    if (!std::has_single_bit(level1Entries))
        lvp_fatal("fcm level1Entries must be a power of two (%u)",
                  level1Entries);
    if (!std::has_single_bit(level2Entries))
        lvp_fatal("fcm level2Entries must be a power of two (%u)",
                  level2Entries);
    if (!std::has_single_bit(lctEntries))
        lvp_fatal("fcm lctEntries must be a power of two (%u)",
                  lctEntries);
    if (lctBits < 1 || lctBits > 8)
        lvp_fatal("fcm lctBits out of range (%u)", lctBits);
    // order == 0 would make the fold shift by >= 64 bits — undefined
    // behavior, and a contextless FCM is meaningless anyway.
    if (order < 1 || order > 8)
        lvp_fatal("fcm order out of range (%u)", order);
}

FcmUnit::FcmUnit(const FcmConfig &config)
    : config_((config.validate(), config)),
      l1Mask_(config.level1Entries - 1),
      l2Mask_(config.level2Entries - 1),
      foldShift_((64 + config.order - 1) / std::max(config.order, 1u)),
      lct_(config.lctEntries, config.lctBits)
{
    contexts_.assign(config.level1Entries, 0);
    values_.assign(config.level2Entries, L2Entry());
}

std::uint32_t
FcmUnit::level1Index(Addr pc) const
{
    return static_cast<std::uint32_t>(pc / isa::layout::InstBytes) &
           l1Mask_;
}

std::uint32_t
FcmUnit::level2Index(Addr pc, Word context) const
{
    // Hash the pc in so different loads with identical value
    // sequences don't fully collide.
    Word h = (context ^ (pc / isa::layout::InstBytes)) * FoldMul;
    return static_cast<std::uint32_t>(h >> 40) & l2Mask_;
}

trace::PredState
FcmUnit::onLoad(Addr pc, Addr addr, Word value, unsigned size)
{
    (void)addr;
    (void)size;

    Word &ctx = contexts_[level1Index(pc)];
    L2Entry &e = values_[level2Index(pc, ctx)];

    const bool would_be_correct = e.valid && e.value == value;
    const trace::PredState state = stats_.record(
        would_be_correct, lct_.classify(pc) != LoadClass::DontPredict);

    lct_.update(pc, would_be_correct);

    // Train level 2 with the value that followed this context, then
    // fold the value into the context. Each fold shifts the old
    // context up by ceil(64/order) bits, so after `order` folds a
    // value's bits have been pushed entirely off the top of the hash
    // — the context really is a function of the last `order` values
    // only. (ceil(64/order) == 64 exactly when order == 1, where the
    // old context must vanish completely; a 64-bit shift is UB, so
    // that case clears instead of shifting.)
    e.valid = true;
    e.value = value;
    ctx = (foldShift_ >= 64 ? Word{0} : ctx << foldShift_) ^
          (value * FoldMul);

    return state;
}

std::uint64_t
FcmUnit::bitBudget() const
{
    // Level 1: one 64-bit context hash per static-load slot. Level 2:
    // a predicted value + valid per context slot.
    return std::uint64_t{config_.level1Entries} * 64 +
           std::uint64_t{config_.level2Entries} * (64 + 1) +
           lct_.bitBudget();
}

template class Annotator<FcmUnit>;

} // namespace lvplib::core
