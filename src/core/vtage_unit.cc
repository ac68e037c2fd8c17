#include "core/vtage_unit.hh"

#include <bit>

#include "isa/program.hh"
#include "util/logging.hh"

namespace lvplib::core
{

namespace
{

/** Mixing constant shared with the FCM fold (splitmix64 flavor). */
constexpr Word HashMul = 0x9E3779B97F4A7C15ull;

} // namespace

VtageConfig
VtageConfig::simple()
{
    return VtageConfig();
}

void
VtageConfig::validate() const
{
    if (!std::has_single_bit(baseEntries))
        lvp_fatal("vtage baseEntries must be a power of two (%u)",
                  baseEntries);
    if (!std::has_single_bit(bankEntries))
        lvp_fatal("vtage bankEntries must be a power of two (%u)",
                  bankEntries);
    if (banks < 1 || banks > 8)
        lvp_fatal("vtage banks out of range (%u)", banks);
    if (tagBits < 1 || tagBits > 16)
        lvp_fatal("vtage tagBits out of range (%u)", tagBits);
    if (confBits < 1 || confBits > 8)
        lvp_fatal("vtage confBits out of range (%u)", confBits);
    if (minHistory < 1 || minHistory > 64)
        lvp_fatal("vtage minHistory out of range (%u)", minHistory);
}

unsigned
VtageConfig::historyBits(unsigned b) const
{
    unsigned bits = minHistory << b;
    return bits > 64 ? 64 : bits;
}

// The (validate(), config) comma idiom runs the config's own fatal
// checks before the member-initializer list does any table math: a
// bad tagBits would otherwise shift out of range first.
VtageUnit::VtageUnit(const VtageConfig &config)
    : config_((config.validate(), config)),
      baseMask_(config.baseEntries - 1),
      bankMask_(config.bankEntries - 1),
      tagMask_(static_cast<std::uint16_t>((1u << config.tagBits) - 1))
{
    auto blank = [&] {
        Entry e;
        e.conf = SatCounter(config_.confBits);
        return e;
    };
    base_.assign(config_.baseEntries, blank());
    banks_.assign(config_.banks, {});
    for (auto &bank : banks_)
        bank.assign(config_.bankEntries, blank());
    // A fresh unit has no misprediction burst to recover from.
    sinceMisp_ = config_.throttle;
}

Word
VtageUnit::foldedHistory(unsigned b) const
{
    const unsigned bits = config_.historyBits(b);
    const Word h =
        bits >= 64 ? history_ : history_ & ((Word{1} << bits) - 1);
    // Salt with the bank number so banks sharing a history length
    // still hash differently.
    return (h + b + 1) * HashMul;
}

std::uint32_t
VtageUnit::baseIndex(Addr pc) const
{
    const Word x = pc / isa::layout::InstBytes;
    return static_cast<std::uint32_t>(x ^ (x >> 2) ^ (x >> 5)) &
           baseMask_;
}

std::uint32_t
VtageUnit::bankIndex(Addr pc, unsigned b) const
{
    const Word x = pc / isa::layout::InstBytes;
    const Word h = foldedHistory(b);
    return static_cast<std::uint32_t>((x ^ (x >> 2) ^ (x >> 5)) ^
                                      (h >> 40) ^ (h >> 21)) &
           bankMask_;
}

std::uint16_t
VtageUnit::bankTag(Addr pc, unsigned b) const
{
    const Word x = pc / isa::layout::InstBytes;
    const Word h = foldedHistory(b);
    return static_cast<std::uint16_t>((x >> 7) ^ (h >> 49) ^
                                      (h >> 30)) &
           tagMask_;
}

trace::PredState
VtageUnit::onLoad(Addr pc, Addr addr, Word value, unsigned size)
{
    (void)addr;
    (void)size;

    // Provider selection: the longest-history tag-matching bank wins;
    // the untagged base bank backstops.
    int hit = -1;
    for (int b = static_cast<int>(config_.banks) - 1; b >= 0; --b) {
        const Entry &e =
            banks_[b][bankIndex(pc, static_cast<unsigned>(b))];
        if (e.valid && e.tag == bankTag(pc, static_cast<unsigned>(b))) {
            hit = b;
            break;
        }
    }
    Entry &provider = hit >= 0
                          ? banks_[hit][bankIndex(
                                pc, static_cast<unsigned>(hit))]
                          : base_[baseIndex(pc)];

    const bool have = provider.valid;
    const bool would_be_correct = have && provider.value == value;
    // CVP gating: predict only on a fully saturated confidence
    // counter, and never inside the post-misprediction window.
    const bool predict = have && provider.conf.saturatedHigh() &&
                         sinceMisp_ >= config_.throttle;

    const trace::PredState state = stats_.record(would_be_correct, predict);
    // An issued misprediction opens the throttle window.
    sinceMisp_ = state == trace::PredState::Incorrect ? 0 : sinceMisp_ + 1;

    // Train the provider: reward a match, age a mismatch, and only
    // replace the value once confidence has drained to zero.
    if (have) {
        if (provider.value == value) {
            provider.conf.increment();
        } else if (provider.conf.value() == 0) {
            provider.value = value;
        } else {
            provider.conf.decrement();
        }
    } else {
        provider.valid = true;
        provider.value = value;
        provider.conf.reset();
    }

    // Allocate one longer-history entry on a wrong or missing
    // prediction, CVP-style: the first candidate bank whose entry has
    // drained to conf 0 takes the new value; every still-confident
    // candidate ages instead (no cascade of blind evictions).
    if (!would_be_correct &&
        hit + 1 < static_cast<int>(config_.banks)) {
        for (unsigned b = static_cast<unsigned>(hit + 1);
             b < config_.banks; ++b) {
            Entry &cand = banks_[b][bankIndex(pc, b)];
            if (!cand.valid || cand.conf.value() == 0) {
                cand.valid = true;
                cand.tag = bankTag(pc, b);
                cand.value = value;
                cand.conf.reset();
                break;
            }
            cand.conf.decrement();
        }
    }

    return state;
}

void
VtageUnit::onBranch(bool taken)
{
    history_ = (history_ << 1) | static_cast<Word>(taken ? 1 : 0);
}

std::uint64_t
VtageUnit::bitBudget() const
{
    // Base bank: value + confidence + valid per entry (untagged).
    const std::uint64_t baseEntry = 64 + config_.confBits + 1;
    // Tagged banks add the partial tag.
    const std::uint64_t bankEntry = baseEntry + config_.tagBits;
    std::uint64_t bits = config_.baseEntries * baseEntry +
                         std::uint64_t{config_.banks} *
                             config_.bankEntries * bankEntry;
    bits += 64; // global branch-history register
    // Saturating since-mispredict counter, counting up to throttle.
    bits += static_cast<std::uint64_t>(std::bit_width(config_.throttle));
    return bits;
}

template class Annotator<VtageUnit>;

} // namespace lvplib::core
