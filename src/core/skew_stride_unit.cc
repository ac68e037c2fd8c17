#include "core/skew_stride_unit.hh"

#include "isa/program.hh"
#include "util/logging.hh"

namespace lvplib::core
{

namespace
{

bool
powerOfTwo(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

unsigned
log2of(std::uint32_t v)
{
    unsigned n = 0;
    while ((1u << n) < v)
        ++n;
    return n;
}

} // namespace

SkewStrideConfig
SkewStrideConfig::simple()
{
    return SkewStrideConfig();
}

void
SkewStrideConfig::validate() const
{
    if (!powerOfTwo(entriesPerWay))
        lvp_fatal("skewstride entriesPerWay must be a power of two "
                  "(%u)",
                  entriesPerWay);
    if (ways < 1 || ways > 8)
        lvp_fatal("skewstride ways out of range (%u)", ways);
    if (tagBits < 1 || tagBits > 16)
        lvp_fatal("skewstride tagBits out of range (%u)", tagBits);
    if (confBits < 1 || confBits > 8)
        lvp_fatal("skewstride confBits out of range (%u)", confBits);
    if (replaceThreshold >= (1u << confBits))
        lvp_fatal("skewstride replaceThreshold out of range (%u)",
                  replaceThreshold);
}

SkewStrideUnit::SkewStrideUnit(const SkewStrideConfig &config)
    : config_(config), mask_(config.entriesPerWay - 1),
      tagMask_(static_cast<std::uint16_t>((1u << config.tagBits) - 1)),
      logEntries_(log2of(config.entriesPerWay))
{
    config_.validate();
    Entry blank;
    blank.conf = SatCounter(config_.confBits);
    ways_.assign(config_.ways, {});
    for (auto &way : ways_)
        way.assign(config_.entriesPerWay, blank);
}

std::uint32_t
SkewStrideUnit::index(Addr pc, unsigned way) const
{
    // Per-way skewing hash, following the CVP stride predictor: each
    // way mixes differently shifted copies of the pc so aliasing in
    // one way does not imply aliasing in another.
    const Word x = pc / isa::layout::InstBytes;
    const int l = static_cast<int>(logEntries_);
    const int w = static_cast<int>(way);
    // Shift amounts are clamped into [1, 63] so tiny tables and high
    // way numbers stay well-defined.
    auto sh = [&](int s) { return x >> (s < 1 ? 1 : s > 63 ? 63 : s); };
    return static_cast<std::uint32_t>(x ^ sh(2 * l - w) ^ sh(l - w) ^
                                      sh(3 * l - w)) &
           mask_;
}

std::uint16_t
SkewStrideUnit::tagOf(Addr pc, unsigned way) const
{
    const Word x = pc / isa::layout::InstBytes;
    const int l = static_cast<int>(logEntries_);
    auto sh = [&](int s) { return x >> (s < 1 ? 1 : s > 63 ? 63 : s); };
    return static_cast<std::uint16_t>(sh(l) ^
                                      sh(2 * l + static_cast<int>(way)) ^
                                      (way + 1)) &
           tagMask_;
}

trace::PredState
SkewStrideUnit::onLoad(Addr pc, Addr addr, Word value, unsigned size)
{
    using trace::PredState;
    (void)addr;
    (void)size;

    ++stats_.loads;

    int hit = -1;
    for (unsigned w = 0; w < config_.ways; ++w) {
        const Entry &e = ways_[w][index(pc, w)];
        if (e.valid && e.tag == tagOf(pc, w)) {
            hit = static_cast<int>(w);
            break;
        }
    }

    bool would_be_correct = false;
    bool predict = false;
    if (hit >= 0) {
        const Entry &e =
            ways_[hit][index(pc, static_cast<unsigned>(hit))];
        const Word pred = e.last + static_cast<Word>(e.stride);
        would_be_correct = pred == value;
        predict = e.conf.upperHalf();
    }

    if (would_be_correct) {
        ++stats_.actualPred;
        if (predict)
            ++stats_.predIdentified;
    } else {
        ++stats_.actualUnpred;
        if (!predict)
            ++stats_.unpredIdentified;
    }

    PredState state = PredState::None;
    if (predict) {
        if (would_be_correct) {
            state = PredState::Correct;
            ++stats_.correct;
        } else {
            state = PredState::Incorrect;
            ++stats_.incorrect;
        }
    } else {
        ++stats_.noPred;
    }

    if (hit >= 0) {
        // SVP-style training: reward a confirmed stride; on a break,
        // only a drained counter lets the new stride in.
        Entry &e = ways_[hit][index(pc, static_cast<unsigned>(hit))];
        const auto delta = static_cast<SWord>(value - e.last);
        if (delta == e.stride) {
            e.conf.increment();
        } else if (e.conf.value() <= config_.replaceThreshold) {
            e.stride = delta;
            e.conf.reset();
        } else {
            e.conf.decrement();
        }
        e.last = value;
    } else {
        // Allocate into the least-confident way; prefer an invalid
        // entry, and age a victim that still has confidence instead
        // of stealing it.
        unsigned victim = 0;
        std::uint8_t best = 255;
        for (unsigned w = 0; w < config_.ways; ++w) {
            const Entry &e = ways_[w][index(pc, w)];
            if (!e.valid) {
                victim = w;
                best = 0;
                break;
            }
            if (e.conf.value() < best) {
                best = e.conf.value();
                victim = w;
            }
        }
        Entry &e = ways_[victim][index(pc, victim)];
        if (!e.valid || e.conf.value() == 0) {
            e.valid = true;
            e.tag = tagOf(pc, victim);
            e.last = value;
            e.stride = 0;
            e.conf.reset();
        } else {
            e.conf.decrement();
        }
    }

    return state;
}

void
SkewStrideUnit::onStore(Addr addr, unsigned size)
{
    (void)addr;
    (void)size;
}

void
SkewStrideUnit::reset()
{
    Entry blank;
    blank.conf = SatCounter(config_.confBits);
    for (auto &way : ways_)
        way.assign(way.size(), blank);
    stats_ = LvpStats();
}

std::uint64_t
SkewStrideUnit::bitBudget() const
{
    // Per entry: last value + stride + partial tag + confidence +
    // valid.
    const std::uint64_t entry =
        64 + 64 + config_.tagBits + config_.confBits + 1;
    return std::uint64_t{config_.ways} * config_.entriesPerWay * entry;
}

SkewStrideUnit::Snapshot
SkewStrideUnit::snapshot() const
{
    return Snapshot{ways_};
}

void
SkewStrideUnit::restore(const Snapshot &s)
{
    ways_ = s.ways;
}

std::any
SkewStrideUnit::snapshotState() const
{
    return snapshot();
}

void
SkewStrideUnit::restoreState(const std::any &s)
{
    const auto *snap = std::any_cast<Snapshot>(&s);
    lvp_assert(snap, "skewstride restoreState: wrong snapshot type");
    restore(*snap);
}

template class Annotator<SkewStrideUnit>;

} // namespace lvplib::core
