/**
 * @file
 * Scheduling primitives shared by the timing models:
 *
 *  - FuPipe / FuBank: functional-unit occupancy bitmaps with
 *    gap-filling booking (out-of-order issue can slot a younger ready
 *    instruction into an idle cycle before an older stalled one);
 *  - ResourcePool: bounded resources freed at known future cycles
 *    (reservation stations, rename buffers, completion buffer);
 *  - SlotCounter: per-cycle bandwidth limits (dispatch width,
 *    completion width, memory ops per cycle);
 *  - BankTracker: L1 bank occupancy and conflict-cycle accounting.
 */

#ifndef LVPLIB_UARCH_SCHED_HH
#define LVPLIB_UARCH_SCHED_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace lvplib::uarch
{

/**
 * Occupancy bitmap for one functional-unit instance: one bit per
 * cycle, set while the unit is busy, kept in a ring of u64 words.
 *
 * Contract: the owner declares a non-decreasing floor (setFloor), and
 * no later earliest() or book() starts below it. Cycles below the
 * floor are recycled. A booking past the end of the ring first
 * recycles, then grows the ring, so nothing at or above the floor is
 * ever forgotten: within the contract every answer equals that of an
 * occupancy map that never forgets (tests/uarch_sched_fuzz_test.cpp).
 * lvp_dassert checks the contract in developer builds.
 */
class FuPipe
{
  public:
    FuPipe() : ring_(InitialWords) {}

    /** Declare that no later query or booking starts below @p floor. */
    void
    setFloor(Cycle floor)
    {
        lvp_dassert(floor >= floor_, "FU floor moved backwards");
        floor_ = floor;
    }

    /** Earliest start >= @p t where the pipe is idle for @p dur
     *  cycles, without booking it. */
    Cycle
    earliest(Cycle t, unsigned dur) const
    {
        lvp_dassert(t >= floor_, "FU query below the floor");
        Cycle s = nextFree(t);
        if (dur == 1)
            return s;
        for (;;) {
            Cycle busy = nextBusy(s + 1, s + dur);
            if (busy == s + dur)
                return s;
            s = nextFree(busy);
        }
    }

    /** Book [start, start+dur), which must be idle. */
    void
    book(Cycle start, unsigned dur)
    {
        lvp_dassert(start >= floor_, "FU booking below the floor");
        const Cycle end = start + dur;
        if (end > end_)
            makeRoom(end);
        for (Cycle c = start; c < end;) {
            const unsigned lo = c & 63;
            const Cycle n = std::min<Cycle>(64 - lo, end - c);
            // n is 1..64, so the shift is 0..63.
            const std::uint64_t bits = (~std::uint64_t(0) >> (64 - n))
                                       << lo;
            std::uint64_t &w = ring_[slot(c)];
            lvp_dassert((w & bits) == 0, "FU booking over a busy cycle");
            w |= bits;
            c += n;
        }
    }

  private:
    /** 1,024 cycles: several times the furthest past its dispatch
     *  cycle that any booking on the suite ends (152 cycles). */
    static constexpr std::size_t InitialWords = 16;

    /** Ring index of the word holding cycle @p c. */
    std::size_t slot(Cycle c) const { return (c >> 6) & mask_; }

    /** First idle cycle >= @p c. Past the window everything is idle. */
    Cycle
    nextFree(Cycle c) const
    {
        while (c < end_) {
            const std::uint64_t idle = ~ring_[slot(c)] >> (c & 63);
            if (idle != 0)
                return c + std::countr_zero(idle);
            c = (c | 63) + 1;
        }
        return c;
    }

    /** First busy cycle in [@p c, @p limit), or @p limit. */
    Cycle
    nextBusy(Cycle c, Cycle limit) const
    {
        const Cycle end = std::min(limit, end_);
        while (c < end) {
            const std::uint64_t busy = ring_[slot(c)] >> (c & 63);
            if (busy != 0)
                return std::min<Cycle>(c + std::countr_zero(busy), limit);
            c = (c | 63) + 1;
        }
        return limit;
    }

    /** Make the window reach @p end: recycle the words wholly below
     *  the floor, then double the ring until it fits. */
    void
    makeRoom(Cycle end)
    {
        const Cycle base = floor_ & ~Cycle(63);
        if (base - base_ >= 64 * ring_.size()) {
            std::fill(ring_.begin(), ring_.end(), 0);
        } else {
            for (Cycle c = base_; c < base; c += 64)
                ring_[slot(c)] = 0;
        }
        base_ = base;
        end_ = base_ + 64 * ring_.size();
        if (end <= end_)
            return;
        std::size_t words = ring_.size();
        while (base_ + 64 * words < end)
            words *= 2;
        std::vector<std::uint64_t> grown(words);
        for (Cycle c = base_; c < end_; c += 64)
            grown[(c >> 6) & (words - 1)] = ring_[slot(c)];
        ring_.swap(grown);
        mask_ = ring_.size() - 1;
        end_ = base_ + 64 * ring_.size();
    }

    std::vector<std::uint64_t> ring_; ///< size is a power of two
    std::size_t mask_ = InitialWords - 1; ///< ring_.size() - 1
    Cycle base_ = 0;  ///< first cycle the ring holds (word-aligned)
    Cycle end_ = 64 * InitialWords; ///< first cycle past the ring
    Cycle floor_ = 0;
};

/** A pool of identical FU instances (e.g. the 620's two SCFX units).
 *  Ties go to the lowest-index instance. */
class FuBank
{
  public:
    explicit FuBank(unsigned instances = 1) : pipes_(instances) {}

    /** See FuPipe::setFloor. */
    void
    setFloor(Cycle floor)
    {
        for (auto &p : pipes_)
            p.setFloor(floor);
    }

    /** Book the earliest available instance at or after @p t for
     *  @p dur cycles; returns the booked start cycle. */
    Cycle
    book(Cycle t, unsigned dur)
    {
        std::size_t best = 0;
        Cycle best_start = pipes_[0].earliest(t, dur);
        for (std::size_t i = 1; i < pipes_.size() && best_start != t;
             ++i) {
            Cycle s = pipes_[i].earliest(t, dur);
            if (s < best_start) {
                best_start = s;
                best = i;
            }
        }
        pipes_[best].book(best_start, dur);
        return best_start;
    }

    /** Earliest start >= @p t across instances, without booking. */
    Cycle
    earliestAvailable(Cycle t, unsigned dur) const
    {
        Cycle best = pipes_[0].earliest(t, dur);
        for (std::size_t i = 1; i < pipes_.size() && best != t; ++i)
            best = std::min(best, pipes_[i].earliest(t, dur));
        return best;
    }

    /**
     * Book an instance at exactly @p t (an in-order machine cannot
     * slide the booking). @p t must come from earliestAvailable().
     */
    void
    bookAt(Cycle t, unsigned dur)
    {
        for (auto &p : pipes_) {
            if (p.earliest(t, dur) == t) {
                p.book(t, dur);
                return;
            }
        }
        lvp_panic("bookAt: no instance free at the requested cycle");
    }

  private:
    std::vector<FuPipe> pipes_;
};

/**
 * A resource with @p capacity units, each claimed until a known
 * release cycle. earliestAvailable() is the first cycle a new claim
 * can coexist with previous ones: 0 below capacity, else the
 * capacity-th largest release. Only the largest @p capacity releases
 * can constrain, so the pool keeps just those, ascending, in a ring.
 * A full pool drops its front and inserts from the back, which is
 * O(1) when claims arrive in release order (almost all of them do).
 * claim() keeps that answer in front_, so the query is one load.
 * Capacity 0 means unlimited.
 */
class ResourcePool
{
  public:
    explicit ResourcePool(unsigned capacity)
        : cap_(capacity), ring_(std::bit_ceil(capacity)),
          mask_(static_cast<unsigned>(ring_.size()) - 1)
    {}

    Cycle earliestAvailable() const { return front_; }

    void
    claim(Cycle release)
    {
        if (cap_ == 0)
            return; // unlimited: front_ stays 0
        if (size_ == cap_) {
            // The smallest kept release can no longer constrain
            // anything, unless the new one is smaller still.
            if (release <= front_)
                return;
            head_ = (head_ + 1) & mask_;
            --size_;
        }
        unsigned i = size_;
        for (; i > 0; --i) {
            Cycle prev = ring_[(head_ + i - 1) & mask_];
            if (prev <= release)
                break;
            ring_[(head_ + i) & mask_] = prev;
        }
        ring_[(head_ + i) & mask_] = release;
        if (++size_ == cap_)
            front_ = ring_[head_];
        lvp_dassert(size_ <= cap_, "pool holds more than its capacity");
    }

    unsigned capacity() const { return cap_; }

  private:
    unsigned cap_;
    std::vector<Cycle> ring_; ///< kept releases, ascending from head_
    unsigned mask_;
    unsigned head_ = 0;
    unsigned size_ = 0;
    Cycle front_ = 0; ///< ring_[head_] when full, else 0
};

/** Enforces at most @p width events per cycle, non-decreasing. */
class SlotCounter
{
  public:
    explicit SlotCounter(unsigned width) : width_(width) {}

    /** First cycle >= @p t with a free slot (without claiming). */
    Cycle
    earliest(Cycle t) const
    {
        if (t > cycle_)
            return t;
        return count_ < width_ ? cycle_ : cycle_ + 1;
    }

    /** Claim a slot at @p t; @p t must be >= earliest(t). */
    void
    claim(Cycle t)
    {
        lvp_assert(t >= cycle_, "slot claim in the past");
        if (t > cycle_) {
            cycle_ = t;
            count_ = 1;
        } else {
            ++count_;
            lvp_assert(count_ <= width_, "slot overflow");
        }
    }

    Cycle cycle() const { return cycle_; }

  private:
    unsigned width_;
    Cycle cycle_ = 0;
    unsigned count_ = 0;
};

/**
 * L1 bank occupancy: one access per bank per cycle, loads have
 * priority, stores retry on conflict. Tracks the number of distinct
 * cycles in which at least one conflict occurred (paper Figure 9).
 * Ring-buffered: assumes bookings stay within the horizon of the most
 * recent cycle seen, which holds for bounded-window pipelines. The
 * bank count and the horizon are powers of two, so a slot index is a
 * mask, a shift and an OR.
 */
class BankTracker
{
  public:
    explicit BankTracker(unsigned banks)
        : bankShift_(static_cast<unsigned>(std::countr_zero(banks))),
          slots_(banks * Horizon), stamp_(banks * Horizon, NoCycle),
          conflictStamp_(Horizon, NoCycle)
    {
        lvp_assert(std::has_single_bit(banks),
                   "bank count must be a power of two");
    }

    /**
     * Book a load access at the first cycle >= @p t where @p bank has
     * no load yet. A delay counts as a conflict in the cycle where the
     * load was blocked.
     */
    Cycle
    bookLoad(Cycle t, unsigned bank)
    {
        Cycle c = t;
        while (loadBusy(c, bank)) {
            markConflict(c);
            ++c;
        }
        setLoad(c, bank);
        return c;
    }

    /**
     * Try to book a load access at exactly cycle @p t: succeeds and
     * books when the bank is free of loads, otherwise does nothing.
     * Used for CVU-verified constant loads, whose access is cancelled
     * rather than retried when it would conflict (paper Section 3.4).
     */
    bool
    tryBookLoad(Cycle t, unsigned bank)
    {
        if (loadBusy(t, bank))
            return false;
        setLoad(t, bank);
        return true;
    }

    /**
     * Book a store access at the first cycle >= @p t where @p bank is
     * completely free; each blocked cycle is a conflict cycle.
     */
    Cycle
    bookStore(Cycle t, unsigned bank)
    {
        Cycle c = t;
        while (busy(c, bank)) {
            markConflict(c);
            ++c;
        }
        setStore(c, bank);
        return c;
    }

    /** Distinct cycles in which at least one conflict occurred. */
    std::uint64_t conflictCycles() const { return conflictCycles_; }

  private:
    /** Cycles the ring remembers. */
    static constexpr std::size_t Horizon = 16384;
    static_assert(std::has_single_bit(Horizon));
    static constexpr Cycle NoCycle = ~Cycle(0);
    static constexpr std::uint8_t LoadBit = 1;
    static constexpr std::uint8_t StoreBit = 2;

    std::size_t
    slot(Cycle c, unsigned bank) const
    {
        return ((c & (Horizon - 1)) << bankShift_) | bank;
    }

    std::uint8_t
    flags(Cycle c, unsigned bank) const
    {
        std::size_t s = slot(c, bank);
        return stamp_[s] == c ? slots_[s] : 0;
    }

    void
    orFlags(Cycle c, unsigned bank, std::uint8_t bits)
    {
        std::size_t s = slot(c, bank);
        if (stamp_[s] != c) {
            stamp_[s] = c;
            slots_[s] = 0;
        }
        slots_[s] |= bits;
    }

    bool loadBusy(Cycle c, unsigned b) const
    {
        return (flags(c, b) & LoadBit) != 0;
    }
    bool busy(Cycle c, unsigned b) const { return flags(c, b) != 0; }
    void setLoad(Cycle c, unsigned b) { orFlags(c, b, LoadBit); }
    void setStore(Cycle c, unsigned b) { orFlags(c, b, StoreBit); }

    void
    markConflict(Cycle c)
    {
        std::size_t s = c & (Horizon - 1);
        if (conflictStamp_[s] != c) {
            conflictStamp_[s] = c;
            ++conflictCycles_;
        }
    }

    unsigned bankShift_; ///< log2 of the bank count
    std::vector<std::uint8_t> slots_;
    std::vector<Cycle> stamp_;
    std::vector<Cycle> conflictStamp_;
    std::uint64_t conflictCycles_ = 0;
};

} // namespace lvplib::uarch

#endif // LVPLIB_UARCH_SCHED_HH
