/**
 * @file
 * Differential fuzzing of the timing models' scheduling primitives:
 * seeded random streams drive FuBank and ResourcePool side by side
 * with brute-force references, and every answer must agree.
 *
 *  - FuBank/FuPipe vs a cycle-stepped occupancy map per instance that
 *    never forgets anything (ties go to the lowest-index instance);
 *  - ResourcePool vs a multiset of every claim (below capacity the
 *    answer is 0, at or above it the capacity-th largest release;
 *    capacity 0 is unlimited).
 *
 * The streams keep FuPipe's documented contract (queries at or above
 * a non-decreasing floor) and otherwise go where the timing models
 * rarely do: up to four instances, bookings far past the ring, floor
 * jumps that recycle the whole ring, shuffled release orders.
 * Parameterized over RNG seeds, like fuzz_interpreter_test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "uarch/sched.hh"
#include "util/rng.hh"

namespace lvplib::uarch
{
namespace
{

/** Never-forget reference for FuBank: one bit per cycle and instance. */
class RefBank
{
  public:
    explicit RefBank(unsigned instances) : busy_(instances) {}

    /** Earliest start >= @p t on instance @p i, stepping cycle by
     *  cycle until @p dur idle cycles follow one another. */
    Cycle
    earliest(unsigned i, Cycle t, unsigned dur) const
    {
        Cycle start = t;
        for (Cycle c = t;; ++c) {
            if (isBusy(i, c))
                start = c + 1;
            else if (c + 1 - start == dur)
                return start;
        }
    }

    Cycle
    earliestAvailable(Cycle t, unsigned dur) const
    {
        Cycle best = earliest(0, t, dur);
        for (unsigned i = 1; i < busy_.size(); ++i)
            best = std::min(best, earliest(i, t, dur));
        return best;
    }

    Cycle
    book(Cycle t, unsigned dur)
    {
        unsigned best = 0;
        Cycle best_start = earliest(0, t, dur);
        for (unsigned i = 1; i < busy_.size(); ++i) {
            Cycle s = earliest(i, t, dur);
            if (s < best_start) {
                best_start = s;
                best = i;
            }
        }
        mark(best, best_start, dur);
        return best_start;
    }

    /** Book the lowest-index instance idle for [t, t+dur); false if
     *  there is none. */
    bool
    bookAt(Cycle t, unsigned dur)
    {
        for (unsigned i = 0; i < busy_.size(); ++i) {
            if (earliest(i, t, dur) == t) {
                mark(i, t, dur);
                return true;
            }
        }
        return false;
    }

  private:
    bool
    isBusy(unsigned i, Cycle c) const
    {
        return c < busy_[i].size() && busy_[i][c];
    }

    void
    mark(unsigned i, Cycle start, unsigned dur)
    {
        if (busy_[i].size() < start + dur)
            busy_[i].resize(start + dur);
        for (Cycle c = start; c < start + dur; ++c)
            busy_[i][c] = true;
    }

    std::vector<std::vector<bool>> busy_;
};

/** Multiset reference for ResourcePool: keeps every claim. */
class RefPool
{
  public:
    explicit RefPool(unsigned capacity) : cap_(capacity) {}

    void claim(Cycle release) { releases_.insert(release); }

    Cycle
    earliestAvailable() const
    {
        if (cap_ == 0 || releases_.size() < cap_)
            return 0;
        return *std::next(releases_.rbegin(), cap_ - 1);
    }

  private:
    unsigned cap_;
    std::multiset<Cycle> releases_;
};

/** Issue and result latencies of paper Table 5, mostly short. */
unsigned
drawDuration(Rng &rng)
{
    static constexpr unsigned Durations[] = {1, 1, 1, 1, 1, 1, 1, 1,
                                             1, 2, 2, 3, 16, 18, 35};
    return Durations[rng.below(std::size(Durations))];
}

// Per seed: 4 FU streams (1-4 instances) and 33 pool streams
// (capacity 0-32); over 8 seeds, more than 1M operations each.
constexpr unsigned FuStreamOps = 40000;
constexpr unsigned PoolStreamClaims = 4000;
static_assert(8 * 4 * FuStreamOps >= 1000000);
static_assert(8 * 33 * PoolStreamClaims >= 1000000);

class SchedFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SchedFuzz, FuBankMatchesNeverForgetMap)
{
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 11);
    for (unsigned instances = 1; instances <= 4; ++instances) {
        FuBank fast(instances);
        RefBank ref(instances);
        Cycle floor = 0;
        Cycle near_end = 0; // furthest end of a booking near the floor

        for (unsigned n = 0; n < FuStreamOps; ++n) {
            // The floor creeps like a dispatch cycle, jumps now and
            // then (recycling part or all of the ring), and is pulled
            // along when bookings run too far ahead of it.
            if (rng.chance(1, 3))
                floor += rng.below(3);
            if (rng.chance(1, 400))
                floor += rng.range(64, 3000);
            if (near_end > floor + 160)
                floor += rng.range(1, 8);
            fast.setFloor(floor);

            const unsigned dur = drawDuration(rng);
            Cycle t = floor;
            const bool far = rng.chance(1, 1000);
            if (far)
                t += rng.range(1000, 20000);
            else if (rng.chance(1, 2))
                t += rng.chance(3, 4) ? rng.below(10) : rng.below(200);

            const std::uint64_t kind = rng.below(10);
            Cycle got = 0;
            Cycle want = 0;
            if (kind < 6) {
                // Out-of-order issue (the 620): slide to a free slot.
                got = fast.book(t, dur);
                want = ref.book(t, dur);
            } else if (kind < 9) {
                // In-order issue (the 21164): find, then book exactly.
                got = fast.earliestAvailable(t, dur);
                want = ref.earliestAvailable(t, dur);
                if (got == want) {
                    fast.bookAt(want, dur);
                    ASSERT_TRUE(ref.bookAt(want, dur));
                }
            } else {
                got = fast.earliestAvailable(t, dur);
                want = ref.earliestAvailable(t, dur);
            }
            ASSERT_EQ(got, want)
                << "seed " << GetParam() << ", " << instances
                << " instances, op " << n << " kind " << kind << ": t "
                << t << " dur " << dur << " floor " << floor;
            if (!far && kind < 9)
                near_end = std::max(near_end, want + dur);
        }
    }
}

TEST_P(SchedFuzz, ResourcePoolMatchesMultiset)
{
    Rng rng(GetParam() * 0x2545f4914f6cdd1dull + 29);
    // Capacity 0 (unlimited) through 32, each under one release
    // order: in order, in order with late stragglers, or shuffled.
    for (unsigned cap = 0; cap <= 32; ++cap) {
        ResourcePool fast(cap);
        RefPool ref(cap);
        const std::uint64_t order = rng.below(3);
        Cycle now = 0;
        for (unsigned n = 0; n < PoolStreamClaims; ++n) {
            now += rng.below(4);
            Cycle release = now;
            if (order == 1 && rng.chance(1, 30))
                release = now > 60 ? now - rng.below(60) : 0;
            else if (order == 2)
                release = now + rng.below(120);
            fast.claim(release);
            ref.claim(release);
            ASSERT_EQ(fast.earliestAvailable(), ref.earliestAvailable())
                << "seed " << GetParam() << ", capacity " << cap
                << ", order " << order << ", claim " << n << ": "
                << release;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace lvplib::uarch
