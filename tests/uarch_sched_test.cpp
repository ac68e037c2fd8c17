/**
 * @file
 * Unit tests for the scheduling primitives (FU calendars, resource
 * pools, slot counters, bank tracking) and the branch predictor.
 */

#include <gtest/gtest.h>

#include "isa/program.hh"
#include "trace/trace.hh"
#include "uarch/bpred.hh"
#include "uarch/sched.hh"

namespace lvplib::uarch
{
namespace
{

TEST(FuPipe, BooksSequentially)
{
    FuPipe p;
    EXPECT_EQ(p.earliest(5, 1), 5u);
    p.book(5, 1);
    EXPECT_EQ(p.earliest(5, 1), 6u);
    p.book(6, 2);
    EXPECT_EQ(p.earliest(5, 1), 8u);
}

TEST(FuPipe, GapFilling)
{
    FuPipe p;
    p.book(10, 5); // busy [10,15)
    EXPECT_EQ(p.earliest(2, 3), 2u) << "gap before the booking";
    p.book(2, 3); // busy [2,5)
    EXPECT_EQ(p.earliest(0, 2), 0u);
    EXPECT_EQ(p.earliest(3, 2), 5u) << "[5,7) fits between bookings";
    EXPECT_EQ(p.earliest(3, 6), 15u) << "6 cycles only fit after";
}

TEST(FuPipe, OneBusyCycleSplitsARun)
{
    FuPipe p;
    p.book(1, 1);
    EXPECT_EQ(p.earliest(0, 1), 0u);
    EXPECT_EQ(p.earliest(0, 2), 2u) << "cycle 1 breaks [0, 2)";
}

TEST(FuPipe, CyclesBelowTheFloorAreRecycled)
{
    FuPipe p;
    p.book(0, 64);  // cycles [0, 64): the first ring word, all busy
    p.book(64, 1);
    EXPECT_EQ(p.earliest(0, 1), 65u);
    // Raise the floor past the first word, then book far enough
    // ahead that the ring must reuse that word's slot.
    p.setFloor(200);
    EXPECT_EQ(p.earliest(200, 1), 200u);
    const Cycle ahead = 200 + 1000;
    p.book(ahead, 3);
    EXPECT_EQ(p.earliest(ahead - 2, 1), ahead - 2);
    EXPECT_EQ(p.earliest(ahead - 2, 3), ahead + 3)
        << "the recycled slot must not leak old bookings";
    EXPECT_EQ(p.earliest(ahead, 1), ahead + 3);
    EXPECT_EQ(p.earliest(1024, 64), 1024u)
        << "the slot that held [0, 64) now holds [1024, 1088)";
}

TEST(FuPipe, FarBookingGrowsTheRingAndStaysVisible)
{
    FuPipe p;
    p.book(5, 2);
    p.book(10000, 35); // far past the initial ring
    EXPECT_EQ(p.earliest(5, 1), 7u) << "near booking survives growth";
    EXPECT_EQ(p.earliest(9990, 20), 10035u)
        << "[9990, 10010) would overlap the far booking";
    EXPECT_EQ(p.earliest(9990, 10), 9990u) << "a gap before it fits";
    EXPECT_EQ(p.earliest(10010, 1), 10035u);
    p.setFloor(10034);
    EXPECT_EQ(p.earliest(10034, 1), 10035u);
}

TEST(FuPipe, RunsSpanningWordBoundaries)
{
    FuPipe p;
    p.book(60, 10); // [60, 70) straddles the first word boundary
    EXPECT_EQ(p.earliest(50, 10), 50u);
    EXPECT_EQ(p.earliest(55, 10), 70u);
    EXPECT_EQ(p.earliest(0, 60), 0u);
    EXPECT_EQ(p.earliest(0, 61), 70u);
    EXPECT_EQ(p.earliest(64, 35), 70u);
}

TEST(FuBank, PicksLeastLoadedInstance)
{
    FuBank b(2);
    EXPECT_EQ(b.book(3, 4), 3u); // instance 0 busy [3,7)
    EXPECT_EQ(b.book(3, 4), 3u); // instance 1 busy [3,7)
    EXPECT_EQ(b.book(3, 4), 7u); // both busy: next slot
}

/** Two instances both busy [0, 5); instance 0 also busy [7, 10).
 *  Either one can start a 2-cycle op at 5: a tie. */
FuBank
tiedBank()
{
    FuBank b(2);
    b.book(0, 5); // instance 0
    b.book(0, 5); // instance 1
    b.book(7, 3); // instance 0 (instance 0 is free at 7 and wins)
    return b;
}

TEST(FuBank, BookTieGoesToTheLowestIndexInstance)
{
    FuBank b = tiedBank();
    EXPECT_EQ(b.book(0, 2), 5u);
    // Instance 0 took [5, 7), so instance 1 still offers 3 cycles at
    // 5. Had instance 1 taken the tie, the answer would be 7.
    EXPECT_EQ(b.earliestAvailable(5, 3), 5u);
}

TEST(FuBank, BookAtTieGoesToTheLowestIndexInstance)
{
    FuBank b = tiedBank();
    b.bookAt(5, 2);
    EXPECT_EQ(b.earliestAvailable(5, 3), 5u);
}

TEST(FuBankDeathTest, QueryBelowTheFloorIsCaught)
{
#ifdef LVPLIB_DEVELOPER_CHECKS
    FuBank b(2);
    b.setFloor(100);
    EXPECT_DEATH(b.book(99, 1), "below the floor");
    EXPECT_DEATH(b.earliestAvailable(50, 1), "below the floor");
    EXPECT_DEATH(b.setFloor(99), "backwards");
#else
    GTEST_SKIP() << "contract checks compile out without "
                    "LVPLIB_DEVELOPER_CHECKS";
#endif
}

TEST(FuBank, EarliestAvailableAndBookAt)
{
    FuBank b(1);
    b.book(2, 3); // [2,5)
    EXPECT_EQ(b.earliestAvailable(2, 1), 5u);
    b.bookAt(5, 1);
    EXPECT_EQ(b.earliestAvailable(5, 1), 6u);
}

TEST(ResourcePool, UnconstrainedUntilFull)
{
    ResourcePool p(2);
    EXPECT_EQ(p.earliestAvailable(), 0u);
    p.claim(10);
    EXPECT_EQ(p.earliestAvailable(), 0u);
    p.claim(20);
    EXPECT_EQ(p.earliestAvailable(), 10u)
        << "third claimant waits for the earliest release";
    p.claim(15);
    EXPECT_EQ(p.earliestAvailable(), 15u)
        << "10 released; now {15,20} are outstanding";
}

TEST(ResourcePool, ZeroCapacityMeansUnlimited)
{
    ResourcePool p(0);
    p.claim(100);
    EXPECT_EQ(p.earliestAvailable(), 0u);
}

TEST(ResourcePool, OutOfOrderReleasesKeepTheLargest)
{
    ResourcePool p(3);
    p.claim(50);
    p.claim(10);
    EXPECT_EQ(p.earliestAvailable(), 0u) << "two of three claimed";
    p.claim(30);
    EXPECT_EQ(p.earliestAvailable(), 10u) << "{10, 30, 50}";
    p.claim(5);
    EXPECT_EQ(p.earliestAvailable(), 10u)
        << "a release below every kept one cannot constrain";
    p.claim(40);
    EXPECT_EQ(p.earliestAvailable(), 30u) << "{30, 40, 50}";
    p.claim(60);
    p.claim(35);
    EXPECT_EQ(p.earliestAvailable(), 40u) << "{40, 50, 60}";
    p.claim(40);
    EXPECT_EQ(p.earliestAvailable(), 40u)
        << "a duplicate of the front changes nothing";
}

TEST(SlotCounter, EnforcesPerCycleWidth)
{
    SlotCounter s(2);
    EXPECT_EQ(s.earliest(5), 5u);
    s.claim(5);
    EXPECT_EQ(s.earliest(5), 5u);
    s.claim(5);
    EXPECT_EQ(s.earliest(5), 6u) << "width 2 exhausted at cycle 5";
    s.claim(6);
    EXPECT_EQ(s.earliest(3), 6u) << "cannot claim in the past";
}

TEST(BankTracker, LoadsShareDistinctBanks)
{
    BankTracker b(2);
    EXPECT_EQ(b.bookLoad(10, 0), 10u);
    EXPECT_EQ(b.bookLoad(10, 1), 10u);
    EXPECT_EQ(b.conflictCycles(), 0u);
}

TEST(BankTracker, SecondLoadToSameBankDelays)
{
    BankTracker b(2);
    b.bookLoad(10, 0);
    EXPECT_EQ(b.bookLoad(10, 0), 11u);
    EXPECT_EQ(b.conflictCycles(), 1u);
}

TEST(BankTracker, StoreYieldsToLoad)
{
    BankTracker b(2);
    b.bookLoad(10, 0);
    EXPECT_EQ(b.bookStore(10, 0), 11u)
        << "the store must wait and retry the next cycle";
    EXPECT_EQ(b.conflictCycles(), 1u);
    EXPECT_EQ(b.bookStore(12, 1), 12u) << "other bank is free";
    EXPECT_EQ(b.conflictCycles(), 1u);
}

TEST(BankTracker, ConflictCyclesCountedOnce)
{
    BankTracker b(2);
    b.bookLoad(10, 0);
    b.bookStore(10, 0); // conflict at 10
    b.bookLoad(10, 0);  // also blocked at 10 (and now 11 busy)
    EXPECT_GE(b.conflictCycles(), 1u);
    // cycle 10 counted exactly once even with two conflicts there.
    BankTracker c(2);
    c.bookLoad(10, 0);
    c.bookStore(10, 0);
    auto after_one = c.conflictCycles();
    EXPECT_EQ(after_one, 1u);
}

namespace bp
{

isa::Instruction condBr{.op = isa::Opcode::BC,
                        .rs1 = isa::CrBase,
                        .cond = isa::Cond::LT};
isa::Instruction retBr{.op = isa::Opcode::BLR};

trace::TraceRecord
branchRec(const isa::Instruction &inst, Addr pc, bool taken, Addr next)
{
    trace::TraceRecord r;
    r.pc = pc;
    r.inst = &inst;
    r.taken = taken;
    r.nextPc = next;
    return r;
}

} // namespace bp

TEST(BranchPredictor, LearnsBiasedBranch)
{
    BranchPredictor p;
    Addr pc = isa::layout::CodeBase;
    // Always-taken branch: after warmup it always predicts correctly.
    int wrong = 0;
    for (int i = 0; i < 100; ++i)
        if (!p.predict(bp::branchRec(bp::condBr, pc, true, pc + 64)))
            ++wrong;
    EXPECT_LE(wrong, 1) << "2-bit counter warms up in <= 1 step";
}

TEST(BranchPredictor, LoopExitMispredictsOncePerLoop)
{
    BranchPredictor p;
    Addr pc = isa::layout::CodeBase;
    // 9 taken iterations + 1 not-taken exit, repeated.
    for (int rep = 0; rep < 3; ++rep)
        for (int i = 0; i < 10; ++i)
            p.predict(bp::branchRec(bp::condBr, pc, i != 9, pc + 4));
    // Expect roughly one mispredict per loop execution (the exit),
    // plus at most one retraining mispredict per re-entry.
    EXPECT_LE(p.mispredicts(), 6u);
    EXPECT_GE(p.mispredicts(), 3u);
}

TEST(BranchPredictor, IndirectTargetLearnedByBtb)
{
    BranchPredictor p;
    Addr pc = isa::layout::CodeBase;
    Addr t1 = pc + 100 * 4;
    EXPECT_FALSE(p.predict(bp::branchRec(bp::retBr, pc, true, t1)))
        << "cold BTB cannot know the target";
    EXPECT_TRUE(p.predict(bp::branchRec(bp::retBr, pc, true, t1)));
    Addr t2 = pc + 200 * 4;
    EXPECT_FALSE(p.predict(bp::branchRec(bp::retBr, pc, true, t2)))
        << "target changed";
    EXPECT_TRUE(p.predict(bp::branchRec(bp::retBr, pc, true, t2)));
}

TEST(BranchPredictor, DirectUnconditionalAlwaysCorrect)
{
    BranchPredictor p;
    isa::Instruction b{.op = isa::Opcode::B, .imm = 0x10040};
    isa::Instruction bl{.op = isa::Opcode::BL, .imm = 0x10080};
    EXPECT_TRUE(p.predict(bp::branchRec(b, isa::layout::CodeBase, true,
                                        0x10040)));
    EXPECT_TRUE(p.predict(bp::branchRec(bl, isa::layout::CodeBase,
                                        true, 0x10080)));
    EXPECT_EQ(p.mispredictRate(), 0.0);
}


TEST(BranchPredictor, GshareLearnsAlternatingPattern)
{
    // Period-2 alternation: a bimodal 2-bit counter hovers and
    // mispredicts half the time; gshare with >=1 history bit locks on.
    Addr pc = isa::layout::CodeBase;
    auto run = [&](std::uint32_t bits) {
        BpredConfig cfg;
        cfg.gshareBits = bits;
        BranchPredictor p(cfg);
        std::uint64_t wrong = 0;
        for (int i = 0; i < 400; ++i)
            if (!p.predict(bp::branchRec(bp::condBr, pc, i % 2 == 0,
                                         pc + 4)))
                ++wrong;
        return wrong;
    };
    auto bimodal = run(0);
    auto gshare = run(4);
    EXPECT_GT(bimodal, 100u);
    EXPECT_LT(gshare, 20u);
}

TEST(BranchPredictor, GshareZeroBitsMatchesBimodal)
{
    Addr pc = isa::layout::CodeBase;
    BpredConfig cfg; // gshareBits = 0
    BranchPredictor a(cfg);
    BranchPredictor b;
    for (int i = 0; i < 200; ++i) {
        bool taken = (i * 7) % 3 != 0;
        EXPECT_EQ(a.predict(bp::branchRec(bp::condBr, pc, taken, pc)),
                  b.predict(bp::branchRec(bp::condBr, pc, taken, pc)));
    }
}

} // namespace
} // namespace lvplib::uarch
