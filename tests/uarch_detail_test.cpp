/**
 * @file
 * Detailed resource-model tests for the timing models: completion
 * buffer, rename buffers, reservation stations, MSHRs, store
 * forwarding, FU pipelining, and the Alpha's ports/squash behavior.
 * Each test constructs a program whose bottleneck is the resource
 * under test and checks that enlarging ONLY that resource helps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "isa/assembler.hh"
#include "mem/hierarchy.hh"
#include "sim/pipeline_driver.hh"
#include "uarch/alpha21164.hh"
#include "uarch/machine_config.hh"
#include "uarch/ppc620.hh"

namespace lvplib
{
namespace
{

using core::LvpConfig;
using isa::Assembler;
using isa::Cond;
using isa::Program;
using uarch::AlphaConfig;
using uarch::Ppc620Config;

Program
make(const std::function<void(Assembler &)> &body)
{
    Assembler a;
    body(a);
    return a.finish();
}

Cycle
cycles620(const Program &p, const Ppc620Config &mc)
{
    return sim::runPpc620(p, mc, std::nullopt).timing.cycles;
}

TEST(Ppc620Resources, CompletionBufferLimitsRunahead)
{
    // A slow divide followed by a burst of independent adds per
    // iteration: with a 16-entry completion buffer the adds cannot
    // run ahead of the stalled divide.
    auto p = make([](Assembler &a) {
        a.li(7, 60);
        a.li(3, 1000);
        a.li(4, 3);
        a.label("loop");
        a.divd(5, 3, 4); // 35 cycles, heads the window
        for (int i = 0; i < 20; ++i)
            a.addi(static_cast<RegIndex>(8 + (i % 8)), 0, 1);
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto small = Ppc620Config::base620();
    auto big = Ppc620Config::base620();
    big.completionEntries = 128;
    big.gprRename = 64; // don't let renaming mask the effect
    big.fprRename = 64;
    EXPECT_GT(cycles620(p, small), cycles620(p, big) * 11 / 10)
        << "a larger window must overlap work past the divide";
}

TEST(Ppc620Resources, RenameBuffersLimitInflightWriters)
{
    // Many GPR writers in flight behind a slow op: 8 rename buffers
    // throttle dispatch.
    auto p = make([](Assembler &a) {
        a.li(7, 60);
        a.li(3, 9);
        a.li(4, 3);
        a.label("loop");
        a.divd(5, 3, 4);
        for (int i = 0; i < 16; ++i)
            a.addi(static_cast<RegIndex>(8 + (i % 12)), 0,
                   i); // all GPR writes
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto small = Ppc620Config::base620();
    small.completionEntries = 128; // isolate renaming
    auto big = small;
    big.gprRename = 64;
    EXPECT_GT(cycles620(p, small), cycles620(p, big))
        << "more rename buffers must help a rename-bound window";
}

TEST(Ppc620Resources, ReservationStationsGateDispatch)
{
    // A chain of dependent FPU ops: each occupies its RS until issue,
    // and the FPU has rsPerUnit entries. More RS entries let more
    // waiters sit near the FPU while the chain drains.
    auto p = make([](Assembler &a) {
        a.dataLabel("c");
        a.dfloat(1.000001);
        a.la(10, "c");
        a.lfd(1, 0, 10);
        a.li(7, 150);
        a.label("loop");
        a.fmul(2, 1, 1);
        a.fmul(3, 2, 2);
        a.fmul(4, 3, 3);
        a.fmul(5, 4, 4);
        a.fmul(6, 5, 5);
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto small = Ppc620Config::base620();
    small.rsPerUnit = 1;
    auto big = Ppc620Config::base620();
    big.rsPerUnit = 8;
    EXPECT_GE(cycles620(p, small), cycles620(p, big))
        << "RS starvation cannot make the machine faster";
}

TEST(Ppc620Resources, MshrsBoundMissOverlap)
{
    // A stream of independent loads that all miss: with 1 MSHR the
    // misses serialize; with 8 they overlap.
    auto p = make([](Assembler &a) {
        a.dataLabel("arr");
        a.dspace(512 * 1024);
        a.la(10, "arr");
        a.li(7, 600);
        a.label("loop");
        a.ld(3, 0, 10);
        a.ld(4, 64, 10); // distinct lines
        a.addi(10, 10, 128);
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto one = Ppc620Config::base620();
    one.mshrs = 1;
    auto eight = Ppc620Config::base620();
    eight.mshrs = 8;
    EXPECT_GT(cycles620(p, one), cycles620(p, eight) * 11 / 10)
        << "non-blocking misses must overlap with more MSHRs";
}

TEST(Ppc620Resources, StoreForwardingBoundsLoadLatency)
{
    // store -> immediately load the same address, serially dependent:
    // the load gets the data via forwarding, so the loop still makes
    // progress at a small cycles/iteration cost.
    auto p = make([](Assembler &a) {
        a.dataLabel("cell");
        a.dspace(8);
        a.la(10, "cell");
        a.li(7, 300);
        a.li(3, 0);
        a.label("loop");
        a.addi(3, 3, 1);
        a.std_(3, 0, 10);
        a.ld(4, 0, 10); // must observe the store's value
        a.add(3, 4, 0); // and feed it back
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto run = sim::runPpc620(p, Ppc620Config::base620(), std::nullopt);
    double cpi_iter = static_cast<double>(run.timing.cycles) / 300.0;
    EXPECT_LT(cpi_iter, 20.0) << "forwarding must avoid full stalls";
    EXPECT_GT(cpi_iter, 3.0) << "the dependence chain is real";
}

TEST(Ppc620Resources, UnpipelinedFpDivOccupiesUnit)
{
    // FDIVs on the 620 are 18/18 (unpipelined): independent divides
    // cannot overlap on the single FPU.
    auto p = make([](Assembler &a) {
        a.dataLabel("c");
        a.dfloat(3.0);
        a.la(10, "c");
        a.lfd(1, 0, 10);
        a.li(7, 50);
        a.label("loop");
        a.fdiv(2, 1, 1);
        a.fdiv(3, 1, 1);
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto run = sim::runPpc620(p, Ppc620Config::base620(), std::nullopt);
    // Two unpipelined 18-cycle divides per iteration: >= 36
    // cycles/iteration no matter how wide the rest is.
    EXPECT_GE(run.timing.cycles, 50u * 36u);
}

TEST(Ppc620Resources, Plus620DoublesMemoryDispatch)
{
    // A load-dense loop: the base 620 dispatches 1 memory op per
    // cycle; the 620+ dispatches 2.
    auto p = make([](Assembler &a) {
        a.dataLabel("arr");
        a.dspace(4096);
        a.la(10, "arr");
        a.li(7, 300);
        a.label("loop");
        // Spread the loads across lines so the two banks can serve
        // two per cycle on the 620+.
        a.ld(3, 0, 10);
        a.ld(4, 64, 10);
        a.ld(5, 128, 10);
        a.ld(6, 192, 10);
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto base = cycles620(p, Ppc620Config::base620());
    auto plus = cycles620(p, Ppc620Config::plus620());
    EXPECT_GT(base, plus * 13 / 10)
        << "4 loads/iteration: the second LSU must pay off";
}

TEST(Alpha21164Detail, DualPortsServeTwoLoadsPerCycle)
{
    auto p = make([](Assembler &a) {
        a.dataLabel("arr");
        a.dspace(256);
        a.la(10, "arr");
        a.li(7, 400);
        a.label("loop");
        a.ld(3, 0, 10);
        a.ld(4, 8, 10);
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto two = AlphaConfig::base21164();
    auto one = AlphaConfig::base21164();
    one.intPipes = 1;
    auto fast = sim::runAlpha21164(p, two, std::nullopt).timing.cycles;
    auto slow = sim::runAlpha21164(p, one, std::nullopt).timing.cycles;
    EXPECT_GT(slow, fast * 13 / 10);
}

TEST(Alpha21164Detail, BlockingMissesSerializeMemory)
{
    // Independent missing loads: without an MAF each fill blocks the
    // next memory op, so cycles scale with the full miss latency.
    auto p = make([](Assembler &a) {
        a.dataLabel("arr");
        a.dspace(256 * 1024);
        a.la(10, "arr");
        a.li(7, 300);
        a.label("loop");
        a.ld(3, 0, 10);
        a.addi(10, 10, 512); // a new line (and page) every time
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto run = sim::runAlpha21164(p, AlphaConfig::base21164(),
                                  std::nullopt);
    // Every load misses; each miss costs l2Latency+memLatency extra
    // and blocks. ~48+ cycles per iteration.
    EXPECT_GT(run.timing.cycles, 300u * 40u);
    EXPECT_EQ(run.timing.l1Misses, 300u);
}

TEST(Alpha21164Detail, SquashesCostCycles)
{
    // A load alternating between two values gets predicted (counter
    // hovers) and mispredicts repeatedly: LVP should win nothing and
    // may lose slightly, but must stay within the squash bound.
    Assembler a;
    a.dataLabel("cell");
    a.dspace(8);
    a.la(10, "cell");
    a.li(7, 300);
    a.li(5, 0);
    a.label("loop");
    a.xori(5, 5, 1);
    a.std_(5, 0, 10);
    a.ld(3, 0, 10); // alternates 1,0,1,0...
    a.addi(7, 7, -1);
    a.cmpi(0, 7, 0);
    a.bc(Cond::GT, 0, "loop");
    a.halt();
    Program p = a.finish();
    auto base = sim::runAlpha21164(p, AlphaConfig::base21164(),
                                   std::nullopt);
    auto with = sim::runAlpha21164(p, AlphaConfig::base21164(),
                                   LvpConfig::simple());
    EXPECT_GE(with.timing.cycles, base.timing.cycles)
        << "an alternating value cannot speed up under depth-1 LVP";
    EXPECT_LT(with.timing.cycles, base.timing.cycles * 2)
        << "the LCT must bound the squash damage";
}

TEST(Alpha21164Detail, ConstantLoadsSurviveCacheMisses)
{
    // A constant load whose line keeps getting evicted: only the CVU
    // lets the prediction proceed despite the misses.
    Assembler a;
    a.dataLabel("konst");
    a.dd(77);
    a.dataLabel("big");
    a.dspace(64 * 1024);
    a.la(10, "konst");
    a.la(11, "big");
    a.li(7, 200);
    a.label("loop");
    a.ld(3, 0, 10);      // the constant
    a.ld(4, 0, 11);      // streaming evictions
    a.addi(11, 11, 256);
    a.addi(7, 7, -1);
    a.cmpi(0, 7, 0);
    a.bc(Cond::GT, 0, "loop");
    a.halt();
    Program p = a.finish();
    auto with = sim::runAlpha21164(p, AlphaConfig::base21164(),
                                   LvpConfig::constant());
    EXPECT_GT(with.timing.constLoads, 50u)
        << "the CVU must keep verifying the constant";
}


TEST(Ppc620Resources, SquashRecoveryNeverBeatsSelectiveReissue)
{
    // On a loop with frequent value mispredictions (alternating
    // values), squash-and-refetch recovery must cost at least as much
    // as the paper's selective reissue.
    Assembler a;
    a.dataLabel("cell");
    a.dspace(8);
    a.la(10, "cell");
    a.li(7, 300);
    a.li(5, 0);
    a.label("loop");
    a.xori(5, 5, 1);
    a.std_(5, 0, 10);
    a.ld(3, 0, 10); // alternates: steady mispredictions once gated in
    a.add(4, 3, 3);
    a.addi(7, 7, -1);
    a.cmpi(0, 7, 0);
    a.bc(Cond::GT, 0, "loop");
    a.halt();
    Program p = a.finish();

    auto selective = Ppc620Config::base620();
    auto squash = Ppc620Config::base620();
    squash.squashOnValueMispredict = true;
    auto sel = sim::runPpc620(p, selective, LvpConfig::simple());
    auto sq = sim::runPpc620(p, squash, LvpConfig::simple());
    EXPECT_LE(sel.timing.cycles, sq.timing.cycles);
}

TEST(Ppc620Resources, SquashKnobIsNoopWithoutMispredictions)
{
    // A perfectly-predictable loop never mispredicts, so the recovery
    // policy cannot matter.
    auto p = make([](Assembler &a) {
        a.dataLabel("konst");
        a.dd(9);
        a.la(10, "konst");
        a.li(7, 200);
        a.label("loop");
        a.ld(3, 0, 10); // always 9
        a.add(4, 3, 3);
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto selective = Ppc620Config::base620();
    auto squash = Ppc620Config::base620();
    squash.squashOnValueMispredict = true;
    auto a1 = sim::runPpc620(p, selective, LvpConfig::perfect());
    auto a2 = sim::runPpc620(p, squash, LvpConfig::perfect());
    EXPECT_EQ(a1.timing.cycles, a2.timing.cycles);
}

// ---- store-to-load forwarding, cycle by cycle ---------------------

/**
 * Hand-built records fed straight to a 620 with unlimited pools, so
 * that only dependences, the FUs and the store queue time the load:
 *
 *   divd r5 <- r5/r4, `divides` times   the store's late data;
 *   `storeOp` r5 -> storeAddr           ready when r5 is;
 *   `younger` std r0 -> other lines     early data, no overlap;
 *   addi r12 <- r12+1, `chain` times    one cycle later each;
 *   lfd f6 <- loadAddr (base r12)       the load under test;
 *   fdiv f7 <- f6/f6                    issues when f6 returns.
 *
 * The store and the load share one cache line and bank, and the
 * store fills the line first, so a store that does not overlap the
 * load leaves every cycle alone; the fdiv turns the load's data
 * return into the run's last completion.
 */
struct LoadBehindSlowStore
{
    isa::Opcode storeOp = isa::Opcode::STD;
    Addr storeAddr = 0x1000;
    Addr loadAddr = 0x1000;
    unsigned divides = 1;
    unsigned younger = 0;
    unsigned chain = 0;

    Cycle
    cycles() const
    {
        using isa::Opcode;
        const RegIndex f6 = isa::FprBase + 6, f7 = isa::FprBase + 7;
        std::vector<std::pair<isa::Instruction, Addr>> ops;
        for (unsigned i = 0; i < divides; ++i)
            ops.push_back({{.op = Opcode::DIVD, .rd = 5, .rs1 = 5,
                            .rs2 = 4},
                           0});
        ops.push_back({{.op = storeOp, .rs1 = 10, .rs2 = 5}, storeAddr});
        for (unsigned i = 0; i < younger; ++i)
            ops.push_back({{.op = Opcode::STD, .rs1 = 10, .rs2 = 0},
                           0x4000 + 8 * Addr(i)});
        for (unsigned i = 0; i < chain; ++i)
            ops.push_back({{.op = Opcode::ADDI, .rd = 12, .rs1 = 12,
                            .imm = 1},
                           0});
        ops.push_back({{.op = Opcode::LFD, .rd = f6, .rs1 = 12}, loadAddr});
        ops.push_back({{.op = Opcode::FDIV, .rd = f7, .rs1 = f6,
                        .rs2 = f6},
                       0});

        auto cfg = Ppc620Config::base620();
        cfg.rsPerUnit = 0;
        cfg.gprRename = 0;
        cfg.fprRename = 0;
        cfg.completionEntries = 0;
        uarch::Ppc620Model m(cfg, false);
        Addr pc = 0x10000;
        for (const auto &[inst, ea] : ops) {
            trace::TraceRecord r;
            r.pc = pc;
            r.nextPc = pc += 4;
            r.inst = &inst;
            r.effAddr = ea;
            m.consume(r);
        }
        m.finish();
        return m.stats().cycles;
    }
};

TEST(Ppc620StoreQueue, ReturnOnTheStoresReadyCycleStillWaits)
{
    // Each addi delays the load's data return by one cycle. Past a
    // few, the run's last cycle is the return plus the fdiv, which a
    // store to the next 8 bytes leaves alone; an overlapping store
    // moves the return to at least its ready cycle + 1.
    LoadBehindSlowStore apart, overlap;
    apart.loadAddr = 0x1008;
    const Cycle held = overlap.cycles(); // ready + 1 + the fdiv
    ASSERT_GT(held, apart.cycles()) << "the store must delay the load";

    bool sawReturnOnReady = false;
    for (unsigned chain = 0; chain <= 64; ++chain) {
        apart.chain = overlap.chain = chain;
        const Cycle free = apart.cycles();
        EXPECT_EQ(overlap.cycles(), std::max(free, held)) << chain;
        // The data returns exactly on the store's ready cycle: the
        // store still delays it by one, so a bound that skips the
        // scan when return >= ready is wrong.
        if (free + 1 == held) {
            sawReturnOnReady = true;
            EXPECT_EQ(overlap.cycles(), free + 1) << chain;
        }
    }
    EXPECT_TRUE(sawReturnOnReady)
        << "the sweep must land a return on the ready cycle";
}

TEST(Ppc620StoreQueue, OverlapOfTheLastByteForwards)
{
    // The 8-byte load covers [0x1008, 0x1010); one-byte stores just
    // outside it, on either side, do not delay it.
    LoadBehindSlowStore last, after, before;
    last.storeOp = after.storeOp = before.storeOp = isa::Opcode::STB;
    last.loadAddr = after.loadAddr = before.loadAddr = 0x1008;
    last.storeAddr = 0x100f;
    after.storeAddr = 0x1010;
    before.storeAddr = 0x1007;
    EXPECT_EQ(after.cycles(), before.cycles());
    EXPECT_GT(last.cycles(), after.cycles())
        << "a store of the load's last byte must delay it";
}

TEST(Ppc620StoreQueue, StorePushedOutOfTheQueueNoLongerForwards)
{
    // Three 35-cycle divides keep the store's data late enough that
    // 64 younger stores (one per cycle on the 620) dispatch first.
    auto delay = [](unsigned younger) {
        LoadBehindSlowStore overlap, apart;
        overlap.divides = apart.divides = 3;
        overlap.younger = apart.younger = younger;
        apart.loadAddr = 0x1008;
        return overlap.cycles() - apart.cycles();
    };
    EXPECT_GT(delay(63), 0u) << "the 64-entry queue still holds it";
    EXPECT_EQ(delay(64), 0u) << "64 younger stores pushed it out";
}

// ---- configuration validation ------------------------------------

/** One rejected field: its name and how to zero it. */
struct ZeroField
{
    const char *name;
    unsigned Ppc620Config::*ppc = nullptr;
    unsigned AlphaConfig::*alpha = nullptr;
};

std::string
zeroFieldName(const ::testing::TestParamInfo<ZeroField> &info)
{
    return info.param.name;
}

/** Print a case as its field name, so CTest's test names (which carry
 *  the printed parameter) do not depend on where the name lives. */
void
PrintTo(const ZeroField &f, std::ostream *os)
{
    *os << f.name;
}

class MachineConfigDeathTest : public ::testing::TestWithParam<ZeroField>
{};

TEST_P(MachineConfigDeathTest, ZeroIsFatalAndNamesTheField)
{
    const ZeroField &f = GetParam();
    const std::string msg = std::string(f.name) + " must be at least 1";
    if (f.ppc) {
        auto cfg = Ppc620Config::base620();
        cfg.*f.ppc = 0;
        EXPECT_EXIT(uarch::Ppc620Model(cfg, false),
                    ::testing::ExitedWithCode(1), msg);
    } else {
        auto cfg = AlphaConfig::base21164();
        cfg.*f.alpha = 0;
        EXPECT_EXIT(uarch::Alpha21164Model(cfg, false),
                    ::testing::ExitedWithCode(1), msg);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ppc620, MachineConfigDeathTest,
    ::testing::Values(
        ZeroField{"fetchWidth", &Ppc620Config::fetchWidth},
        ZeroField{"fetchBuffer", &Ppc620Config::fetchBuffer},
        ZeroField{"dispatchWidth", &Ppc620Config::dispatchWidth},
        ZeroField{"completeWidth", &Ppc620Config::completeWidth},
        ZeroField{"numScfx", &Ppc620Config::numScfx},
        ZeroField{"numMcfx", &Ppc620Config::numMcfx},
        ZeroField{"numFpu", &Ppc620Config::numFpu},
        ZeroField{"numLsu", &Ppc620Config::numLsu},
        ZeroField{"numBru", &Ppc620Config::numBru},
        ZeroField{"memOpsPerCycle", &Ppc620Config::memOpsPerCycle},
        ZeroField{"mshrs", &Ppc620Config::mshrs}),
    zeroFieldName);

INSTANTIATE_TEST_SUITE_P(
    Alpha21164, MachineConfigDeathTest,
    ::testing::Values(
        ZeroField{"width", nullptr, &AlphaConfig::width},
        ZeroField{"intPipes", nullptr, &AlphaConfig::intPipes},
        ZeroField{"fpPipes", nullptr, &AlphaConfig::fpPipes}),
    zeroFieldName);

TEST(HierarchyConfigDeathTest, BankCountMustBeAPowerOfTwo)
{
    for (std::uint32_t banks : {0u, 3u}) {
        auto cfg = mem::HierarchyConfig::ppc620();
        cfg.banks = banks;
        EXPECT_EXIT(mem::MemHierarchy{cfg}, ::testing::ExitedWithCode(1),
                    "banks must be a power of two")
            << banks;
    }
    auto cfg = Ppc620Config::base620();
    cfg.mem.banks = 3;
    EXPECT_EXIT(uarch::Ppc620Model(cfg, false),
                ::testing::ExitedWithCode(1),
                "banks must be a power of two");
}

TEST(MachineConfig, ZeroPoolSizesMeanUnlimited)
{
    // Reservation stations, rename buffers and the completion buffer
    // are ResourcePools, where 0 means unlimited: legal, and never
    // slower than the bounded machine.
    auto p = make([](Assembler &a) {
        a.li(7, 100);
        a.label("loop");
        for (int i = 0; i < 8; ++i)
            a.addi(static_cast<RegIndex>(8 + i), 0, i);
        a.addi(7, 7, -1);
        a.cmpi(0, 7, 0);
        a.bc(Cond::GT, 0, "loop");
        a.halt();
    });
    auto unlimited = Ppc620Config::base620();
    unlimited.rsPerUnit = 0;
    unlimited.gprRename = 0;
    unlimited.fprRename = 0;
    unlimited.completionEntries = 0;
    EXPECT_LE(cycles620(p, unlimited),
              cycles620(p, Ppc620Config::base620()));
}

} // namespace
} // namespace lvplib
