/**
 * @file
 * Tests for lvpchaos: the deterministic injection engine, the
 * predictor-corruption hooks and their speculation-safety contract,
 * the watchdog and retry machinery, cache-failure degradation, and a
 * small end-to-end campaign.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "chaos/campaign.hh"
#include "chaos/chaos.hh"
#include "core/cvu.hh"
#include "core/lct.hh"
#include "core/lvp_unit.hh"
#include "core/lvpt.hh"
#include "sim/resilience.hh"
#include "sim/run_cache.hh"
#include "trace/trace.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace
{

using namespace lvplib;
using chaos::ChaosConfig;
using chaos::Point;
using chaos::pointBit;

/** Disarm + zero the global engine around every test in this file. */
struct ChaosGuard
{
    ChaosGuard()
    {
        chaos::engine().disarm();
        chaos::engine().resetCounts();
    }
    ~ChaosGuard() { chaos::engine().disarm(); }
};

TEST(ChaosEngine, DisarmedNeverFiresAndCostsNoCounts)
{
    ChaosGuard guard;
    auto &ce = chaos::engine();
    EXPECT_FALSE(ce.enabled());
    for (std::uint64_t n = 0; n < 10000; ++n)
        EXPECT_FALSE(ce.shouldInject(Point::LvptValue, 1, n));
    EXPECT_EQ(ce.injectedTotal(), 0u);
}

TEST(ChaosEngine, DecisionsAreAPureFunctionOfTheSeed)
{
    ChaosGuard guard;
    auto &ce = chaos::engine();

    auto collect = [&](std::uint64_t seed) {
        ce.arm({seed, chaos::AllPoints, 64});
        std::vector<bool> fired;
        for (std::uint64_t n = 0; n < 4096; ++n)
            fired.push_back(
                ce.shouldInject(Point::TraceReadFlip, 0xfeed, n));
        ce.disarm();
        return fired;
    };

    auto a = collect(7), b = collect(7), c = collect(8);
    EXPECT_EQ(a, b) << "same seed must replay the same faults";
    EXPECT_NE(a, c) << "a different seed must move the faults";
    EXPECT_GT(ce.injectedTotal(), 0u);
}

TEST(ChaosEngine, StreamsAreIndependent)
{
    ChaosGuard guard;
    auto &ce = chaos::engine();
    ce.arm({1, chaos::AllPoints, 64});
    std::vector<bool> s1, s2;
    for (std::uint64_t n = 0; n < 4096; ++n) {
        s1.push_back(ce.shouldInject(Point::LvptValue, 100, n));
        s2.push_back(ce.shouldInject(Point::LvptValue, 200, n));
    }
    ce.disarm();
    EXPECT_NE(s1, s2)
        << "distinct stream keys must see distinct fault schedules";
}

TEST(ChaosEngine, PointMaskGatesInjection)
{
    ChaosGuard guard;
    auto &ce = chaos::engine();
    ce.arm({1, pointBit(Point::LvptValue), 8});
    std::uint64_t lvptFired = 0;
    for (std::uint64_t n = 0; n < 1024; ++n) {
        if (ce.shouldInject(Point::LvptValue, 5, n))
            ++lvptFired;
        EXPECT_FALSE(ce.shouldInject(Point::TaskThrow, 5, n))
            << "unarmed point must never fire";
    }
    ce.disarm();
    EXPECT_GT(lvptFired, 0u);
    EXPECT_EQ(ce.injected(Point::LvptValue), lvptFired);
    EXPECT_EQ(ce.injected(Point::TaskThrow), 0u);
}

TEST(ChaosEngine, PeriodControlsFaultRate)
{
    ChaosGuard guard;
    auto &ce = chaos::engine();
    auto countAt = [&](std::uint64_t period) {
        ce.arm({1, chaos::AllPoints, period});
        std::uint64_t fired = 0;
        for (std::uint64_t n = 0; n < 20000; ++n)
            if (ce.shouldInject(Point::LctCounter, 9, n))
                ++fired;
        ce.disarm();
        return fired;
    };
    std::uint64_t dense = countAt(4), sparse = countAt(256);
    EXPECT_GT(dense, sparse * 8)
        << "period 4 must fire far more often than period 256";
    // Period 1 fires on every decision.
    ce.arm({1, chaos::AllPoints, 1});
    for (std::uint64_t n = 0; n < 64; ++n)
        EXPECT_TRUE(ce.shouldInject(Point::CvuEntry, 3, n));
    ce.disarm();
}

TEST(ChaosEngine, FaultHashIsDeterministic)
{
    ChaosGuard guard;
    auto &ce = chaos::engine();
    EXPECT_EQ(ce.faultHash(Point::LvptValue, 11, 22),
              ce.faultHash(Point::LvptValue, 11, 22));
    EXPECT_NE(ce.faultHash(Point::LvptValue, 11, 22),
              ce.faultHash(Point::LvptValue, 11, 23));
    EXPECT_NE(ce.faultHash(Point::LvptValue, 11, 22),
              ce.faultHash(Point::LctCounter, 11, 22));
}

TEST(ChaosEngine, RecoveredEventsAreCounted)
{
    ChaosGuard guard;
    auto &ce = chaos::engine();
    EXPECT_EQ(ce.recoveredTotal(), 0u);
    ce.recordRecovered("unit_test");
    ce.recordRecovered("unit_test");
    EXPECT_EQ(ce.recoveredTotal(), 2u);
    ce.resetCounts();
    EXPECT_EQ(ce.recoveredTotal(), 0u);
}

TEST(PredictorCorruption, LvptFlipSurvivesOnlyInNonEmptyEntries)
{
    core::Lvpt t(16, 1);
    EXPECT_FALSE(t.corruptMruValue(3, 0x10))
        << "an empty entry has no value to flip";

    Addr pc = 0x40;
    t.update(pc, 0xAA);
    std::uint32_t idx = t.index(pc);
    ASSERT_TRUE(t.corruptMruValue(idx, 0x1));
    auto look = t.lookup(pc);
    ASSERT_TRUE(look.valid);
    EXPECT_EQ(look.value, 0xABu) << "exactly the masked bit flipped";
}

TEST(PredictorCorruption, LctFlipTogglesTheLowCounterBit)
{
    core::Lct l(16, 2);
    Addr pc = 0x80;
    std::uint8_t before = l.counter(pc);
    l.corruptCounter(l.index(pc));
    EXPECT_EQ(l.counter(pc), before ^ 1);
    l.corruptCounter(l.index(pc));
    EXPECT_EQ(l.counter(pc), before);
}

TEST(PredictorCorruption, CvuCorruptEvictIsParityDetectedRemoval)
{
    core::Cvu c(4);
    EXPECT_FALSE(c.corruptEvict(0)) << "empty unit: nothing to evict";
    c.insert(0x1000, 2, 8);
    ASSERT_TRUE(c.lookup(0x1000, 2));
    ASSERT_TRUE(c.corruptEvict(0));
    EXPECT_FALSE(c.lookup(0x1000, 2))
        << "a parity-failed entry must read as absent";
    EXPECT_EQ(c.size(), 0u);
}

TEST(SpeculationSafety, PredictorFaultsNeverChangeArchitecture)
{
    ChaosGuard guard;
    auto &ce = chaos::engine();
    isa::Program prog = workloads::findWorkload("grep").build(
        workloads::CodeGen::Ppc, 1);

    auto run = [&] {
        vm::Interpreter interp(prog);
        trace::NullSink null;
        core::LvpAnnotator annot(core::LvpConfig::simple(), null);
        interp.run(&annot);
        return std::tuple{interp.memory().imageHash(),
                          interp.retired(), interp.halted(),
                          annot.unit().stats()};
    };

    auto [refHash, refRetired, refHalted, refStats] = run();
    ce.arm({5, chaos::PredictorPoints, 16});
    auto [gotHash, gotRetired, gotHalted, gotStats] = run();
    ce.disarm();

    ASSERT_GT(ce.injectedTotal(), 0u)
        << "the run must actually have been faulted";
    EXPECT_EQ(gotHash, refHash)
        << "memory image must be bit-identical";
    EXPECT_EQ(gotRetired, refRetired);
    EXPECT_EQ(gotHalted, refHalted);
    EXPECT_EQ(gotStats.cvuStaleHits, 0u)
        << "the CVU must never vouch for a corrupted value";
    EXPECT_EQ(gotStats.loads, refStats.loads)
        << "faults change prediction outcomes, not the load stream";
}

TEST(Watchdog, RecordBudgetThrowsTypedError)
{
    sim::WatchdogSink wd(nullptr, 0, /*recordBudget=*/10);
    trace::TraceRecord rec{};
    for (int i = 0; i < 10; ++i)
        wd.consume(rec);
    EXPECT_EQ(wd.consumed(), 10u);
    try {
        wd.consume(rec);
        FAIL() << "expected SimError(Watchdog)";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Watchdog);
        EXPECT_NE(std::string(e.what()).find("record budget"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Watchdog, WallClockLimitThrowsTypedError)
{
    sim::WatchdogSink wd(nullptr, /*wallLimitMs=*/1, 0);
    trace::TraceRecord rec{};
    wd.consume(rec); // n=0: checked, but nothing has elapsed yet
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // The wall clock is only consulted every 64Ki records.
    bool threw = false;
    try {
        for (std::uint64_t i = 0; i < (1u << 17); ++i)
            wd.consume(rec);
    } catch (const SimError &e) {
        threw = e.kind() == ErrorKind::Watchdog;
    }
    EXPECT_TRUE(threw);
}

TEST(Retry, RecoversAfterTransientFailures)
{
    sim::RetryPolicy policy;
    policy.attempts = 5;
    policy.sleep = false;
    int calls = 0;
    int result = sim::runWithRetry("flaky", policy, [&] {
        if (++calls < 3)
            throw SimError(ErrorKind::TraceIo, "transient");
        return 42;
    });
    EXPECT_EQ(result, 42);
    EXPECT_EQ(calls, 3);
}

TEST(Retry, NonSimErrorsAreNotRetried)
{
    sim::RetryPolicy policy;
    policy.attempts = 5;
    policy.sleep = false;
    int calls = 0;
    EXPECT_THROW(sim::runWithRetry("bug", policy,
                                   [&]() -> int {
                                       ++calls;
                                       throw std::logic_error("bug");
                                   }),
                 std::logic_error);
    EXPECT_EQ(calls, 1) << "programmer errors must surface at once";
}

TEST(RunCacheChaos, ReadFlipFallsBackToInMemoryByteIdentical)
{
    namespace fs = std::filesystem;
    ChaosGuard guard;
    auto &cache = sim::RunCache::instance();
    const std::string saved = cache.traceDir();
    fs::path dir =
        fs::path(::testing::TempDir()) / "lvplib_chaos_readflip";
    fs::remove_all(dir);
    fs::create_directories(dir);

    const auto &w = workloads::findWorkload("grep");
    auto cfg = core::LvpConfig::simple();
    sim::RunConfig rc;

    cache.clear();
    cache.setTraceDir(dir.string());
    auto ref = cache.lvpOnly(w, workloads::CodeGen::Ppc, 1, cfg, rc);
    cache.clear(); // drop memos, keep the trace file

    auto &ce = chaos::engine();
    ce.arm({3, pointBit(Point::TraceReadFlip), 64});
    auto got = cache.lvpOnly(w, workloads::CodeGen::Ppc, 1, cfg, rc);
    ce.disarm();

    EXPECT_GT(ce.injected(Point::TraceReadFlip), 0u)
        << "the replay must actually have been corrupted";
    EXPECT_GT(ce.recoveredTotal(), 0u)
        << "the fallback must count as a recovery";
    EXPECT_EQ(got.loads, ref.loads);
    EXPECT_EQ(got.correct, ref.correct);
    EXPECT_EQ(got.incorrect, ref.incorrect);
    EXPECT_EQ(got.constants, ref.constants);

    cache.clear();
    cache.setTraceDir(saved);
    fs::remove_all(dir);
}

TEST(RunCacheChaos, PersistentWriteFailureDegradesToInMemory)
{
    namespace fs = std::filesystem;
    ChaosGuard guard;
    auto &cache = sim::RunCache::instance();
    const std::string saved = cache.traceDir();
    fs::path dir =
        fs::path(::testing::TempDir()) / "lvplib_chaos_degrade";
    fs::remove_all(dir);
    fs::create_directories(dir);

    auto cfg = core::LvpConfig::simple();
    sim::RunConfig rc;

    cache.clear();
    cache.setTraceDir(dir.string());
    auto &ce = chaos::engine();
    // Period 1 on the write path: every regeneration attempt fails.
    ce.arm({1,
            pointBit(Point::TraceWriteRecord) |
                pointBit(Point::TraceWriteFooter) |
                pointBit(Point::CacheRename),
            1});
    const auto &all = workloads::allWorkloads();
    for (unsigned i = 0; i < 3 && i < all.size(); ++i) {
        auto got =
            cache.lvpOnly(all[i], workloads::CodeGen::Ppc, 1, cfg, rc);
        EXPECT_GT(got.loads, 0u) << "the run itself must succeed";
    }
    ce.disarm();

    EXPECT_TRUE(cache.traceDir().empty())
        << "after repeated failures the cache must go cache-less";
    EXPECT_GT(ce.recoveredTotal(), 0u);

    cache.clear();
    cache.setTraceDir(saved);
    fs::remove_all(dir);
}

TEST(Campaign, SmallCampaignPassesAndReportIsSeedStable)
{
    ChaosGuard guard;
    chaos::CampaignOptions opts;
    opts.seed = 3;
    opts.minPredictorFaults = 40;
    opts.scale = 1;
    opts.numWorkloads = 2;

    std::ostringstream a, b;
    EXPECT_EQ(chaos::runChaosCampaign(opts, a), 0);
    EXPECT_EQ(chaos::runChaosCampaign(opts, b), 0);
    EXPECT_EQ(a.str(), b.str())
        << "the per-seed report must be byte-reproducible";
    EXPECT_NE(a.str().find("verdict: PASS"), std::string::npos);

    opts.seed = 9;
    std::ostringstream c;
    EXPECT_EQ(chaos::runChaosCampaign(opts, c), 0);
    EXPECT_NE(a.str(), c.str())
        << "a different seed must inject a different schedule";
}

} // namespace
