/**
 * @file
 * Tests for the parallel experiment engine: the TaskPool itself, the
 * determinism guarantee (parallel output byte-identical to serial),
 * and the RunCache's memoization and trace-replay paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/run_cache.hh"
#include "trace/trace_file.hh"
#include "uarch/machine_config.hh"
#include "util/env.hh"
#include "workloads/workload.hh"

namespace
{

using namespace lvplib;
using sim::RunCache;
using sim::TaskPool;

sim::ExperimentOptions
smallOpts()
{
    sim::ExperimentOptions opts;
    opts.scale = 1;
    return opts;
}

TEST(TaskPoolTest, RunsJobsAndReturnsResultsInOrder)
{
    TaskPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::vector<int> items;
    for (int i = 0; i < 100; ++i)
        items.push_back(i);
    auto out = pool.map(items, [](const int &v) { return v * v; });
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(TaskPoolTest, UsesMultipleWorkerThreads)
{
    TaskPool pool(4);
    // Hold every job at a latch until all four workers arrive: the
    // map can only finish if four distinct threads run concurrently.
    std::latch gate(4);
    std::mutex m;
    std::set<std::thread::id> ids;
    std::vector<int> items(4, 0);
    pool.map(items, [&](const int &) {
        gate.arrive_and_wait();
        std::lock_guard<std::mutex> lock(m);
        ids.insert(std::this_thread::get_id());
        return 0;
    });
    EXPECT_EQ(ids.size(), 4u);
}

TEST(TaskPoolTest, PropagatesExceptions)
{
    TaskPool pool(2);
    std::vector<int> items{1, 2, 3, 4};
    EXPECT_THROW(pool.map(items,
                          [](const int &v) -> int {
                              if (v == 3)
                                  throw std::runtime_error("boom");
                              return v;
                          }),
                 std::runtime_error);
}

TEST(TaskPoolTest, ThrowingTaskDoesNotWedgeMapOrLeakQueue)
{
    // Exercised under TSan by the sanitizer CI job: a task that dies
    // mid-fan-out must not wedge map(), deadlock later futures, or
    // leave orphaned work in the queue.
    TaskPool pool(2);
    std::vector<int> items;
    for (int i = 0; i < 64; ++i)
        items.push_back(i);
    std::atomic<int> executed{0};
    EXPECT_THROW(pool.map(items,
                          [&](const int &v) -> int {
                              executed.fetch_add(1);
                              if (v == 10)
                                  throw std::runtime_error("boom");
                              return v;
                          }),
                 std::runtime_error);
    // Every submitted task still ran to a verdict — none abandoned.
    EXPECT_EQ(executed.load(), 64);

    // The pool is fully reusable afterwards.
    auto out = pool.map(items, [](const int &v) { return v + 1; });
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], i + 1);
}

TEST(TaskPoolTest, FirstExceptionInSubmissionOrderIsRethrown)
{
    TaskPool pool(4);
    std::vector<int> items;
    for (int i = 0; i < 32; ++i)
        items.push_back(i);
    // Items 5, 9, and 20 all throw; the caller must always see item
    // 5's exception regardless of which worker finishes first.
    for (int round = 0; round < 8; ++round) {
        try {
            pool.map(items, [](const int &v) -> int {
                if (v == 5 || v == 9 || v == 20)
                    throw std::runtime_error(
                        "boom-" + std::to_string(v));
                return v;
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom-5");
        }
    }
}

TEST(TaskPoolTest, InjectedSubmitFaultIsCleanAndPoolSurvives)
{
    auto &ce = chaos::engine();
    // Period 1: every submission is replaced with a throwing task.
    ce.arm({/*seed=*/42, chaos::pointBit(chaos::Point::TaskThrow), 1});
    TaskPool pool(2);
    std::vector<int> items(8, 1);
    try {
        pool.map(items, [](const int &v) { return v; });
        ADD_FAILURE() << "expected the injected fault to propagate";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Injected);
    }
    ce.disarm();
    EXPECT_GE(ce.injected(chaos::Point::TaskThrow), 8u);

    auto out = pool.map(items, [](const int &v) { return v * 3; });
    EXPECT_EQ(out, std::vector<int>(8, 3));
}

TEST(TaskPoolTest, SingleWorkerPoolStillCompletes)
{
    TaskPool pool(1);
    std::vector<int> items{5, 6, 7};
    auto out = pool.map(items, [](const int &v) { return v + 1; });
    EXPECT_EQ(out, (std::vector<int>{6, 7, 8}));
}

TEST(TaskPoolTest, IdleCountsWorkersWithoutATask)
{
    TaskPool pool(3);
    EXPECT_EQ(pool.idle(), pool.jobs()) << "a new pool is quiescent";

    // Hold every worker: none is idle, and a task queued behind them
    // does not make one so.
    std::latch started(3);
    std::latch release(1);
    std::vector<std::future<void>> done;
    for (int i = 0; i < 3; ++i)
        done.push_back(pool.submit([&] {
            started.count_down();
            release.wait();
        }));
    started.wait();
    EXPECT_EQ(pool.idle(), 0u);
    done.push_back(pool.submit([] {}));
    EXPECT_EQ(pool.idle(), 0u);
    release.count_down();
    for (auto &f : done)
        f.get();

    // A worker is counted again once it is back at the queue.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (pool.idle() != pool.jobs() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_EQ(pool.idle(), pool.jobs());
}

TEST(TaskPoolTest, DefaultJobsPositive)
{
    EXPECT_GE(TaskPool::defaultJobs(), 1u);
}

TEST(TaskPoolTest, PublishesSubmissionTelemetry)
{
    auto &reg = obs::metrics();
    auto submittedBefore = reg.counter("taskpool.submitted").value();
    auto executedBefore = reg.counter("taskpool.executed").value();
    {
        TaskPool pool(2);
        std::vector<int> items(16, 0);
        pool.map(items, [](const int &v) { return v; });
    }
    EXPECT_GE(reg.counter("taskpool.submitted").value(),
              submittedBefore + 16);
    EXPECT_GE(reg.counter("taskpool.executed").value(),
              executedBefore + 16);
    EXPECT_GE(reg.gauge("taskpool.queue_peak", true).value(), 1.0);
}

TEST(MetricRegistryRace, ConcurrentRegistrationAndUpdatesAreSafe)
{
    // Hammer one shared registry from pool workers: mixed
    // registration (get-or-create under the registry mutex) and
    // lock-free updates of a shared counter, distinct per-item
    // gauges, and a mutex-guarded distribution. Exercised under TSan
    // by the sanitizer CI job; the assertions also pin down the
    // counting semantics.
    obs::MetricRegistry reg;
    TaskPool pool(8);
    std::vector<int> items;
    for (int i = 0; i < 256; ++i)
        items.push_back(i);
    pool.map(items, [&reg](const int &i) {
        reg.counter("race.shared").add();
        reg.gauge("race.gauge_" + std::to_string(i % 16))
            .set(static_cast<double>(i));
        reg.distribution("race.dist", 32)
            .record(static_cast<std::uint64_t>(i % 32));
        return 0;
    });
    EXPECT_EQ(reg.counter("race.shared").value(), 256u);
    EXPECT_EQ(reg.distribution("race.dist", 32).snapshot().total(),
              256u);
    // 1 counter + 16 gauges + 1 distribution.
    EXPECT_EQ(reg.size(), 18u);
}

TEST(EnvTest, EnvUnsignedParsesStrictly)
{
    setenv("LVPLIB_TEST_ENV", "42", 1);
    EXPECT_EQ(lvplib::envUnsigned("LVPLIB_TEST_ENV"), 42ull);
    setenv("LVPLIB_TEST_ENV", "42garbage", 1);
    EXPECT_FALSE(lvplib::envUnsigned("LVPLIB_TEST_ENV").has_value());
    setenv("LVPLIB_TEST_ENV", "-3", 1);
    EXPECT_FALSE(lvplib::envUnsigned("LVPLIB_TEST_ENV").has_value());
    setenv("LVPLIB_TEST_ENV", "99999999999999999999999", 1);
    EXPECT_FALSE(lvplib::envUnsigned("LVPLIB_TEST_ENV").has_value());
    setenv("LVPLIB_TEST_ENV", "7", 1);
    EXPECT_FALSE(
        lvplib::envUnsigned("LVPLIB_TEST_ENV", 8, 100).has_value());
    unsetenv("LVPLIB_TEST_ENV");
    EXPECT_FALSE(lvplib::envUnsigned("LVPLIB_TEST_ENV").has_value());
}

/** Render one experiment's table exactly as lvpbench would. */
std::string
renderFig1()
{
    std::ostringstream os;
    sim::fig1ValueLocality(smallOpts())[0].table.print(os);
    return os.str();
}

TEST(ParallelDeterminismTest, Fig1ByteIdenticalAcrossJobCounts)
{
    RunCache::instance().clear();
    sim::setExperimentJobs(1);
    std::string serial = renderFig1();

    RunCache::instance().clear();
    sim::setExperimentJobs(4);
    std::string parallel = renderFig1();

    sim::setExperimentJobs(0); // restore the default pool
    EXPECT_EQ(serial, parallel);
}

TEST(RunCacheTest, HitReturnsSameStatsAsColdRun)
{
    auto &cache = RunCache::instance();
    cache.clear();
    const auto &w = workloads::allWorkloads().front();
    auto opts = smallOpts();
    sim::RunConfig rc{opts.maxInstructions};

    auto before = cache.stats();
    auto cold = cache.functional(w, workloads::CodeGen::Ppc,
                                 opts.scale, rc);
    auto warm = cache.functional(w, workloads::CodeGen::Ppc,
                                 opts.scale, rc);
    auto after = cache.stats();

    EXPECT_EQ(cold.stats.instructions(), warm.stats.instructions());
    EXPECT_EQ(cold.stats.loads(), warm.stats.loads());
    EXPECT_EQ(cold.result, warm.result);
    EXPECT_GT(after.misses, before.misses);
    EXPECT_GT(after.hits, before.hits);

    // The built program is shared, not rebuilt.
    auto p1 = cache.program(w, workloads::CodeGen::Ppc, opts.scale);
    auto p2 = cache.program(w, workloads::CodeGen::Ppc, opts.scale);
    EXPECT_EQ(p1.get(), p2.get());
}

TEST(RunCacheTest, TraceReplayMatchesDirectInterpretation)
{
    namespace fs = std::filesystem;
    const auto &w = workloads::allWorkloads().front();
    auto opts = smallOpts();
    sim::RunConfig rc{opts.maxInstructions};
    auto cfg = core::LvpConfig::simple();

    auto &cache = RunCache::instance();
    cache.clear();
    cache.setTraceDir("");
    auto direct = cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale,
                                cfg, rc);

    fs::path dir =
        fs::temp_directory_path() /
        ("lvpbench-cache-test-" + std::to_string(::getpid()));
    fs::create_directories(dir);
    cache.clear();
    cache.setTraceDir(dir.string());
    auto replayed = cache.lvpOnly(w, workloads::CodeGen::Ppc,
                                  opts.scale, cfg, rc);
    auto stats = cache.stats();
    cache.setTraceDir("");
    cache.clear();
    fs::remove_all(dir);

    EXPECT_EQ(stats.traceWrites, 1u);
    EXPECT_EQ(stats.traceReplays, 1u);
    EXPECT_EQ(direct.loads, replayed.loads);
    EXPECT_EQ(direct.correct, replayed.correct);
    EXPECT_EQ(direct.incorrect, replayed.incorrect);
    EXPECT_EQ(direct.constants, replayed.constants);
}

/** RAII temp trace-cache directory. */
struct TempTraceDir
{
    std::filesystem::path dir;

    explicit TempTraceDir(const char *tag)
        : dir(std::filesystem::temp_directory_path() /
              (std::string("lvplib-") + tag + "-" +
               std::to_string(::getpid())))
    {
        std::filesystem::create_directories(dir);
    }
    ~TempTraceDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    /** The single *.trace file generated so far. */
    std::filesystem::path
    onlyTrace() const
    {
        std::filesystem::path found;
        for (const auto &e :
             std::filesystem::directory_iterator(dir))
            if (e.path().extension() == ".trace") {
                EXPECT_TRUE(found.empty())
                    << "expected exactly one trace file";
                found = e.path();
            }
        EXPECT_FALSE(found.empty()) << "no trace file in " << dir;
        return found;
    }
};

void
flipByteAt(const std::filesystem::path &path, long offset)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, offset < 0 ? SEEK_END : SEEK_SET),
              0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(c ^ 0x01, f);
    ASSERT_EQ(std::fclose(f), 0);
}

TEST(RunCacheTest, CorruptTraceIsRegeneratedNotReplayed)
{
    const auto &w = workloads::allWorkloads().front();
    auto opts = smallOpts();
    sim::RunConfig rc{opts.maxInstructions};
    auto cfg = core::LvpConfig::simple();
    auto &cache = RunCache::instance();

    // Ground truth: pure in-memory run.
    cache.clear();
    cache.setTraceDir("");
    auto direct = cache.lvpOnly(w, workloads::CodeGen::Ppc,
                                opts.scale, cfg, rc);

    TempTraceDir tmp("corrupt-trace");
    cache.clear();
    cache.setTraceDir(tmp.dir.string());
    auto cold = cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale,
                              cfg, rc);
    EXPECT_EQ(cache.stats().traceWrites, 1u);
    EXPECT_EQ(cache.stats().traceInvalid, 0u);

    // Flip one payload bit, then act like a fresh process.
    flipByteAt(tmp.onlyTrace(),
               static_cast<long>(trace::TraceHeaderBytes) + 16);
    cache.clear();
    auto recovered = cache.lvpOnly(w, workloads::CodeGen::Ppc,
                                   opts.scale, cfg, rc);
    auto stats = cache.stats();
    EXPECT_EQ(stats.traceInvalid, 1u)
        << "corruption must be detected and counted";
    EXPECT_EQ(stats.traceWrites, 1u) << "and the trace regenerated";

    // The regenerated file is valid again and results identical.
    EXPECT_TRUE(trace::verifyTraceFile(tmp.onlyTrace().string()).ok());
    cache.clear();
    auto warm = cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale,
                              cfg, rc);
    EXPECT_EQ(cache.stats().traceInvalid, 0u);
    for (const auto &r : {cold, recovered, warm}) {
        EXPECT_EQ(direct.loads, r.loads);
        EXPECT_EQ(direct.correct, r.correct);
        EXPECT_EQ(direct.incorrect, r.incorrect);
        EXPECT_EQ(direct.constants, r.constants);
    }
    cache.setTraceDir("");
    cache.clear();
}

void
expectSameLocality(const core::LoadLocality &a, const core::LoadLocality &b)
{
    auto same = [](const core::LocalityCounts &x,
                   const core::LocalityCounts &y) {
        return x.loads == y.loads && x.hitsDepth1 == y.hitsDepth1 &&
               x.hitsDepthN == y.hitsDepthN;
    };
    EXPECT_GT(a.total.loads, 0u);
    EXPECT_TRUE(same(a.total, b.total));
    for (std::size_t c = 0; c < a.classes.size(); ++c)
        EXPECT_TRUE(same(a.classes[c], b.classes[c])) << "class " << c;
}

TEST(RunCacheTest, LocalityReplayMatchesInMemoryRun)
{
    const auto &w = workloads::allWorkloads().front();
    auto opts = smallOpts();
    sim::RunConfig rc{opts.maxInstructions};
    const auto cg = workloads::CodeGen::Ppc;
    auto &cache = RunCache::instance();

    cache.clear();
    cache.setTraceDir("");
    std::uint64_t n0 = sim::instructionsProcessed();
    const auto direct = cache.locality(w, cg, opts.scale, rc);
    const std::uint64_t interpreted = sim::instructionsProcessed() - n0;
    EXPECT_EQ(cache.stats().traceReplays, 0u);

    TempTraceDir tmp("locality-trace");
    cache.clear();
    cache.setTraceDir(tmp.dir.string());
    const auto cold = cache.locality(w, cg, opts.scale, rc);
    EXPECT_EQ(cache.stats().traceWrites, 1u);
    EXPECT_EQ(cache.stats().traceReplays, 1u);

    // A later process finds the trace and only replays it, counting
    // the records it replays as processed instructions.
    cache.clear();
    n0 = sim::instructionsProcessed();
    const auto warm = cache.locality(w, cg, opts.scale, rc);
    EXPECT_EQ(sim::instructionsProcessed() - n0, interpreted);
    auto stats = cache.stats();
    EXPECT_EQ(stats.traceWrites, 0u);
    EXPECT_EQ(stats.traceReplays, 1u);
    EXPECT_EQ(stats.traceInvalid, 0u);
    expectSameLocality(direct, cold);
    expectSameLocality(direct, warm);
    cache.setTraceDir("");
    cache.clear();
}

TEST(RunCacheTest, LocalityFallsBackWhenItsReplayFails)
{
    const auto &w = workloads::allWorkloads().front();
    auto opts = smallOpts();
    sim::RunConfig rc{opts.maxInstructions};
    const auto cg = workloads::CodeGen::Ppc;
    auto &cache = RunCache::instance();

    cache.clear();
    cache.setTraceDir("");
    const auto direct = cache.locality(w, cg, opts.scale, rc);

    // Another run writes the trace, so the cache trusts it from then
    // on; a bit flipped afterwards surfaces only in the replay.
    TempTraceDir tmp("locality-flip");
    cache.clear();
    cache.setTraceDir(tmp.dir.string());
    cache.lvpOnly(w, cg, opts.scale, core::LvpConfig::simple(), rc);
    ASSERT_EQ(cache.stats().traceWrites, 1u);
    ASSERT_EQ(cache.stats().traceReplays, 1u);
    const auto path = tmp.onlyTrace();
    flipByteAt(path, static_cast<long>(trace::TraceHeaderBytes) + 16);

    const auto recovered = cache.locality(w, cg, opts.scale, rc);
    auto stats = cache.stats();
    EXPECT_EQ(stats.traceInvalid, 1u) << "the failed replay is counted";
    EXPECT_EQ(stats.traceReplays, 1u) << "and is not a replay";
    EXPECT_FALSE(std::filesystem::exists(path))
        << "the corrupt trace is discarded";
    expectSameLocality(direct, recovered);
    cache.setTraceDir("");
    cache.clear();
}

TEST(RunCacheTest, StaleFingerprintAndLegacyFilesRegenerate)
{
    const auto &w = workloads::allWorkloads().front();
    auto opts = smallOpts();
    sim::RunConfig rc{opts.maxInstructions};
    auto cfg = core::LvpConfig::simple();
    auto &cache = RunCache::instance();

    TempTraceDir tmp("stale-trace");
    cache.clear();
    cache.setTraceDir(tmp.dir.string());
    cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale, cfg, rc);
    auto path = tmp.onlyTrace();

    // Flip a fingerprint byte: same payload, "different" program.
    flipByteAt(path, 16);
    cache.clear();
    cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale, cfg, rc);
    EXPECT_EQ(cache.stats().traceInvalid, 1u);

    // Overwrite with a v1-era headerless record stream.
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::vector<char> raw(26 * 3, 0);
        ASSERT_EQ(std::fwrite(raw.data(), raw.size(), 1, f), 1u);
        ASSERT_EQ(std::fclose(f), 0);
    }
    cache.clear();
    auto out = cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale,
                             cfg, rc);
    EXPECT_EQ(cache.stats().traceInvalid, 1u);
    EXPECT_TRUE(trace::verifyTraceFile(path.string()).ok());

    cache.setTraceDir("");
    cache.clear();
    auto direct = cache.lvpOnly(w, workloads::CodeGen::Ppc,
                                opts.scale, cfg, rc);
    EXPECT_EQ(direct.correct, out.correct);
    cache.clear();
}

TEST(RunCacheTest, TraceSaltAndNameStayTheSame)
{
    // A warm trace cache replays only while each file's name and the
    // salt hashed into its fingerprint are unchanged: any other bytes
    // regenerate every trace an earlier build wrote.
    const auto &w = workloads::findWorkload("grep");
    sim::RunConfig rc;
    rc.maxInstructions = 20000;
    TempTraceDir tmp("trace-salt");
    RunCache cache;
    cache.setTraceDir(tmp.dir.string());
    cache.locality(w, workloads::CodeGen::Ppc, 1, rc);
    const auto path = tmp.onlyTrace();
    EXPECT_EQ(path.filename(), "grep-ppc-s1-m20000.trace");
    auto prog = cache.program(w, workloads::CodeGen::Ppc, 1);
    EXPECT_EQ(trace::verifyTraceFile(path.string()).fingerprint,
              trace::mixFingerprint(trace::programFingerprint(*prog),
                                    "grep|ppc|1|20000"));
}

/** Overwrite one byte at @p offset with @p value. */
void
setByteAt(const std::filesystem::path &path, long offset,
          std::uint8_t value)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(value, f);
    ASSERT_EQ(std::fclose(f), 0);
}

TEST(RunCacheTest, UnknownVersionCountsAsFormatUpgradeNotCorruption)
{
    const auto &w = workloads::allWorkloads().front();
    auto opts = smallOpts();
    sim::RunConfig rc{opts.maxInstructions};
    auto cfg = core::LvpConfig::simple();
    auto &cache = RunCache::instance();

    TempTraceDir tmp("version-trace");
    cache.clear();
    cache.setTraceDir(tmp.dir.string());
    cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale, cfg, rc);
    auto path = tmp.onlyTrace();

    // Stamp another format version into the header, the retired v2,
    // v3 and v4 and a future one: the file is not corrupt, just
    // unreadable by this build. The miss must be counted as a format
    // upgrade, not corruption, and the trace regenerated in the
    // current format.
    for (std::uint8_t version : {std::uint8_t{2}, std::uint8_t{3},
                                 std::uint8_t{4}, std::uint8_t{0x7f}}) {
        setByteAt(path, 8, version);
        EXPECT_EQ(trace::verifyTraceFile(path.string()).status,
                  trace::TraceFileStatus::BadVersion);
        cache.clear();
        cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale, cfg, rc);
        auto stats = cache.stats();
        EXPECT_EQ(stats.traceFormatUpgrade, 1u) << int(version);
        EXPECT_EQ(stats.traceInvalid, 0u)
            << "a version mismatch is not corruption";
        EXPECT_EQ(stats.traceWrites, 1u) << "and the trace regenerated";
        EXPECT_TRUE(trace::verifyTraceFile(path.string()).ok());
    }

    cache.setTraceDir("");
    cache.clear();
}

TEST(RunCacheTest, CutOffRunsMatchWithAndWithoutTraceCache)
{
    // A budget that stops grep before HALT. The in-memory run must end
    // the stream as a trace replay does, or the 21164's drain at
    // finish() goes missing from its cycle count.
    const auto &w = workloads::findWorkload("grep");
    const sim::RunConfig rc{5000};
    const auto lvp = core::LvpConfig::simple();
    TempTraceDir tmp("cutoff-trace");
    RunCache memory;
    memory.setTraceDir("");
    RunCache replayed;
    replayed.setTraceDir(tmp.dir.string());
    ASSERT_FALSE(
        memory.functional(w, workloads::CodeGen::Alpha, 1, rc).completed);

    const auto ppc = uarch::Ppc620Config::base620();
    EXPECT_EQ(
        memory.ppc620(w, workloads::CodeGen::Ppc, 1, ppc, lvp, rc).timing,
        replayed.ppc620(w, workloads::CodeGen::Ppc, 1, ppc, lvp, rc)
            .timing);
    const auto alpha = uarch::AlphaConfig::base21164();
    EXPECT_EQ(memory.alpha21164(w, workloads::CodeGen::Alpha, 1, alpha,
                                lvp, rc)
                  .timing,
              replayed.alpha21164(w, workloads::CodeGen::Alpha, 1, alpha,
                                  lvp, rc)
                  .timing);
    EXPECT_EQ(replayed.stats().traceReplays, 2u);
}

TEST(RunCacheTest, TruncatedAndFlippedCompressedBlocksRegenerate)
{
    const auto &w = workloads::allWorkloads().front();
    auto opts = smallOpts();
    sim::RunConfig rc{opts.maxInstructions};
    auto cfg = core::LvpConfig::simple();
    auto &cache = RunCache::instance();

    cache.clear();
    cache.setTraceDir("");
    auto direct = cache.lvpOnly(w, workloads::CodeGen::Ppc,
                                opts.scale, cfg, rc);

    TempTraceDir tmp("block-damage-trace");
    cache.clear();
    cache.setTraceDir(tmp.dir.string());
    cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale, cfg, rc);
    auto path = tmp.onlyTrace();

    // Damage 1: chop the file mid-block (footer and index gone).
    auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size * 3 / 5);
    cache.clear();
    auto afterTrunc = cache.lvpOnly(w, workloads::CodeGen::Ppc,
                                    opts.scale, cfg, rc);
    EXPECT_EQ(cache.stats().traceInvalid, 1u);
    EXPECT_EQ(cache.stats().traceWrites, 1u);
    EXPECT_TRUE(trace::verifyTraceFile(path.string()).ok());

    // Damage 2: flip a byte deep inside a compressed block payload
    // (caught by that block's checksum, not the footer).
    flipByteAt(path, static_cast<long>(size / 2));
    cache.clear();
    auto afterFlip = cache.lvpOnly(w, workloads::CodeGen::Ppc,
                                   opts.scale, cfg, rc);
    EXPECT_EQ(cache.stats().traceInvalid, 1u);
    EXPECT_EQ(cache.stats().traceWrites, 1u);
    EXPECT_TRUE(trace::verifyTraceFile(path.string()).ok());

    for (const auto &r : {afterTrunc, afterFlip}) {
        EXPECT_EQ(direct.loads, r.loads);
        EXPECT_EQ(direct.correct, r.correct);
        EXPECT_EQ(direct.incorrect, r.incorrect);
        EXPECT_EQ(direct.constants, r.constants);
    }
    cache.setTraceDir("");
    cache.clear();
}

TEST(RunCacheTest, WriteFailureFallsBackAndIsNotMemoized)
{
    const auto &w = workloads::allWorkloads().front();
    auto opts = smallOpts();
    sim::RunConfig rc{opts.maxInstructions};
    auto &cache = RunCache::instance();

    // Point the cache at a directory that does not exist: phase 1
    // cannot write, but the run must still succeed in-memory.
    TempTraceDir tmp("late-dir");
    std::filesystem::path missing = tmp.dir / "not-yet";
    cache.clear();
    cache.setTraceDir(missing.string());
    auto fallback = cache.lvpOnly(w, workloads::CodeGen::Ppc,
                                  opts.scale,
                                  core::LvpConfig::simple(), rc);
    EXPECT_EQ(cache.stats().traceWrites, 0u);
    EXPECT_GT(fallback.loads, 0u);

    // The failure must not be memoized: once the directory exists, a
    // different run against the same trace key writes the trace.
    std::filesystem::create_directories(missing);
    cache.lvpOnly(w, workloads::CodeGen::Ppc, opts.scale,
                  core::LvpConfig::limit(), rc);
    EXPECT_EQ(cache.stats().traceWrites, 1u)
        << "a transient write failure must be retried";

    cache.setTraceDir("");
    cache.clear();
}

} // namespace
