/**
 * @file
 * Byte-identity proof for the hand-off replay, the one way a sweep
 * runs in parallel: a RunCache sweep replays the shared trace once
 * and, at block boundaries, hands half of its variants to idle pool
 * workers that replay the rest of the trace on their own readers. It
 * must return EXACTLY the results of one serial MultiSink pass — for
 * every kind of variant a sweep holds (every registry predictor and a
 * branch-history LVP unit, alone and in front of the 620, the 620+
 * and the 21164, and each machine without one), at several pool
 * widths, every statistics field compared, on a cold cache. With
 * chaos predictor faults armed a sweep must not hand off at all and
 * still match the serial pass fault for fault. Below the sweep: many
 * hand-offs over 64-record blocks, claim-back of a hand-off no worker
 * started, a corrupt block past a hand-off boundary, and the reader's
 * skipTo().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <latch>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "chaos/chaos.hh"
#include "core/config.hh"
#include "core/value_predictor.hh"
#include "obs/metrics.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/run_cache.hh"
#include "trace/trace_file.hh"
#include "uarch/machine_config.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace lvplib
{
namespace
{

namespace fs = std::filesystem;

/** The sweep entry point a test instance drives. */
enum class Sweep
{
    Predictor,
    Ppc620,
    Alpha21164,
};

const char *
sweepName(Sweep s)
{
    switch (s) {
    case Sweep::Predictor:
        return "pred";
    case Sweep::Ppc620:
        return "ppc620";
    case Sweep::Alpha21164:
        return "alpha21164";
    }
    return "?";
}

void
PrintTo(Sweep s, std::ostream *os)
{
    *os << sweepName(s);
}

/** Every registry predictor plus the branch-history LVP extension. */
std::vector<core::PredictorSpec>
predictorVariants()
{
    std::vector<core::PredictorSpec> specs;
    for (const auto &info : core::predictorRegistry())
        specs.push_back(info.spec);
    core::LvpConfig bhr = core::LvpConfig::simple();
    bhr.bhrBits = 4;
    specs.push_back(bhr);
    return specs;
}

/** The 620 and 620+, each without a predictor and behind every
 *  predictorVariants() spec. */
std::vector<sim::RunCache::PpcVariant>
ppcVariants()
{
    std::vector<sim::RunCache::PpcVariant> vs;
    for (const auto &mc : {uarch::Ppc620Config::base620(),
                           uarch::Ppc620Config::plus620()}) {
        vs.push_back({mc, std::nullopt});
        for (const auto &spec : predictorVariants())
            vs.push_back({mc, spec});
    }
    return vs;
}

/** The 21164 without a predictor and behind every spec. */
std::vector<sim::RunCache::AlphaVariant>
alphaVariants()
{
    std::vector<sim::RunCache::AlphaVariant> vs{
        {uarch::AlphaConfig::base21164(), std::nullopt}};
    for (const auto &spec : predictorVariants())
        vs.push_back({uarch::AlphaConfig::base21164(), spec});
    return vs;
}

/** Cold-cache RunCache sweeps in a trace directory of the test's own. */
class ShardReplay : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = cache().traceDir();
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string(info->test_suite_name()) + "_" +
                           info->name();
        std::replace(name.begin(), name.end(), '/', '_');
        dir_ = fs::path(::testing::TempDir()) / ("lvplib_" + name);
    }

    void
    TearDown() override
    {
        sim::setShardJobs(0);
        sim::setExperimentJobs(0);
        cache().clear();
        cache().setTraceDir(saved_);
        fs::remove_all(dir_);
    }

    static sim::RunCache &cache() { return sim::RunCache::instance(); }

    /** Forget every memo and trace. */
    void
    coldCache()
    {
        cache().clear();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        cache().setTraceDir(dir_.string());
    }

    /**
     * Run @p fn's sweep from a cold cache. With @p jobs = 0 it is the
     * serial reference (setShardJobs(1): never hand off) and must
     * replay the trace exactly once; otherwise it may hand off to a
     * pool of @p jobs workers and replays at least once — exactly once
     * while chaos is armed.
     */
    template <typename Fn>
    auto
    sweepAt(unsigned jobs, Fn fn)
    {
        sim::setShardJobs(jobs == 0 ? 1 : 0);
        if (jobs != 0)
            sim::setExperimentJobs(jobs);
        coldCache();
        auto before = cache().stats();
        auto out = fn();
        auto after = cache().stats();
        EXPECT_EQ(after.misses - before.misses, out.size() + 2)
            << "each variant computed once (plus program and trace)";
        EXPECT_EQ(after.traceWrites - before.traceWrites, 1u);
        const auto replays = after.traceReplays - before.traceReplays;
        if (jobs == 0 || chaos::engine().enabled())
            EXPECT_EQ(replays, 1u) << "one serial pass";
        else
            EXPECT_GE(replays, 1u);
        return out;
    }

    fs::path dir_;
    std::string saved_;
};

class GroupSharding
    : public ShardReplay,
      public ::testing::WithParamInterface<std::tuple<Sweep, unsigned>>
{};

TEST_P(GroupSharding, MatchesSerialOnEveryStatsField)
{
    // The parameter is the pool width of the hand-off run; grep at
    // scale 1 spans two trace blocks, so an idle pool takes a
    // hand-off at the boundary.
    const auto [sweep, jobs] = GetParam();
    const auto &w = workloads::findWorkload("grep");
    const sim::RunConfig rc;
    switch (sweep) {
    case Sweep::Predictor: {
        const auto specs = predictorVariants();
        auto run = [&] {
            return cache().predictorOnlyMany(w, workloads::CodeGen::Ppc,
                                             1, specs, rc);
        };
        auto serial = sweepAt(0, run);
        auto sharded = sweepAt(jobs, run);
        ASSERT_EQ(serial.size(), specs.size());
        ASSERT_EQ(sharded.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(serial[i], sharded[i]) << "spec " << i;
        break;
    }
    case Sweep::Ppc620: {
        const auto variants = ppcVariants();
        auto run = [&] {
            return cache().ppc620Many(w, workloads::CodeGen::Ppc, 1,
                                      variants, rc);
        };
        auto serial = sweepAt(0, run);
        auto sharded = sweepAt(jobs, run);
        ASSERT_EQ(serial.size(), variants.size());
        ASSERT_EQ(sharded.size(), variants.size());
        for (std::size_t i = 0; i < variants.size(); ++i) {
            EXPECT_EQ(serial[i].timing, sharded[i].timing) << i;
            EXPECT_EQ(serial[i].lvp, sharded[i].lvp) << i;
        }
        break;
    }
    case Sweep::Alpha21164: {
        const auto variants = alphaVariants();
        auto run = [&] {
            return cache().alpha21164Many(w, workloads::CodeGen::Alpha,
                                          1, variants, rc);
        };
        auto serial = sweepAt(0, run);
        auto sharded = sweepAt(jobs, run);
        ASSERT_EQ(serial.size(), variants.size());
        ASSERT_EQ(sharded.size(), variants.size());
        for (std::size_t i = 0; i < variants.size(); ++i) {
            EXPECT_EQ(serial[i].timing, sharded[i].timing) << i;
            EXPECT_EQ(serial[i].lvp, sharded[i].lvp) << i;
        }
        break;
    }
    }
}

TEST_F(ShardReplay, ChaosArmedShardingMatchesSerial)
{
    // Predictor faults are keyed on (config name, per-unit load
    // counter), so a sweep is reproducible while they are armed. The
    // mask arms ONLY predictor points: TaskThrow would fail pool tasks
    // and TraceReadFlip is exercised by batch_replay_test.
    const auto &w = workloads::findWorkload("grep");
    const sim::RunConfig rc;
    const auto specs = predictorVariants();
    auto run = [&] {
        return cache().predictorOnlyMany(w, workloads::CodeGen::Ppc, 1,
                                         specs, rc);
    };
    auto &ce = chaos::engine();
    std::vector<core::LvpStats> serial;
    std::vector<core::LvpStats> sharded;
    std::uint64_t serialFaults = 0;
    std::uint64_t shardedFaults = 0;
    ce.arm({99, chaos::PredictorPoints, 512});
    try {
        const std::uint64_t base = ce.injectedTotal();
        serial = sweepAt(0, run);
        const std::uint64_t mid = ce.injectedTotal();
        sharded = sweepAt(5, run);
        serialFaults = mid - base;
        shardedFaults = ce.injectedTotal() - mid;
    } catch (...) {
        ce.disarm();
        throw;
    }
    ce.disarm();
    EXPECT_GT(serialFaults, 0u) << "predictor faults must actually fire";
    EXPECT_EQ(shardedFaults, serialFaults)
        << "the sharded sweep sees the serial fault stream again";
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(sharded.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(serial[i], sharded[i]) << "spec " << i;
}

/** Fresh chains for every predictor and 620 variant, and their tops
 *  in that order (so hand-offs split the 620 chains off first). */
struct Chains
{
    std::vector<std::unique_ptr<sim::PredictorChain>> preds;
    std::vector<std::unique_ptr<sim::PpcChain>> ppcs;
    std::vector<trace::TraceSink *> tops;

    Chains()
    {
        for (const auto &spec : predictorVariants()) {
            preds.push_back(std::make_unique<sim::PredictorChain>(spec));
            tops.push_back(&preds.back()->top());
        }
        for (const auto &v : ppcVariants()) {
            ppcs.push_back(std::make_unique<sim::PpcChain>(v.mc, v.lvp));
            tops.push_back(&ppcs.back()->top());
        }
    }
};

void
expectSameResults(const Chains &a, const Chains &b)
{
    for (std::size_t i = 0; i < a.preds.size(); ++i)
        EXPECT_EQ(a.preds[i]->collect(), b.preds[i]->collect()) << i;
    for (std::size_t i = 0; i < a.ppcs.size(); ++i) {
        EXPECT_EQ(a.ppcs[i]->collect().timing,
                  b.ppcs[i]->collect().timing)
            << i;
        EXPECT_EQ(a.ppcs[i]->collect().lvp, b.ppcs[i]->collect().lvp)
            << i;
    }
}

isa::Program
grepProgram()
{
    return workloads::findWorkload("grep").build(workloads::CodeGen::Ppc,
                                                 1);
}

/** Write @p prog's trace to @p path in @p blockRecords-record
 *  blocks; returns the record count. */
std::uint64_t
writeTrace(const std::string &path, const isa::Program &prog,
           std::uint32_t blockRecords)
{
    trace::TraceFileWriter writer(path, 0,
                                  trace::TraceWriterOptions{blockRecords});
    vm::Interpreter interp(prog);
    interp.run(&writer, sim::RunConfig{}.maxInstructions);
    EXPECT_TRUE(writer.close()) << writer.error();
    return writer.recordsWritten();
}

/** Flip one payload bit of block @p block of the trace at @p path,
 *  locating the block through the file's block index. */
void
flipPayloadBit(const std::string &path, std::uint64_t block)
{
    std::vector<unsigned char> b;
    {
        std::ifstream in(path, std::ios::binary);
        b.assign(std::istreambuf_iterator<char>(in), {});
    }
    auto u64 = [&b](std::size_t at) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
        return v;
    };
    const std::uint64_t perBlock = b[12] | b[13] << 8 | b[14] << 16 |
                                   static_cast<std::uint64_t>(b[15])
                                       << 24;
    const std::uint64_t records = u64(b.size() - 16);
    const std::uint64_t blocks = (records + perBlock - 1) / perBlock;
    ASSERT_LT(block, blocks);
    const std::size_t index = b.size() - trace::TraceFooterBytes -
                              static_cast<std::size_t>(blocks) * 8;
    b[u64(index + block * 8) + trace::TraceBlockHeaderBytes] ^= 1;
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char *>(b.data()),
               static_cast<std::streamsize>(b.size()));
}

TEST_F(ShardReplay, ManyHandOffsMatchOneSerialReplay)
{
    // 64-record blocks give a hand-off chance every 64 records, and an
    // idle pool takes every one it can: the chains are split again
    // and again across readers that each skip to their own boundary.
    fs::create_directories(dir_);
    const auto prog = grepProgram();
    const std::string path = (dir_ / "grep-64.trace").string();
    const std::uint64_t records = writeTrace(path, prog, 64);
    ASSERT_GT(records, 64u * 100);

    Chains serial;
    {
        trace::TraceFileReader reader(path, prog);
        trace::MultiSink multi(serial.tops);
        EXPECT_EQ(reader.replay(multi), records);
    }
    sim::TaskPool pool(4);
    Chains handedOff;
    auto r = sim::replayHandingOff(pool, path, prog, handedOff.tops,
                                   "test:grep");
    EXPECT_EQ(r.records, records);
    EXPECT_GT(r.passes, 1u) << "an idle pool takes hand-offs";
    EXPECT_LE(r.passes, handedOff.tops.size());
    expectSameResults(serial, handedOff);
}

TEST_F(ShardReplay, ClaimBackRunsAHandOffNoWorkerStarted)
{
    fs::create_directories(dir_);
    const auto prog = grepProgram();
    const std::string path = (dir_ / "grep-64.trace").string();
    writeTrace(path, prog, 64);
    Chains serial;
    {
        trace::TraceFileReader reader(path, prog);
        trace::MultiSink multi(serial.tops);
        reader.replay(multi);
    }

    // Hold the pool's only worker.
    sim::TaskPool pool(1);
    std::latch held(1);
    std::latch release(1);
    auto blocker = pool.submit([&] {
        held.count_down();
        release.wait();
    });
    held.wait();
    EXPECT_EQ(pool.idle(), 0u);

    // A sweep never waits on a worker it cannot get: it replays alone
    // and returns.
    Chains alone;
    auto r = sim::replayHandingOff(pool, path, prog, alone.tops,
                                   "test:grep");
    EXPECT_EQ(r.passes, 1u);
    expectSameResults(serial, alone);

    // A hand-off queued behind the held worker is claimed back and run
    // by the thread that settles it.
    int runs = 0;
    std::thread::id ranOn;
    sim::HandOff h(pool, [&] {
        ++runs;
        ranOn = std::this_thread::get_id();
    });
    EXPECT_FALSE(h.settle());
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(ranOn, std::this_thread::get_id());

    // Once freed, the worker dequeues the settled task, finds it
    // claimed and does not run it again.
    release.count_down();
    blocker.get();
    pool.submit([] {}).get();
    EXPECT_EQ(runs, 1);
}

TEST_F(ShardReplay, CorruptBlockAfterHandOffFallsBack)
{
    // grep at scale 1 spans two trace blocks, so a sweep on an idle
    // pool hands off at the boundary between them. A bit flipped in
    // the second block after the trace was verified reaches both
    // readers: the sweep must report the trace once and fall back to
    // in-memory runs that equal the serial reference.
    const auto &w = workloads::findWorkload("grep");
    const sim::RunConfig rc;
    const auto specs = predictorVariants();
    auto reference = sweepAt(0, [&] {
        return cache().predictorOnlyMany(w, workloads::CodeGen::Ppc, 1,
                                         specs, rc);
    });

    sim::setShardJobs(0);
    sim::setExperimentJobs(2);
    coldCache();
    // Write and verify the trace through a one-variant sweep, which
    // leaves the path memoized, then corrupt the file under it.
    cache().predictorOnlyMany(w, workloads::CodeGen::Ppc, 1,
                              {specs.front()}, rc);
    std::vector<fs::path> traces;
    for (const auto &e : fs::directory_iterator(dir_))
        if (e.path().extension() == ".trace")
            traces.push_back(e.path());
    ASSERT_EQ(traces.size(), 1u);
    flipPayloadBit(traces.front().string(), 1);

    const std::vector<core::PredictorSpec> rest(specs.begin() + 1,
                                                specs.end());
    auto &submitted = obs::metrics().counter("taskpool.submitted");
    const auto submitted0 = submitted.value();
    const auto before = cache().stats();
    auto got = cache().predictorOnlyMany(w, workloads::CodeGen::Ppc, 1,
                                         rest, rc);
    const auto after = cache().stats();
    EXPECT_GE(submitted.value() - submitted0, 1u)
        << "the sweep handed off before reaching the corrupt block";
    EXPECT_EQ(after.traceInvalid - before.traceInvalid, 1u);
    EXPECT_EQ(after.traceReplays, before.traceReplays)
        << "a failed replay is not counted";
    ASSERT_EQ(got.size(), rest.size());
    for (std::size_t i = 0; i < rest.size(); ++i)
        EXPECT_EQ(got[i], reference[i + 1]) << "spec " << i + 1;
}

TEST_F(ShardReplay, SkipToYieldsTheTailAndKeepsTheChecksum)
{
    fs::create_directories(dir_);
    const auto prog = grepProgram();
    const std::string path = (dir_ / "grep-64.trace").string();
    const std::uint64_t records = writeTrace(path, prog, 64);

    struct Capture : trace::TraceSink
    {
        std::vector<std::uint64_t> seqs, pcs;
        void
        consume(const trace::TraceRecord &rec) override
        {
            seqs.push_back(rec.seq);
            pcs.push_back(rec.pc);
        }
    };
    Capture whole;
    trace::TraceFileReader(path, prog).replay(whole);
    ASSERT_EQ(whole.seqs.size(), records);

    // A replay after skipTo() yields exactly the tail records.
    for (std::uint64_t from : {std::uint64_t{0}, std::uint64_t{64},
                               std::uint64_t{64 * 7}, records}) {
        trace::TraceFileReader reader(path, prog);
        reader.skipTo(from);
        Capture tail;
        EXPECT_EQ(reader.replay(tail), records - from) << from;
        EXPECT_EQ(tail.seqs, std::vector<std::uint64_t>(
                                 whole.seqs.begin() + from,
                                 whole.seqs.end()))
            << from;
        EXPECT_EQ(tail.pcs, std::vector<std::uint64_t>(
                                whole.pcs.begin() + from,
                                whole.pcs.end()))
            << from;
    }

    // A skipped block is not decoded, but its payload is still
    // checked against its header's checksum.
    flipPayloadBit(path, 2);
    trace::TraceFileReader reader(path, prog);
    Capture tail;
    try {
        reader.skipTo(64 * 7);
        reader.replay(tail);
        ADD_FAILURE() << "a flipped skipped block must not replay clean";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::TraceCorrupt);
        EXPECT_NE(std::string(e.what()).find(trace::traceFileStatusName(
                      trace::TraceFileStatus::ChecksumMismatch)),
                  std::string::npos)
            << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShardReplay, GroupSharding,
    ::testing::Combine(::testing::Values(Sweep::Predictor, Sweep::Ppc620,
                                         Sweep::Alpha21164),
                       ::testing::Values(2u, 3u, 7u)),
    [](const ::testing::TestParamInfo<GroupSharding::ParamType> &p) {
        return std::string(sweepName(std::get<0>(p.param))) +
               "_shards" + std::to_string(std::get<1>(p.param));
    });

} // namespace
} // namespace lvplib
