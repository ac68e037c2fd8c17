/**
 * @file
 * Byte-identity tests for the batched replay data path: a sink fed
 * through consumeBatch() must observe exactly the record stream the
 * record-at-a-time path delivers — across batch boundaries, through
 * TeeSink/MultiSink fan-out, under chaos read-flips, and from
 * concurrent fan-out sweeps (the TSan target for the shared-pass
 * run-cache machinery).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hh"
#include "core/config.hh"
#include "sim/run_cache.hh"
#include "trace/trace.hh"
#include "trace/trace_file.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace lvplib
{
namespace
{

using trace::MultiSink;
using trace::TeeSink;
using trace::TraceFileReader;
using trace::TraceFileWriter;
using trace::TraceRecord;
using trace::TraceSink;

/** Temp-file path helper (removed on destruction). */
struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {}
    ~TempPath() { std::remove(path.c_str()); }
};

isa::Program
demoProgram()
{
    return workloads::findWorkload("grep").build(workloads::CodeGen::Ppc,
                                                 1);
}

/** Records every field of every record it sees; never overrides
 *  consumeBatch(), so a batched producer exercises the default
 *  span-to-consume fallback. */
class CaptureSink : public TraceSink
{
  public:
    void
    consume(const TraceRecord &rec) override
    {
        recs.push_back(rec);
    }
    bool finished = false;
    void finish() override { finished = true; }
    std::vector<TraceRecord> recs;
};

/** Same capture, but through consumeBatch() only — records batch
 *  sizes so tests can prove batching actually happened. */
class BatchCaptureSink : public TraceSink
{
  public:
    void
    consume(const TraceRecord &rec) override
    {
        batchSizes.push_back(1);
        recs.push_back(rec);
    }
    void
    consumeBatch(std::span<const TraceRecord> batch) override
    {
        batchSizes.push_back(batch.size());
        recs.insert(recs.end(), batch.begin(), batch.end());
    }
    std::vector<TraceRecord> recs;
    std::vector<std::size_t> batchSizes;
};

void
expectSameStream(const std::vector<TraceRecord> &a,
                 const std::vector<TraceRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].seq, b[i].seq) << "record " << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << "record " << i;
        ASSERT_EQ(a[i].inst, b[i].inst) << "record " << i;
        ASSERT_EQ(a[i].effAddr, b[i].effAddr) << "record " << i;
        ASSERT_EQ(a[i].value, b[i].value) << "record " << i;
        ASSERT_EQ(a[i].destValue, b[i].destValue) << "record " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "record " << i;
        ASSERT_EQ(a[i].nextPc, b[i].nextPc) << "record " << i;
        ASSERT_EQ(a[i].pred, b[i].pred) << "record " << i;
    }
}

/** Write the first @p limit records (0 = whole run) of the demo
 *  program to @p path; returns the count written. */
std::uint64_t
writeTrace(const std::string &path, const isa::Program &prog,
           std::uint64_t limit = 0)
{
    TraceFileWriter writer(path);
    vm::Interpreter interp(prog);
    interp.run(&writer,
               limit ? limit
                     : std::numeric_limits<std::uint64_t>::max());
    writer.finish();
    EXPECT_TRUE(writer.close()) << writer.error();
    return writer.recordsWritten();
}

TEST(BatchReplay, BatchedReplayIdenticalToRecordAtATime)
{
    TempPath tmp("lvplib_batch_ident.trace");
    auto prog = demoProgram();
    std::uint64_t n = writeTrace(tmp.path, prog);
    ASSERT_GT(n, 0u);

    // Record-at-a-time: drain via next().
    std::vector<TraceRecord> one_at_a_time;
    {
        TraceFileReader reader(tmp.path, prog);
        TraceRecord rec;
        while (reader.next(rec))
            one_at_a_time.push_back(rec);
    }
    ASSERT_EQ(one_at_a_time.size(), n);

    // Batched: replay() into a span-consuming sink.
    BatchCaptureSink batched;
    {
        TraceFileReader reader(tmp.path, prog);
        EXPECT_EQ(reader.replay(batched), n);
    }
    bool multi_record_batch = false;
    for (std::size_t s : batched.batchSizes)
        multi_record_batch |= s > 1;
    EXPECT_TRUE(multi_record_batch)
        << "replay() must actually hand out multi-record spans";

    // Batched through the default consume() fallback.
    CaptureSink fallback;
    {
        TraceFileReader reader(tmp.path, prog);
        EXPECT_EQ(reader.replay(fallback), n);
    }
    EXPECT_TRUE(fallback.finished);

    expectSameStream(one_at_a_time, batched.recs);
    expectSameStream(one_at_a_time, fallback.recs);
}

TEST(BatchReplay, BatchBoundaryStraddlingTracesIdentical)
{
    // Counts chosen around the replay batch size (4096 records) and
    // the reader's block buffer: one short, one exact multiple, one
    // straddling, and one spanning several batches with a tail.
    const std::uint64_t counts[] = {1, 4095, 4096, 4097, 9000};
    auto prog = demoProgram();
    for (std::uint64_t want : counts) {
        TempPath tmp("lvplib_batch_straddle.trace");
        std::uint64_t n = writeTrace(tmp.path, prog, want);
        ASSERT_EQ(n, want) << "demo program too short for this test";

        std::vector<TraceRecord> serial;
        {
            TraceFileReader reader(tmp.path, prog);
            TraceRecord rec;
            while (reader.next(rec))
                serial.push_back(rec);
        }
        BatchCaptureSink batched;
        {
            TraceFileReader reader(tmp.path, prog);
            EXPECT_EQ(reader.replay(batched), want);
        }
        ASSERT_EQ(serial.size(), want);
        expectSameStream(serial, batched.recs);
    }
}

TEST(BatchReplay, TeeAndMultiSinkFanOutMatchPrivateReplays)
{
    TempPath tmp("lvplib_batch_fanout.trace");
    auto prog = demoProgram();
    std::uint64_t n = writeTrace(tmp.path, prog);

    // Reference: each sink gets its own private replay.
    const int fanout = 4;
    std::vector<BatchCaptureSink> priv(fanout);
    for (auto &s : priv) {
        TraceFileReader reader(tmp.path, prog);
        EXPECT_EQ(reader.replay(s), n);
    }

    // One pass through a MultiSink must feed every downstream the
    // exact same stream.
    std::vector<BatchCaptureSink> shared(fanout);
    {
        std::vector<TraceSink *> sinks;
        for (auto &s : shared)
            sinks.push_back(&s);
        MultiSink multi(std::move(sinks));
        TraceFileReader reader(tmp.path, prog);
        EXPECT_EQ(reader.replay(multi), n);
    }
    for (int i = 0; i < fanout; ++i)
        expectSameStream(priv[i].recs, shared[i].recs);

    // TeeSink: same property for the two-way special case, including
    // a mixed pair (one batch-aware sink, one consume()-only sink).
    BatchCaptureSink left;
    CaptureSink right;
    {
        TeeSink tee(left, right);
        TraceFileReader reader(tmp.path, prog);
        EXPECT_EQ(reader.replay(tee), n);
    }
    expectSameStream(priv[0].recs, left.recs);
    expectSameStream(priv[0].recs, right.recs);
    EXPECT_TRUE(right.finished);
}

TEST(BatchReplay, ChaosReadFlipIdenticalUnderBatching)
{
    TempPath tmp("lvplib_batch_chaos.trace");
    auto prog = demoProgram();
    std::uint64_t n = writeTrace(tmp.path, prog);
    ASSERT_GT(n, 0u);

    // Replay under an armed read-flip stream and capture what the
    // sink saw plus how the replay ended. Flips are keyed on
    // (fingerprint, seq), so re-arming with the same seed corrupts
    // the same records regardless of batching.
    auto &ce = chaos::engine();
    auto flippedReplay = [&](TraceSink &sink, std::string &error) {
        ce.arm({17, chaos::pointBit(chaos::Point::TraceReadFlip), 64});
        std::uint64_t got = 0;
        try {
            TraceFileReader reader(tmp.path, prog);
            got = reader.replay(sink);
        } catch (const SimError &e) {
            error = e.what();
        }
        ce.disarm();
        return got;
    };

    CaptureSink serial;
    std::string serialError;
    std::uint64_t serialGot = flippedReplay(serial, serialError);
    EXPECT_GT(ce.injected(chaos::Point::TraceReadFlip), 0u)
        << "the flip stream must actually fire at this period";

    BatchCaptureSink batched;
    std::string batchedError;
    std::uint64_t batchedGot = flippedReplay(batched, batchedError);

    // Same records delivered (flipped values included), same
    // diagnostic, same count: batching changes nothing observable.
    EXPECT_EQ(serialError, batchedError);
    EXPECT_EQ(serialGot, batchedGot);
    expectSameStream(serial.recs, batched.recs);
}

TEST(BatchReplay, ParallelFanOutSweepsAreRaceFree)
{
    // The TSan target: concurrent *Many() sweeps with overlapping
    // variants share one claim pass, one MultiSink replay, and the
    // promise-settling machinery. Results must equal the singular
    // calls however the threads interleave.
    namespace fs = std::filesystem;
    auto &cache = sim::RunCache::instance();
    const std::string saved = cache.traceDir();
    fs::path dir = fs::path(::testing::TempDir()) /
                   "lvplib_batch_parallel_fanout";
    fs::remove_all(dir);
    fs::create_directories(dir);
    cache.clear();
    cache.setTraceDir(dir.string());

    const auto &w = workloads::findWorkload("grep");
    sim::RunConfig rc;
    const std::vector<core::LvpConfig> sweepA = {
        core::LvpConfig::simple(), core::LvpConfig::limit()};
    const std::vector<core::LvpConfig> sweepB = {
        core::LvpConfig::simple(), core::LvpConfig::constant()};
    auto specs = [](const std::vector<core::LvpConfig> &cfgs) {
        return std::vector<core::PredictorSpec>(cfgs.begin(), cfgs.end());
    };

    std::vector<core::LvpStats> gotA, gotB;
    {
        std::thread ta([&] {
            gotA = cache.predictorOnlyMany(w, workloads::CodeGen::Ppc,
                                           1, specs(sweepA), rc);
        });
        std::thread tb([&] {
            gotB = cache.predictorOnlyMany(w, workloads::CodeGen::Ppc,
                                           1, specs(sweepB), rc);
        });
        ta.join();
        tb.join();
    }

    ASSERT_EQ(gotA.size(), 2u);
    ASSERT_EQ(gotB.size(), 2u);
    auto expectSame = [](const core::LvpStats &x,
                         const core::LvpStats &y) {
        EXPECT_EQ(x.loads, y.loads);
        EXPECT_EQ(x.correct, y.correct);
        EXPECT_EQ(x.incorrect, y.incorrect);
        EXPECT_EQ(x.constants, y.constants);
    };
    for (std::size_t c = 0; c < 2; ++c) {
        expectSame(gotA[c], cache.lvpOnly(w, workloads::CodeGen::Ppc, 1,
                                          sweepA[c], rc));
        expectSame(gotB[c], cache.lvpOnly(w, workloads::CodeGen::Ppc, 1,
                                          sweepB[c], rc));
    }
    // Both sweeps agree on the variant they share.
    expectSame(gotA[0], gotB[0]);

    cache.clear();
    cache.setTraceDir(saved);
    fs::remove_all(dir);
}

} // namespace
} // namespace lvplib
