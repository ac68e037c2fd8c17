/**
 * @file
 * Tests for binary trace serialization (the phase-1 half of the
 * paper's decoupled flow): round-trips, replay equivalence against
 * live simulation, and detection of every kind of corruption.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lvp_unit.hh"
#include "sim/pipeline_driver.hh"
#include "trace/trace_dir.hh"
#include "trace/trace_file.hh"
#include "trace/trace_stats.hh"
#include "uarch/machine_config.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace lvplib
{
namespace
{

using trace::TraceFileReader;
using trace::TraceFileWriter;

/** Temp-file path helper (removed on destruction). */
struct TempPath
{
    std::string path;
    explicit TempPath(const char *name)
        : path(std::string(::testing::TempDir()) + name)
    {}
    ~TempPath() { std::remove(path.c_str()); }
};

/** Keeps every record it is fed. */
struct RecordSink : trace::TraceSink
{
    std::vector<trace::TraceRecord> recs;
    void
    consume(const trace::TraceRecord &r) override
    {
        recs.push_back(r);
    }
};

isa::Program
demoProgram()
{
    return workloads::findWorkload("grep").build(workloads::CodeGen::Ppc,
                                                 1);
}

/** Run @p fn and require a SimError of @p kind whose message contains
 *  @p needle. */
template <typename Fn>
void
expectSimError(Fn &&fn, ErrorKind kind, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected SimError(" << errorKindName(kind) << ")";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), kind) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceFile, RoundTripPreservesEveryRecord)
{
    TempPath tmp("lvplib_trace_rt.bin");
    auto prog = demoProgram();

    // Write the trace while also collecting live stats.
    trace::TraceStats live;
    {
        TraceFileWriter writer(tmp.path);
        trace::MultiSink both({&writer, &live});
        vm::Interpreter interp(prog);
        interp.run(&both);
    }

    // Replay and compare against the live run record-by-record.
    RecordSink replayed;
    TraceFileReader(tmp.path, prog).replay(replayed);
    vm::Interpreter interp(prog);
    RecordSink stepped;
    for (const trace::TraceRecord &from_file : replayed.recs) {
        interp.step(&stepped);
        const trace::TraceRecord &live_rec = stepped.recs.back();
        const std::size_t n = stepped.recs.size() - 1;
        ASSERT_EQ(from_file.pc, live_rec.pc) << "record " << n;
        ASSERT_EQ(from_file.value, live_rec.value) << "record " << n;
        ASSERT_EQ(from_file.taken, live_rec.taken) << "record " << n;
        ASSERT_EQ(from_file.nextPc, live_rec.nextPc) << "record " << n;
        ASSERT_EQ(from_file.inst, live_rec.inst) << "record " << n;
        if (live_rec.inst->memRef()) {
            ASSERT_EQ(from_file.effAddr, live_rec.effAddr)
                << "record " << n;
        }
    }
    EXPECT_EQ(replayed.recs.size(), live.instructions());
    EXPECT_TRUE(interp.halted());
}

TEST(TraceFile, ReplayIntoStatsMatchesLive)
{
    TempPath tmp("lvplib_trace_replay.bin");
    auto prog = demoProgram();
    {
        TraceFileWriter writer(tmp.path);
        vm::Interpreter interp(prog);
        interp.run(&writer);
    }
    auto live = sim::runFunctional(prog);
    trace::TraceStats replayed;
    TraceFileReader reader(tmp.path, prog);
    auto n = reader.replay(replayed);
    EXPECT_EQ(n, live.stats.instructions());
    EXPECT_EQ(replayed.loads(), live.stats.loads());
    EXPECT_EQ(replayed.stores(), live.stats.stores());
    EXPECT_EQ(replayed.takenBranches(), live.stats.takenBranches());
}

// ---- self-describing format: corruption detection -----------------

using trace::TraceFileStatus;
using trace::TraceHeaderBytes;
using trace::verifyTraceFile;

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path,
         const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** Interpret demoProgram() into @p path; returns records written. */
std::uint64_t
writeDemoTrace(const std::string &path, const isa::Program &prog,
               std::uint64_t fingerprint,
               const trace::TraceWriterOptions &opts = {})
{
    TraceFileWriter writer(path, fingerprint, opts);
    vm::Interpreter interp(prog);
    interp.run(&writer);
    EXPECT_TRUE(writer.close()) << writer.error();
    return writer.recordsWritten();
}

TEST(TraceFile, StoresNoPrediction)
{
    // A trace records what the program did. A writer behind a
    // predictor annotator writes the same bytes as one the interpreter
    // feeds directly, and every replayed record carries None.
    TempPath plain("lvplib_trace_plain.trace");
    TempPath stamped("lvplib_trace_stamped.trace");
    auto prog = demoProgram();
    writeDemoTrace(plain.path, prog, 0);
    {
        TraceFileWriter writer(stamped.path);
        core::LvpAnnotator annot(core::LvpConfig::simple(), writer);
        vm::Interpreter interp(prog);
        interp.run(&annot);
        EXPECT_GT(annot.unit().stats().correct, 0u);
        EXPECT_TRUE(writer.close()) << writer.error();
    }
    EXPECT_EQ(readAll(plain.path), readAll(stamped.path));

    RecordSink replayed;
    TraceFileReader(stamped.path, prog).replay(replayed);
    for (const trace::TraceRecord &rec : replayed.recs)
        ASSERT_EQ(rec.pred, trace::PredState::None) << rec.seq;
}

TEST(TraceIntegrity, WriterEmitsValidSelfDescribingEnvelope)
{
    TempPath tmp("lvplib_trace_envelope.trace");
    auto prog = demoProgram();
    std::uint64_t fp = trace::programFingerprint(prog);
    std::uint64_t n = writeDemoTrace(tmp.path, prog, fp);
    ASSERT_GT(n, 0u);

    auto rep = verifyTraceFile(tmp.path, fp);
    EXPECT_TRUE(rep.ok()) << trace::traceFileStatusName(rep.status)
                          << ": " << rep.detail;
    EXPECT_EQ(rep.records, n);
    EXPECT_EQ(rep.fingerprint, fp);

    TraceFileReader reader(tmp.path, prog, fp);
    EXPECT_EQ(reader.records(), n);
    EXPECT_EQ(reader.fingerprint(), fp);
    trace::TraceStats stats;
    EXPECT_EQ(reader.replay(stats), n);
}

TEST(TraceIntegrity, TruncationDetected)
{
    TempPath tmp("lvplib_trace_trunc.trace");
    auto prog = demoProgram();
    writeDemoTrace(tmp.path, prog, 7);

    auto bytes = readAll(tmp.path);
    // Chop off the last 13 bytes: the footer magic is destroyed,
    // exactly what an interrupted writer leaves behind.
    bytes.resize(bytes.size() - 13);
    writeAll(tmp.path, bytes);

    auto rep = verifyTraceFile(tmp.path);
    EXPECT_EQ(rep.status, TraceFileStatus::BadFooter);
    expectSimError([&] { TraceFileReader r(tmp.path, prog); },
                   ErrorKind::TraceCorrupt, "bad-footer");
}

TEST(TraceIntegrity, FlippedPayloadByteDetected)
{
    TempPath tmp("lvplib_trace_flip.trace");
    auto prog = demoProgram();
    writeDemoTrace(tmp.path, prog, 7);

    auto bytes = readAll(tmp.path);
    // Flip one bit in record 0's value field.
    bytes[TraceHeaderBytes + 16] ^= 0x01;
    writeAll(tmp.path, bytes);

    auto rep = verifyTraceFile(tmp.path);
    EXPECT_EQ(rep.status, TraceFileStatus::ChecksumMismatch);
}

TEST(TraceIntegrity, WrongVersionDetected)
{
    TempPath tmp("lvplib_trace_ver.trace");
    auto prog = demoProgram();
    // The retired row-major v2, the retired v3 with its pred column,
    // the retired FNV-1a-checksummed v4 and a future format alike:
    // intact files this build cannot read.
    for (std::uint32_t version :
         {2u, 3u, 4u, trace::TraceFormatVersion + 1}) {
        writeDemoTrace(tmp.path, prog, 7);
        auto bytes = readAll(tmp.path);
        bytes[8] = static_cast<std::uint8_t>(version); // version field
        writeAll(tmp.path, bytes);

        auto rep = verifyTraceFile(tmp.path);
        EXPECT_EQ(rep.status, TraceFileStatus::BadVersion) << version;
        EXPECT_EQ(rep.version, version);
        expectSimError([&] { TraceFileReader r(tmp.path, prog); },
                       ErrorKind::TraceCorrupt, "bad-version");
    }
}

TEST(TraceIntegrity, HeaderlessLegacyFileRejected)
{
    TempPath tmp("lvplib_trace_legacy.trace");
    // A v1-era file: raw records, no header. 52 bytes of zeros is
    // two "records" worth.
    writeAll(tmp.path, std::vector<std::uint8_t>(52, 0));
    auto rep = verifyTraceFile(tmp.path);
    EXPECT_EQ(rep.status, TraceFileStatus::BadMagic);
}

TEST(TraceIntegrity, StaleFingerprintDetected)
{
    TempPath tmp("lvplib_trace_fp.trace");
    auto prog = demoProgram();
    writeDemoTrace(tmp.path, prog, 0x1234);

    EXPECT_TRUE(verifyTraceFile(tmp.path, 0x1234u).ok());
    auto rep = verifyTraceFile(tmp.path, 0x9999u);
    EXPECT_EQ(rep.status, TraceFileStatus::BadFingerprint);
    expectSimError([&] { TraceFileReader r(tmp.path, prog, 0x9999u); },
                   ErrorKind::TraceCorrupt, "stale-fingerprint");
}

TEST(TraceIntegrity, ProgramFingerprintStableAndSensitive)
{
    auto a1 = trace::programFingerprint(demoProgram());
    auto a2 = trace::programFingerprint(demoProgram());
    EXPECT_EQ(a1, a2) << "same build must fingerprint identically";

    auto other = workloads::findWorkload("grep").build(
        workloads::CodeGen::Ppc, 2);
    EXPECT_NE(a1, trace::programFingerprint(other))
        << "a different scale changes the program";

    auto alpha = workloads::findWorkload("grep").build(
        workloads::CodeGen::Alpha, 1);
    EXPECT_NE(a1, trace::programFingerprint(alpha))
        << "a different codegen changes the program";

    EXPECT_NE(trace::mixFingerprint(a1, "k1"),
              trace::mixFingerprint(a1, "k2"));
}

TEST(TraceIntegrity, ConcurrentWritersToUniqueTempsLastRenameWins)
{
    // Two "processes" racing on one cache entry: each writes its own
    // unique temp file and renames onto the shared final path. POSIX
    // rename is atomic, so whichever lands last must leave a fully
    // valid trace — never an interleaving of the two writers.
    TempPath final_path("lvplib_trace_race.trace");
    auto prog = demoProgram();
    std::uint64_t fp = trace::programFingerprint(prog);
    std::uint64_t expect = 0;
    {
        TempPath probe("lvplib_trace_race_probe.trace");
        expect = writeDemoTrace(probe.path, prog, fp);
    }

    auto worker = [&](int id) {
        std::string tmp =
            final_path.path + ".tmp.t" + std::to_string(id);
        writeDemoTrace(tmp, prog, fp);
        ASSERT_EQ(std::rename(tmp.c_str(), final_path.path.c_str()),
                  0);
    };
    std::thread t1(worker, 1), t2(worker, 2);
    t1.join();
    t2.join();

    auto rep = verifyTraceFile(final_path.path, fp);
    EXPECT_TRUE(rep.ok()) << trace::traceFileStatusName(rep.status);
    EXPECT_EQ(rep.records, expect);
}

TEST(TraceIntegrity, WriteFailuresAreLatchedNotSilent)
{
    // Unwritable path: the writer must report it, not fake success.
    {
        TraceFileWriter writer(
            "/nonexistent-lvplib-dir/x.trace", 1);
        EXPECT_FALSE(writer.good());
        EXPECT_FALSE(writer.close());
        EXPECT_FALSE(writer.error().empty());
    }
    // A full device (Linux /dev/full): opens fine, every flush fails
    // with ENOSPC — exactly the truncated-publish bug this guards.
    if (std::FILE *probe = std::fopen("/dev/full", "wb")) {
        std::fclose(probe);
        auto prog = demoProgram();
        TraceFileWriter writer("/dev/full", 1);
        vm::Interpreter interp(prog);
        interp.run(&writer, 2000);
        writer.finish();
        EXPECT_FALSE(writer.close())
            << "ENOSPC must fail the write path";
    }
}

TEST(TraceDirScan, PruneIsAgeGatedSoLiveWritersSurvive)
{
    namespace fs = std::filesystem;
    fs::path dir =
        fs::path(::testing::TempDir()) / "lvplib_trace_dir_scan";
    fs::remove_all(dir);
    fs::create_directories(dir);

    auto prog = demoProgram();
    writeDemoTrace((dir / "good.trace").string(), prog, 7);

    // A temp file from a writer that is still running (fresh mtime)
    // and one from a writer that died an hour ago.
    fs::path fresh = dir / "good.trace.tmp.1111.1";
    fs::path stale = dir / "dead.trace.tmp.2222.9";
    std::ofstream(fresh) << "partial";
    std::ofstream(stale) << "partial";
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(1));

    auto scan = trace::scanTraceDir(dir.string(), /*prune=*/true);
    ASSERT_TRUE(scan.ok) << scan.error;
    ASSERT_EQ(scan.traces.size(), 1u);
    EXPECT_TRUE(scan.traces[0].report.ok());
    ASSERT_EQ(scan.temps.size(), 2u);
    EXPECT_EQ(scan.prunedCount, 1u);

    EXPECT_TRUE(fs::exists(fresh))
        << "a fresh temp may belong to a live concurrent writer";
    EXPECT_FALSE(fs::exists(stale))
        << "an hour-old temp is an abandoned write";

    // Without --prune nothing is ever deleted, however old.
    fs::last_write_time(fresh, fs::file_time_type::clock::now() -
                                   std::chrono::hours(2));
    scan = trace::scanTraceDir(dir.string(), /*prune=*/false);
    EXPECT_EQ(scan.prunedCount, 0u);
    EXPECT_TRUE(fs::exists(fresh));
    fs::remove_all(dir);
}

} // namespace
} // namespace lvplib
