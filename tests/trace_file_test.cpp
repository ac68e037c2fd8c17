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
        trace::TeeSink tee(writer, live);
        vm::Interpreter interp(prog);
        interp.run(&tee);
    }

    // Replay and compare against the live run record-by-record.
    vm::Interpreter interp(prog);
    TraceFileReader reader(tmp.path, prog);
    trace::TraceRecord from_file;
    std::uint64_t n = 0;
    bool more = true;
    while (more) {
        more = reader.next(from_file);
        if (!more)
            break;
        trace::TraceRecord live_rec;
        class Capture : public trace::TraceSink
        {
          public:
            void
            consume(const trace::TraceRecord &r) override
            {
                rec = r;
            }
            trace::TraceRecord rec;
        } cap;
        interp.step(&cap);
        ASSERT_EQ(from_file.pc, cap.rec.pc) << "record " << n;
        ASSERT_EQ(from_file.value, cap.rec.value) << "record " << n;
        ASSERT_EQ(from_file.taken, cap.rec.taken) << "record " << n;
        ASSERT_EQ(from_file.nextPc, cap.rec.nextPc) << "record " << n;
        ASSERT_EQ(from_file.inst, cap.rec.inst) << "record " << n;
        if (cap.rec.inst->memRef()) {
            ASSERT_EQ(from_file.effAddr, cap.rec.effAddr)
                << "record " << n;
        }
        ++n;
    }
    EXPECT_EQ(n, live.instructions());
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
using trace::TraceRecordBytes;
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

/** Writer options pinning the legacy row-major v2 format. */
trace::TraceWriterOptions
v2Opts()
{
    trace::TraceWriterOptions opts;
    opts.version = trace::TraceFormatVersionV2;
    return opts;
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

TEST(TraceIntegrity, PartialTrailingRecordDetected)
{
    TempPath tmp("lvplib_trace_partial.trace");
    auto prog = demoProgram();
    // Fixed-size records are a v2 notion; v3 files are covered by the
    // block-structure checks in trace_codec_test.cpp.
    writeDemoTrace(tmp.path, prog, 7, v2Opts());

    // Insert 13 garbage bytes between the payload and the footer:
    // 13 trailing bytes that belong to no whole record.
    auto bytes = readAll(tmp.path);
    std::vector<std::uint8_t> garbage(13, 0xAB);
    bytes.insert(bytes.end() - trace::TraceFooterBytes,
                 garbage.begin(), garbage.end());
    writeAll(tmp.path, bytes);

    auto rep = verifyTraceFile(tmp.path);
    EXPECT_EQ(rep.status, TraceFileStatus::PartialRecord);
    EXPECT_NE(rep.detail.find("13 trailing bytes"),
              std::string::npos)
        << rep.detail;
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

TEST(TraceIntegrity, OutOfRangeEnumBytesDetected)
{
    TempPath tmp("lvplib_trace_enum.trace");
    auto prog = demoProgram();
    // Per-record enum bytes only exist in v2; v3 bit-packs them (every
    // decoded value is legal) and relies on per-block checksums.
    writeDemoTrace(tmp.path, prog, 7, v2Opts());

    // pred byte of record 0 -> not a PredState.
    auto bytes = readAll(tmp.path);
    bytes[TraceHeaderBytes + 25] = 0x7F;
    writeAll(tmp.path, bytes);
    auto rep = verifyTraceFile(tmp.path);
    EXPECT_EQ(rep.status, TraceFileStatus::BadRecord);
    expectSimError(
        [&] {
            TraceFileReader r(tmp.path, prog);
            trace::TraceRecord rec;
            r.next(rec);
        },
        ErrorKind::TraceCorrupt, "bad-record");

    // taken byte of record 0 -> not a bool.
    bytes = readAll(tmp.path);
    bytes[TraceHeaderBytes + 25] = 0; // restore pred
    bytes[TraceHeaderBytes + 24] = 2;
    writeAll(tmp.path, bytes);
    rep = verifyTraceFile(tmp.path);
    EXPECT_EQ(rep.status, TraceFileStatus::BadRecord);
}

TEST(TraceIntegrity, WrongVersionDetected)
{
    TempPath tmp("lvplib_trace_ver.trace");
    auto prog = demoProgram();
    writeDemoTrace(tmp.path, prog, 7);

    auto bytes = readAll(tmp.path);
    bytes[8] = static_cast<std::uint8_t>(trace::TraceFormatVersion +
                                         1); // version field
    writeAll(tmp.path, bytes);

    auto rep = verifyTraceFile(tmp.path);
    EXPECT_EQ(rep.status, TraceFileStatus::BadVersion);
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
