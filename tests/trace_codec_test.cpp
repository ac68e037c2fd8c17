/**
 * @file
 * Tests for the columnar trace machinery: the shared column codecs
 * (trace/columnar.hh) under round-trip fuzz and adversarial inputs,
 * and block-structured trace files with tiny blocks. The TraceV3
 * suite keeps the name of the format that introduced the blocks; it
 * tests the current one.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "sim/pipeline_driver.hh"
#include "trace/columnar.hh"
#include "trace/trace_file.hh"
#include "trace/trace_stats.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace lvplib
{
namespace
{

using trace::decodeDeltaColumn;
using trace::decodeSparseColumn;
using trace::encodeDeltaColumn;
using trace::encodeSparseColumn;
using trace::getVarint;
using trace::putVarint;
using trace::TraceFileReader;
using trace::TraceFileStatus;
using trace::TraceFileWriter;
using trace::zigzagDecode;
using trace::zigzagEncode;

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

template <typename Fn>
void
expectSimError(Fn &&fn, ErrorKind kind, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected SimError containing '" << needle << "'";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), kind) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
    }
}

// ---- varint / zigzag ----------------------------------------------

TEST(Varint, RoundTripFuzz)
{
    std::mt19937_64 rng(0xc0dec);
    std::vector<std::uint64_t> vals = {0, 1, 127, 128, 16383, 16384,
                                       ~0ull, 1ull << 63};
    for (int i = 0; i < 2000; ++i) {
        // Skew toward small values: shift a random u64 right by a
        // random amount so every encoded length is exercised.
        vals.push_back(rng() >> (rng() % 64));
    }

    std::vector<std::uint8_t> buf;
    for (auto v : vals)
        putVarint(buf, v);

    const std::uint8_t *p = buf.data();
    const std::uint8_t *end = p + buf.size();
    for (std::size_t i = 0; i < vals.size(); ++i) {
        std::uint64_t v = 0;
        ASSERT_TRUE(getVarint(p, end, v)) << "value " << i;
        EXPECT_EQ(v, vals[i]) << "value " << i;
    }
    EXPECT_EQ(p, end) << "decode must consume every byte";
}

TEST(Varint, RejectsTruncation)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, ~0ull);
    ASSERT_EQ(buf.size(), trace::VarintMaxBytes);
    for (std::size_t keep = 0; keep < buf.size(); ++keep) {
        const std::uint8_t *p = buf.data();
        std::uint64_t v;
        EXPECT_FALSE(getVarint(p, p + keep, v))
            << keep << " byte(s) kept";
    }
}

TEST(Varint, RejectsOverlongAndOverflow)
{
    // 11 continuation bytes: longer than any legal u64 encoding.
    std::vector<std::uint8_t> overlong(11, 0x80);
    overlong.push_back(0x00);
    const std::uint8_t *p = overlong.data();
    std::uint64_t v;
    EXPECT_FALSE(getVarint(p, p + overlong.size(), v));

    // Ten bytes whose final byte spills past bit 63.
    std::vector<std::uint8_t> spill(9, 0x80);
    spill.push_back(0x02);
    p = spill.data();
    EXPECT_FALSE(getVarint(p, p + spill.size(), v));

    // The largest legal 10-byte encoding still decodes.
    std::vector<std::uint8_t> max(9, 0xff);
    max.push_back(0x01);
    p = max.data();
    ASSERT_TRUE(getVarint(p, p + max.size(), v));
    EXPECT_EQ(v, ~0ull);
}

TEST(Zigzag, RoundTripEdges)
{
    for (std::int64_t s : {std::int64_t(0), std::int64_t(-1),
                           std::int64_t(1), std::int64_t(63),
                           std::int64_t(-64),
                           std::numeric_limits<std::int64_t>::max(),
                           std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(s)), s) << s;
    }
    // Small magnitudes map to small codes (the property delta coding
    // relies on).
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
}

// ---- columns ------------------------------------------------------

TEST(DeltaColumn, RoundTripFuzzWithStride)
{
    std::mt19937_64 rng(0xde17a);
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(7), std::size_t(1000)}) {
        // A random walk with occasional wild jumps: pc-like data.
        std::vector<std::uint64_t> vals(n);
        std::uint64_t cur = 0x10000;
        for (auto &v : vals) {
            cur += (rng() % 64) * 4;
            if (rng() % 100 == 0)
                cur = rng();
            v = cur;
        }
        std::vector<std::uint8_t> enc;
        encodeDeltaColumn(vals.data(), n, enc);

        std::vector<std::uint64_t> out(n);
        ASSERT_TRUE(
            decodeDeltaColumn(enc.data(), enc.size(), out.data(), n));
        EXPECT_EQ(out, vals) << "n=" << n;

        // Stride 4: scatter into every fourth u64 slot, the
        // decode-into-struct replay path.
        constexpr std::size_t Stride = 4;
        std::vector<std::uint64_t> strided(n * Stride, 0xaa);
        ASSERT_TRUE(decodeDeltaColumn(enc.data(), enc.size(),
                                      strided.data(), n, Stride));
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(strided[i * Stride], vals[i]) << i;
            if (Stride > 1 && i * Stride + 1 < strided.size()) {
                EXPECT_EQ(strided[i * Stride + 1], 0xaau)
                    << "slot " << i << " overwrote a neighbour";
            }
        }

        // Exact-length contract: one byte short or long must fail.
        if (!enc.empty()) {
            EXPECT_FALSE(decodeDeltaColumn(enc.data(), enc.size() - 1,
                                           out.data(), n));
        }
        enc.push_back(0);
        EXPECT_FALSE(decodeDeltaColumn(enc.data(), enc.size(),
                                       out.data(), n));
    }
}

TEST(SparseColumn, RoundTripFuzz)
{
    std::mt19937_64 rng(0x5bab5e);
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(8), std::size_t(9),
                          std::size_t(1000)}) {
        // ~70% zeros with locality in the nonzero run: value-like
        // data (most records carry no value).
        std::vector<std::uint64_t> vals(n);
        std::uint64_t cur = 0x8000;
        for (auto &v : vals) {
            if (rng() % 10 < 7) {
                v = 0;
            } else {
                cur += rng() % 256;
                v = cur;
            }
        }
        std::vector<std::uint8_t> enc;
        encodeSparseColumn(vals.data(), n, enc);

        std::vector<std::uint64_t> out(n, 0xbb);
        ASSERT_TRUE(
            decodeSparseColumn(enc.data(), enc.size(), out.data(), n));
        EXPECT_EQ(out, vals) << "n=" << n;

        if (!enc.empty()) {
            EXPECT_FALSE(decodeSparseColumn(enc.data(), enc.size() - 1,
                                            out.data(), n));
        }
        enc.push_back(0);
        EXPECT_FALSE(decodeSparseColumn(enc.data(), enc.size(),
                                        out.data(), n));
    }
}

TEST(SparseColumn, RejectsPresentZero)
{
    // Presence bit set but the delta decodes the value back to zero:
    // an encoding our encoder never emits, so strict decode rejects
    // it (a zero must cost one clear bit, not a varint).
    std::vector<std::uint8_t> enc = {0x01 /* bitmap: bit 0 set */,
                                     0x00 /* zigzag(0): delta 0 */};
    std::uint64_t out = 0;
    EXPECT_FALSE(decodeSparseColumn(enc.data(), enc.size(), &out, 1));
}

TEST(SparseColumn, RejectsTruncatedBitmap)
{
    // 9 values need 2 bitmap bytes; provide only 1 (all-zero values
    // so no varints follow).
    std::vector<std::uint8_t> enc = {0x00};
    std::vector<std::uint64_t> out(9);
    EXPECT_FALSE(decodeSparseColumn(enc.data(), enc.size(), out.data(),
                                    out.size()));
}

TEST(PackedFlags, BitsRoundTrip)
{
    std::mt19937_64 rng(0xb175);
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(8), std::size_t(77)}) {
        std::vector<std::uint8_t> bits(n);
        for (std::size_t i = 0; i < n; ++i)
            bits[i] = rng() % 2;
        std::vector<std::uint8_t> pb;
        trace::packBits(bits.data(), n, pb);
        EXPECT_EQ(pb.size(), (n + 7) / 8);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(trace::unpackBit(pb.data(), i), bits[i] != 0)
                << i;
    }
}

// ---- checksums ------------------------------------------------------

TEST(Fnv, PairEqualsTwoSingleChains)
{
    // The reader and verifier advance a block's payload checksum and
    // the running file checksum in one interleaved pass; each chain
    // must equal its own serial fnv1a exactly, whatever the length and
    // seeds.
    std::mt19937_64 rng(0xf17a);
    std::vector<std::uint8_t> buf;
    for (int iter = 0; iter < 300; ++iter) {
        const std::size_t n =
            iter < 9 ? static_cast<std::size_t>(iter) : rng() % 4097;
        buf.resize(n);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng());
        const std::uint64_t seedA = iter % 3 == 0 ? trace::FnvOffset : rng();
        const std::uint64_t seedB = rng();
        const auto [a, b] = trace::fnv1aPair(buf.data(), n, seedA, seedB);
        EXPECT_EQ(a, trace::fnv1a(buf.data(), n, seedA)) << "n " << n;
        EXPECT_EQ(b, trace::fnv1a(buf.data(), n, seedB)) << "n " << n;
    }
}

// ---- trace files with tiny blocks ---------------------------------

/** Writer options forcing many small blocks. */
trace::TraceWriterOptions
tinyBlocks(std::uint32_t blockRecords = 64)
{
    trace::TraceWriterOptions opts;
    opts.blockRecords = blockRecords;
    return opts;
}

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

TEST(TraceV3, TinyBlockFileRoundTripsAndCompresses)
{
    TempPath tmp("lvplib_v3_tiny.trace");
    auto prog = demoProgram();
    std::uint64_t fp = trace::programFingerprint(prog);
    std::uint64_t n = writeDemoTrace(tmp.path, prog, fp, tinyBlocks());
    ASSERT_GT(n, 1000u) << "need enough records for many blocks";

    auto rep = trace::verifyTraceFile(tmp.path, fp);
    ASSERT_TRUE(rep.ok()) << rep.detail;
    EXPECT_EQ(rep.version, trace::TraceFormatVersion);
    EXPECT_EQ(rep.records, n);
    EXPECT_GT(rep.compressionRatio(), 3.0)
        << rep.fileBytes << " bytes for " << n << " records";

    auto live = sim::runFunctional(prog);
    trace::TraceStats replayed;
    TraceFileReader reader(tmp.path, prog, fp);
    EXPECT_EQ(reader.replay(replayed), n);
    EXPECT_EQ(replayed.instructions(), live.stats.instructions());
    EXPECT_EQ(replayed.loads(), live.stats.loads());
    EXPECT_EQ(replayed.stores(), live.stats.stores());
    EXPECT_EQ(replayed.takenBranches(), live.stats.takenBranches());
}

TEST(TraceV3, FlippedCompressedByteDetected)
{
    TempPath tmp("lvplib_v3_flip.trace");
    auto prog = demoProgram();
    writeDemoTrace(tmp.path, prog, 7, tinyBlocks());

    // Flip one bit in the middle of the file: inside some block's
    // compressed payload, caught by that block's checksum.
    {
        std::fstream f(tmp.path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(0, std::ios::end);
        auto size = static_cast<std::uint64_t>(f.tellg());
        f.seekp(static_cast<std::streamoff>(size / 2));
        char b;
        f.seekg(static_cast<std::streamoff>(size / 2));
        f.read(&b, 1);
        b ^= 0x10;
        f.seekp(static_cast<std::streamoff>(size / 2));
        f.write(&b, 1);
    }

    auto rep = trace::verifyTraceFile(tmp.path);
    EXPECT_TRUE(rep.status == TraceFileStatus::ChecksumMismatch ||
                rep.status == TraceFileStatus::BadBlock)
        << trace::traceFileStatusName(rep.status);
    expectSimError(
        [&] {
            TraceFileReader r(tmp.path, prog);
            trace::TraceStats sink;
            r.replay(sink);
        },
        ErrorKind::TraceCorrupt, "at block");
}

TEST(TraceV3, TruncationDetected)
{
    TempPath tmp("lvplib_v3_trunc.trace");
    auto prog = demoProgram();
    writeDemoTrace(tmp.path, prog, 7, tinyBlocks());

    auto size = std::filesystem::file_size(tmp.path);
    std::filesystem::resize_file(tmp.path, size - 13);

    auto rep = trace::verifyTraceFile(tmp.path);
    EXPECT_FALSE(rep.ok());
    expectSimError([&] { TraceFileReader r(tmp.path, prog); },
                   ErrorKind::TraceCorrupt, "invalid trace file");
}

} // namespace
} // namespace lvplib
