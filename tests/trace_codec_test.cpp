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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
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

TEST(Hash64, MatchesXxHash64ReferenceVectors)
{
    // hash64 is xxHash64: published digests of the reference
    // implementation (seed 0) pin the stripe loop, the 8/4/1-byte
    // tails and the avalanche.
    const struct
    {
        const char *text;
        std::uint64_t digest;
    } vectors[] = {
        {"", 0xef46db3751d8e999ull},
        {"a", 0xd24ec4f1a98c6e5bull},
        {"abc", 0x44bc2cf5ad770999ull},
        {"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1ull},
    };
    for (const auto &v : vectors)
        EXPECT_EQ(trace::hash64(v.text, std::strlen(v.text)), v.digest)
            << '"' << v.text << '"';
}

TEST(Hash64, EveryByteAndTheSeedMatter)
{
    // Whatever the length, the last byte lands in a stripe or in the
    // 8-, 4- or 1-byte tail, and changing it changes the digest; so
    // does another seed.
    std::mt19937_64 rng(0x4a54);
    std::vector<std::uint8_t> buf(100);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng());
    for (std::size_t n = 1; n <= buf.size(); ++n) {
        const std::uint64_t h = trace::hash64(buf.data(), n);
        EXPECT_NE(trace::hash64(buf.data(), n, 1), h) << n;
        buf[n - 1] ^= 0x80;
        EXPECT_NE(trace::hash64(buf.data(), n), h) << n;
        buf[n - 1] ^= 0x80;
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
               const trace::TraceWriterOptions &opts = {},
               std::uint64_t maxRecords =
                   std::numeric_limits<std::uint64_t>::max())
{
    TraceFileWriter writer(path, fingerprint, opts);
    vm::Interpreter interp(prog);
    interp.run(&writer, maxRecords);
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

// ---- checksums over a whole file ------------------------------------

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char *>(b.data()),
               static_cast<std::streamsize>(b.size()));
}

std::uint64_t
le(const std::vector<std::uint8_t> &b, std::size_t at, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
    return v;
}

void
putLe(std::vector<std::uint8_t> &out, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Where each block of a trace file starts, plus where the index
 *  starts (one past the last block). */
std::vector<std::uint64_t>
blockBounds(const std::vector<std::uint8_t> &b)
{
    const std::uint64_t perBlock = le(b, 12, 4);
    const std::uint64_t records =
        le(b, b.size() - trace::TraceFooterBytes + 8, 8);
    const std::uint64_t blocks = (records + perBlock - 1) / perBlock;
    const std::size_t index = b.size() - trace::TraceFooterBytes -
                              static_cast<std::size_t>(blocks) * 8;
    std::vector<std::uint64_t> bounds;
    for (std::uint64_t k = 0; k < blocks; ++k)
        bounds.push_back(le(b, index + k * 8, 8));
    bounds.push_back(index);
    return bounds;
}

/** A short grep trace in 64-record blocks (the last one partial):
 *  small enough to flip every bit of. */
std::uint64_t
writeShortTrace(const std::string &path, const isa::Program &prog)
{
    return writeDemoTrace(path, prog, 7, tinyBlocks(64), 64 * 9 + 40);
}

/** Verification must fail and a replay must throw TraceCorrupt. */
void
expectCaught(const std::string &path, const isa::Program &prog,
             const std::string &what)
{
    auto rep = trace::verifyTraceFile(path);
    EXPECT_FALSE(rep.ok()) << what;
    try {
        TraceFileReader r(path, prog);
        trace::TraceStats sink;
        r.replay(sink);
        ADD_FAILURE() << what << " replayed clean";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::TraceCorrupt) << what;
    }
}

TEST(TraceChecksum, EverySingleBitFlipIsCaught)
{
    TempPath tmp("lvplib_v5_bitflip.trace");
    auto prog = demoProgram();
    ASSERT_EQ(writeShortTrace(tmp.path, prog), 64u * 9 + 40);
    const auto good = readBytes(tmp.path);
    const auto bounds = blockBounds(good);
    ASSERT_EQ(bounds.size(), 11u);

    // Every bit of every block (its header and its column payload),
    // then every bit of the footer checksum.
    std::vector<std::size_t> targets;
    for (std::size_t at = bounds.front(); at < bounds.back(); ++at)
        targets.push_back(at);
    for (std::size_t at = good.size() - 8; at < good.size(); ++at)
        targets.push_back(at);
    auto bytes = good;
    for (std::size_t at : targets) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
            writeBytes(tmp.path, bytes);
            expectCaught(tmp.path, prog,
                         "byte " + std::to_string(at) + " bit " +
                             std::to_string(bit));
            bytes[at] = good[at];
        }
    }
}

TEST(TraceChecksum, SameBitInOneLaneTwiceIsCaught)
{
    // Words 32 bytes apart feed the same lane of the four-lane hash
    // in consecutive rounds. Were a lane a plain xor-multiply of each
    // word, flipping the same bit in both would cancel out.
    TempPath tmp("lvplib_v5_lane.trace");
    auto prog = demoProgram();
    writeShortTrace(tmp.path, prog);
    const auto good = readBytes(tmp.path);
    const auto bounds = blockBounds(good);
    auto bytes = good;
    std::size_t pairs = 0;
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
        const std::size_t payload =
            bounds[k] + trace::TraceBlockHeaderBytes;
        for (std::size_t at = payload; at + 32 < bounds[k + 1]; ++at) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                const auto mask = static_cast<std::uint8_t>(1u << bit);
                bytes[at] ^= mask;
                bytes[at + 32] ^= mask;
                writeBytes(tmp.path, bytes);
                expectCaught(tmp.path, prog,
                             "bytes " + std::to_string(at) + " and +32 bit " +
                                 std::to_string(bit));
                bytes[at] = good[at];
                bytes[at + 32] = good[at + 32];
                ++pairs;
            }
        }
    }
    EXPECT_GT(pairs, 0u);
}

TEST(TraceChecksum, SkipToPastAFlippedBlockThrows)
{
    // The footer chain covers only block headers, so skipTo() must
    // check each payload it skips against the header's checksum.
    TempPath tmp("lvplib_v5_skip.trace");
    auto prog = demoProgram();
    writeShortTrace(tmp.path, prog);
    auto bytes = readBytes(tmp.path);
    const auto bounds = blockBounds(bytes);
    bytes[bounds[2] + trace::TraceBlockHeaderBytes + 3] ^= 0x20;
    writeBytes(tmp.path, bytes);
    expectSimError(
        [&] {
            TraceFileReader r(tmp.path, prog);
            r.skipTo(64 * 5);
            trace::TraceStats sink;
            r.replay(sink);
        },
        ErrorKind::TraceCorrupt,
        trace::traceFileStatusName(TraceFileStatus::ChecksumMismatch));
}

/** A trace file taken apart into each block's four columns. */
struct TraceParts
{
    std::vector<std::uint8_t> header; ///< the 24-byte file header
    std::uint64_t records = 0;
    struct Block
    {
        std::uint32_t n = 0;
        std::vector<std::uint8_t> pc, addr, value, taken;
    };
    std::vector<Block> blocks;
};

TraceParts
splitTrace(const std::vector<std::uint8_t> &b)
{
    TraceParts t;
    t.header.assign(b.begin(), b.begin() + trace::TraceHeaderBytes);
    t.records = le(b, b.size() - trace::TraceFooterBytes + 8, 8);
    const auto bounds = blockBounds(b);
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
        const std::size_t at = bounds[k];
        TraceParts::Block blk;
        blk.n = static_cast<std::uint32_t>(le(b, at, 4));
        auto col = b.begin() + static_cast<std::ptrdiff_t>(
                                   at + trace::TraceBlockHeaderBytes);
        auto take = [&col](std::vector<std::uint8_t> &dst,
                           std::uint64_t len) {
            dst.assign(col, col + static_cast<std::ptrdiff_t>(len));
            col += static_cast<std::ptrdiff_t>(len);
        };
        take(blk.pc, le(b, at + 4, 4));
        take(blk.addr, le(b, at + 8, 4));
        take(blk.value, le(b, at + 12, 4));
        take(blk.taken, (blk.n + 7) / 8);
        t.blocks.push_back(std::move(blk));
    }
    return t;
}

/** Reassemble @p t with every checksum recomputed through the public
 *  hash: each payload's in its block header, and the footer's chain
 *  over the block headers. */
std::vector<std::uint8_t>
joinTrace(const TraceParts &t)
{
    std::vector<std::uint8_t> out = t.header;
    std::vector<std::uint64_t> index;
    std::uint64_t chain = 0;
    for (const auto &blk : t.blocks) {
        std::vector<std::uint8_t> payload;
        for (const auto *col : {&blk.pc, &blk.addr, &blk.value, &blk.taken})
            payload.insert(payload.end(), col->begin(), col->end());
        std::vector<std::uint8_t> hdr;
        putLe(hdr, blk.n, 4);
        putLe(hdr, blk.pc.size(), 4);
        putLe(hdr, blk.addr.size(), 4);
        putLe(hdr, blk.value.size(), 4);
        putLe(hdr, trace::hash64(payload.data(), payload.size()), 8);
        chain = trace::hash64(hdr.data(), hdr.size(), chain);
        index.push_back(out.size());
        out.insert(out.end(), hdr.begin(), hdr.end());
        out.insert(out.end(), payload.begin(), payload.end());
    }
    for (std::uint64_t off : index)
        putLe(out, off, 8);
    for (char c : std::string("ECARTPVL"))
        out.push_back(static_cast<std::uint8_t>(c));
    putLe(out, t.records, 8);
    putLe(out, chain, 8);
    return out;
}

/** A sink that only counts what reaches it. */
struct CountingSink : trace::TraceSink
{
    std::uint64_t seen = 0;
    void consume(const trace::TraceRecord &) override { ++seen; }
};

TEST(TraceChecksum, HostileColumnsUnderValidChecksumsAreRejected)
{
    TempPath tmp("lvplib_v5_hostile.trace");
    auto prog = demoProgram();
    writeShortTrace(tmp.path, prog);
    const auto good = readBytes(tmp.path);
    const TraceParts parts = splitTrace(good);
    ASSERT_EQ(joinTrace(parts), good)
        << "the test must rebuild the format byte for byte";

    // Each case rewrites block 1's columns; the checksums are
    // recomputed, so only the column checks stand in the way.
    constexpr std::size_t Hit = 1;
    const std::uint32_t n = parts.blocks[Hit].n;
    auto decoded = [&](const std::vector<std::uint8_t> &col,
                       bool sparse) {
        std::vector<std::uint64_t> vals(n);
        EXPECT_TRUE(sparse ? decodeSparseColumn(col.data(), col.size(),
                                                vals.data(), n)
                           : decodeDeltaColumn(col.data(), col.size(),
                                               vals.data(), n));
        return vals;
    };
    // The pc column with record 5 moved to @p pc.
    auto pcAt = [&](Addr pc) {
        auto pcs = decoded(parts.blocks[Hit].pc, false);
        pcs[5] = pc;
        std::vector<std::uint8_t> col;
        encodeDeltaColumn(pcs.data(), n, col);
        return col;
    };
    // The addr column with its first zero marked present: a varint
    // that brings the running value back to zero.
    auto presentZero = [&] {
        auto addrs = decoded(parts.blocks[Hit].addr, true);
        std::vector<std::uint8_t> col((n + 7) / 8, 0);
        bool marked = false;
        std::uint64_t prev = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (addrs[i] == 0 && marked)
                continue;
            marked = marked || addrs[i] == 0;
            col[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
            putVarint(col, zigzagEncode(static_cast<std::int64_t>(
                               addrs[i] - prev)));
            prev = addrs[i];
        }
        EXPECT_TRUE(marked) << "block has no zero address";
        return col;
    };
    const Addr codeEnd = prog.codeEnd();
    const struct
    {
        const char *name;
        std::function<void(TraceParts::Block &)> edit;
        const char *reason;
    } cases[] = {
        {"overlong varint",
         [](TraceParts::Block &b) { b.pc.insert(b.pc.begin(), 11, 0x80); },
         "column payload malformed"},
        {"present zero",
         [&](TraceParts::Block &b) { b.addr = presentZero(); },
         "column payload malformed"},
        {"trailing byte",
         [](TraceParts::Block &b) { b.value.push_back(0); },
         "column payload malformed"},
        {"pc past the code",
         [&](TraceParts::Block &b) { b.pc = pcAt(codeEnd); },
         "outside the program"},
        {"pc below the code",
         [&](TraceParts::Block &b) {
             b.pc = pcAt(isa::layout::CodeBase - isa::layout::InstBytes);
         },
         "outside the program"},
        {"pc between instructions",
         [&](TraceParts::Block &b) {
             b.pc = pcAt(isa::layout::CodeBase + 2);
         },
         "outside the program"},
    };
    for (const auto &c : cases) {
        TraceParts hostile = parts;
        c.edit(hostile.blocks[Hit]);
        writeBytes(tmp.path, joinTrace(hostile));
        EXPECT_TRUE(trace::verifyTraceFile(tmp.path).ok())
            << c.name << ": checksums must still hold";
        CountingSink sink;
        expectSimError(
            [&] {
                TraceFileReader r(tmp.path, prog);
                r.replay(sink);
            },
            ErrorKind::TraceCorrupt, c.reason);
        EXPECT_EQ(sink.seen, Hit * parts.blocks[0].n)
            << c.name << ": no record of the hostile block reaches a sink";
    }
}

} // namespace
} // namespace lvplib
