/**
 * @file
 * Unit tests for the lvp-serve building blocks below the server: the
 * wire codecs and their strict malformed-input rejection, the stream
 * fingerprint, framed socket I/O (including the ServeFrame chaos
 * point), the hot-trace LRU, the lvpserve/lvpload CLI parsers, and
 * the LVPLIB_SERVE_* environment knobs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "chaos/chaos.hh"
#include "trace/columnar.hh"
#include "serve/framing.hh"
#include "serve/protocol.hh"
#include "serve/serve_cli.hh"
#include "serve/server.hh"
#include "serve/trace_lru.hh"

namespace
{

using namespace lvplib;
using namespace lvplib::serve;

ServeRecord
loadRec(Addr pc, Addr addr, Word value, std::uint8_t size = 8)
{
    ServeRecord r;
    r.kind = static_cast<std::uint8_t>(ServeKind::Load);
    r.size = size;
    r.pc = pc;
    r.addr = addr;
    r.value = value;
    return r;
}

std::vector<std::uint8_t>
encodeAll(const std::vector<ServeRecord> &recs)
{
    std::vector<std::uint8_t> bytes;
    for (const auto &r : recs)
        encodeRecord(r, bytes);
    return bytes;
}

/** Expect a SimError of @p kind whose message contains @p needle. */
template <typename Fn>
void
expectSimError(Fn &&fn, ErrorKind kind, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected SimError containing '" << needle << "'";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), kind) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message was: " << e.what();
    }
}

TEST(ServeCodec, RecordRoundTripAllKinds)
{
    std::vector<ServeRecord> in;
    in.push_back(loadRec(0x1000, 0xdeadbeef, 42, 8));
    in.push_back(loadRec(0x1004, 0x80, 0xffffffffull, 4));
    in.push_back(loadRec(0x1008, 0x81, 7, 1));
    ServeRecord st;
    st.kind = static_cast<std::uint8_t>(ServeKind::Store);
    st.size = 4;
    st.pc = 0x2000;
    st.addr = 0xcafe;
    in.push_back(st);
    ServeRecord br;
    br.kind = static_cast<std::uint8_t>(ServeKind::Branch);
    br.taken = 1;
    br.pc = 0x3000;
    in.push_back(br);

    auto bytes = encodeAll(in);
    ASSERT_EQ(bytes.size(), in.size() * ServeRecordBytes);
    auto out = decodeRecords(bytes);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out[i].kind, in[i].kind) << i;
        EXPECT_EQ(out[i].size, in[i].size) << i;
        EXPECT_EQ(out[i].taken, in[i].taken) << i;
        EXPECT_EQ(out[i].pc, in[i].pc) << i;
        EXPECT_EQ(out[i].addr, in[i].addr) << i;
        EXPECT_EQ(out[i].value, in[i].value) << i;
    }
}

TEST(ServeCodec, RejectsMalformedRecords)
{
    auto bytes = encodeAll({loadRec(1, 2, 3)});

    // All but the last byte, as a view: GCC 12 at -O3 misreads an
    // inlined pop_back() on a copy as an out-of-bounds write
    // (-Warray-bounds).
    const auto partial =
        std::span<const std::uint8_t>(bytes).first(bytes.size() - 1);
    expectSimError([&] { decodeRecords(partial); }, ErrorKind::TraceCorrupt,
                   "trailing byte");

    auto badKind = bytes;
    badKind[0] = 9;
    expectSimError([&] { decodeRecords(badKind); },
                   ErrorKind::TraceCorrupt, "kind byte 9");

    auto badSize = bytes;
    badSize[1] = 2; // loads are 1/4/8 only
    expectSimError([&] { decodeRecords(badSize); },
                   ErrorKind::TraceCorrupt, "access size 2");

    ServeRecord br;
    br.kind = static_cast<std::uint8_t>(ServeKind::Branch);
    auto brBytes = encodeAll({br});
    auto branchWithSize = brBytes;
    branchWithSize[1] = 8; // branches carry size 0
    expectSimError([&] { decodeRecords(branchWithSize); },
                   ErrorKind::TraceCorrupt, "access size 8");

    auto badTaken = brBytes;
    badTaken[2] = 2;
    expectSimError([&] { decodeRecords(badTaken); },
                   ErrorKind::TraceCorrupt, "taken byte 2");
}

TEST(ServeCodec, FingerprintIsDeterministicChainableAndSensitive)
{
    auto bytes = encodeAll({loadRec(1, 2, 3), loadRec(4, 5, 6)});
    auto fp = streamFingerprint(bytes);
    EXPECT_EQ(fp, streamFingerprint(bytes));
    EXPECT_NE(fp, FingerprintSeed);

    // Chunked chaining must match the one-shot fingerprint — the
    // server folds TraceChunk payloads chunk by chunk.
    auto half = bytes.size() / 2;
    auto fp1 = streamFingerprint({bytes.data(), half});
    auto fp2 = streamFingerprint({bytes.data() + half,
                                  bytes.size() - half},
                                 fp1);
    EXPECT_EQ(fp2, fp);

    auto flipped = bytes;
    flipped[10] ^= 1;
    EXPECT_NE(streamFingerprint(flipped), fp);
}

TEST(ServeCodec, FingerprintIsPublishedFnv1a64)
{
    // The published FNV-1a 64 vectors: trace::fnv1a is the one copy of
    // the hash, and a stream fingerprint is that hash of its bytes.
    const std::string_view a = "a", foobar = "foobar";
    const std::uint64_t fpA = 0xaf63dc4c8601ec8cull;
    const std::uint64_t fpFoobar = 0x85944171f73967e8ull;
    auto bytes = [](std::string_view s) {
        return std::span(reinterpret_cast<const std::uint8_t *>(s.data()),
                         s.size());
    };
    EXPECT_EQ(trace::fnv1a(a.data(), a.size()), fpA);
    EXPECT_EQ(trace::fnv1a(foobar.data(), foobar.size()), fpFoobar);
    EXPECT_EQ(streamFingerprint(bytes(a)), fpA);
    EXPECT_EQ(streamFingerprint(bytes(foobar)), fpFoobar);

    // Two halves hashed in a chain equal one pass.
    EXPECT_EQ(trace::fnv1a(foobar.data() + 3, 3,
                           trace::fnv1a(foobar.data(), 3)),
              fpFoobar);
    EXPECT_EQ(streamFingerprint(bytes(foobar.substr(3)),
                                streamFingerprint(bytes(foobar.substr(0, 3)))),
              fpFoobar);
}

TEST(ServeCodec, HelloRoundTripAndRejection)
{
    auto p = encodeHello(ProtocolVersion);
    EXPECT_EQ(decodeHello(p, "Hello"), ProtocolVersion);
    p.push_back(0);
    expectSimError([&] { decodeHello(p, "Hello"); },
                   ErrorKind::TraceCorrupt, "Hello");
}

TEST(ServeCodec, OpenRoundTripAndRejection)
{
    OpenRequest req;
    req.predictor = "vtage";
    req.fingerprint = 0x1234567890abcdefull;
    req.records = 99;
    auto p = encodeOpen(req);
    auto back = decodeOpen(p);
    EXPECT_EQ(back.predictor, req.predictor);
    EXPECT_EQ(back.fingerprint, req.fingerprint);
    EXPECT_EQ(back.records, req.records);

    expectSimError([&] { decodeOpen({p.data(), 8}); },
                   ErrorKind::TraceCorrupt, "fixed head");
    auto truncated = p;
    truncated.pop_back();
    expectSimError([&] { decodeOpen(truncated); }, ErrorKind::TraceCorrupt,
                   "length byte");
    OpenRequest anon;
    anon.predictor = "";
    auto empty = encodeOpen(anon);
    expectSimError([&] { decodeOpen(empty); }, ErrorKind::TraceCorrupt,
                   "empty predictor name");
}

TEST(ServeCodec, OpenOkAndErrorRoundTrip)
{
    auto p = encodeOpenOk(77, true, 0xfeedfacecafebeefull);
    ASSERT_EQ(p.size(), 17u); // u64 id + u8 cached + u64 resume token
    std::uint64_t id = 0, token = 0;
    bool cached = false;
    decodeOpenOk(p, id, cached, token);
    EXPECT_EQ(id, 77u);
    EXPECT_TRUE(cached);
    EXPECT_EQ(token, 0xfeedfacecafebeefull);
    auto truncated = p;
    truncated.pop_back(); // the pre-resume 16-byte shape is rejected
    expectSimError([&] { decodeOpenOk(truncated, id, cached, token); },
                   ErrorKind::TraceCorrupt, "OpenOk");
    p[8] = 3;
    expectSimError([&] { decodeOpenOk(p, id, cached, token); },
                   ErrorKind::TraceCorrupt, "cached byte");

    auto err = encodeError(ErrorKind::RetryExhausted, "nope");
    std::string msg;
    EXPECT_EQ(decodeError(err, msg), ErrorKind::RetryExhausted);
    EXPECT_EQ(msg, "nope");
    expectSimError([&] { decodeError({}, msg); }, ErrorKind::TraceCorrupt,
                   "missing kind");
    err[0] = 250;
    expectSimError([&] { decodeError(err, msg); }, ErrorKind::TraceCorrupt,
                   "unknown error kind");
}

TEST(ServeCodec, ResumeRoundTripAndRejection)
{
    ResumeRequest req;
    req.sessionId = 42;
    req.token = 0x0123456789abcdefull;
    auto p = encodeResume(req);
    ASSERT_EQ(p.size(), 16u);
    auto back = decodeResume(p);
    EXPECT_EQ(back.sessionId, req.sessionId);
    EXPECT_EQ(back.token, req.token);
    p.push_back(0);
    expectSimError([&] { decodeResume(p); }, ErrorKind::TraceCorrupt,
                   "ResumeSession");

    ResumeReply rep;
    rep.sessionId = 42;
    rep.recordsProcessed = 100000;
    rep.chunksProcessed = 25;
    auto rp = encodeResumeOk(rep);
    ASSERT_EQ(rp.size(), 24u);
    auto rback = decodeResumeOk(rp);
    EXPECT_EQ(rback.sessionId, rep.sessionId);
    EXPECT_EQ(rback.recordsProcessed, rep.recordsProcessed);
    EXPECT_EQ(rback.chunksProcessed, rep.chunksProcessed);
    rp.pop_back();
    expectSimError([&] { decodeResumeOk(rp); }, ErrorKind::TraceCorrupt,
                   "ResumeOk");
}

TEST(ServeCodec, MetricsRoundTripCarriesEveryStatsField)
{
    SessionMetrics m;
    m.sessionId = 5;
    m.recordsProcessed = 1000;
    m.chunksProcessed = 3;
    m.final_ = true;
    core::LvpStats &s = m.stats;
    std::uint64_t *fields = reinterpret_cast<std::uint64_t *>(&s);
    constexpr std::size_t nFields =
        sizeof(core::LvpStats) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < nFields; ++i)
        fields[i] = 100 + i; // distinct value per field catches swaps

    auto p = encodeMetrics(m);
    auto back = decodeMetrics(p);
    EXPECT_TRUE(back == m);

    auto truncated = p;
    truncated.pop_back();
    expectSimError([&] { decodeMetrics(truncated); },
                   ErrorKind::TraceCorrupt, "MetricsReply");
    auto badFinal = p;
    badFinal[24] = 7;
    expectSimError([&] { decodeMetrics(badFinal); },
                   ErrorKind::TraceCorrupt, "final byte");
}

/** A connected socket pair wrapped in FrameIo at both ends. */
struct IoPair
{
    explicit IoPair(std::uint64_t maxBytes = 1 << 20)
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = std::make_unique<FrameIo>(fds[0], maxBytes, 1);
        b = std::make_unique<FrameIo>(fds[1], maxBytes, 2);
    }
    std::unique_ptr<FrameIo> a, b;
};

TEST(ServeFraming, RoundTripAndEmptyPayload)
{
    IoPair io;
    auto payload = encodeHello(ProtocolVersion);
    io.a->write(FrameType::Hello, payload);
    io.a->write(FrameType::Goodbye, {});
    Frame f = io.b->read();
    EXPECT_EQ(f.type, FrameType::Hello);
    EXPECT_EQ(f.payload, payload);
    f = io.b->read();
    EXPECT_EQ(f.type, FrameType::Goodbye);
    EXPECT_TRUE(f.payload.empty());
}

TEST(ServeFraming, OversizedLengthPrefixRejectedWithoutAllocating)
{
    // A hostile length prefix is rejected before any allocation: the
    // reader never trusts the wire with its memory budget.
    IoPair io(64);
    std::uint8_t raw[5] = {0xff, 0xff, 0xff, 0x7f,
                           static_cast<std::uint8_t>(FrameType::Hello)};
    ASSERT_EQ(::send(io.a->fd(), raw, sizeof raw, 0),
              static_cast<ssize_t>(sizeof raw));
    expectSimError([&] { io.b->read(); }, ErrorKind::TraceCorrupt,
                   "exceeds");
}

TEST(ServeFraming, CleanEofVsTruncatedFrame)
{
    {
        IoPair io;
        io.a.reset(); // peer closes with no bytes in flight
        Frame f;
        EXPECT_FALSE(io.b->readOrEof(f));
    }
    {
        IoPair io;
        std::uint8_t partial[3] = {9, 0, 0}; // header cut short
        ASSERT_EQ(::send(io.a->fd(), partial, sizeof partial, 0), 3);
        io.a.reset();
        Frame f;
        expectSimError([&] { io.b->readOrEof(f); }, ErrorKind::TraceIo,
                       "closed");
    }
}

TEST(ServeFraming, ServeFrameChaosPointInjects)
{
    chaos::engine().arm(
        {1, chaos::pointBit(chaos::Point::ServeFrame), 1});
    {
        IoPair io;
        expectSimError([&] { io.a->write(FrameType::Goodbye, {}); },
                       ErrorKind::Injected, "injected frame fault");
    }
    chaos::engine().disarm();
    // Disarmed, the same exchange is clean.
    IoPair io;
    io.a->write(FrameType::Goodbye, {});
    EXPECT_EQ(io.b->read().type, FrameType::Goodbye);
}

/** What a session actually streams: the decoded records. */
std::vector<ServeRecord>
streamOf(std::size_t records, std::uint64_t salt = 0)
{
    std::vector<ServeRecord> v;
    for (std::size_t i = 0; i < records; ++i)
        v.push_back(loadRec(i, i + salt, i * 2));
    return v;
}

/** What the LRU stores: the column-compressed form. */
CompressedBlob
blobOf(std::size_t records, std::uint64_t salt = 0)
{
    return std::make_shared<const CompressedTrace>(
        compressServeStream(streamOf(records, salt)));
}

TEST(ServeCompress, RoundTripAllKindsAndShrinks)
{
    std::vector<ServeRecord> in;
    for (std::size_t i = 0; i < 1000; ++i) {
        in.push_back(loadRec(0x1000 + 4 * i, 0x8000 + 8 * (i % 7),
                             i % 3 ? 42 : 0, i % 2 ? 8 : 4));
        ServeRecord st;
        st.kind = static_cast<std::uint8_t>(ServeKind::Store);
        st.size = 1;
        st.pc = 0x2000 + 4 * i;
        st.addr = 0xcafe + i;
        in.push_back(st);
        ServeRecord br;
        br.kind = static_cast<std::uint8_t>(ServeKind::Branch);
        br.taken = i & 1;
        br.pc = 0x3000;
        in.push_back(br);
    }
    CompressedTrace ct = compressServeStream(in);
    EXPECT_EQ(ct.records, in.size());
    // The point of compressing: several-fold smaller than the decoded
    // stream (local pc/addr/value deltas are all short varints here).
    EXPECT_LT(ct.bytes.size(), in.size() * sizeof(ServeRecord) / 3);

    TraceBlob out = decompressServeStream(ct);
    ASSERT_EQ(out->size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ((*out)[i].kind, in[i].kind) << i;
        EXPECT_EQ((*out)[i].size, in[i].size) << i;
        EXPECT_EQ((*out)[i].taken, in[i].taken) << i;
        EXPECT_EQ((*out)[i].pc, in[i].pc) << i;
        EXPECT_EQ((*out)[i].addr, in[i].addr) << i;
        EXPECT_EQ((*out)[i].value, in[i].value) << i;
    }
}

TEST(ServeCompress, EmptyStreamRoundTrips)
{
    CompressedTrace ct = compressServeStream({});
    EXPECT_EQ(ct.records, 0u);
    TraceBlob out = decompressServeStream(ct);
    EXPECT_TRUE(out->empty());
}

TEST(ServeCompress, RejectsCorruptBlob)
{
    CompressedTrace good = compressServeStream(streamOf(100));

    // Any flipped payload byte trips the trailing checksum.
    for (std::size_t at : {std::size_t(0), good.bytes.size() / 2}) {
        CompressedTrace bad = good;
        bad.bytes[at] ^= 0x40;
        expectSimError([&] { decompressServeStream(bad); },
                       ErrorKind::TraceCorrupt, "checksum mismatch");
    }

    // A record count that outgrows the payload is rejected before any
    // column decode is attempted.
    CompressedTrace big = good;
    big.records = good.bytes.size() + 1;
    expectSimError([&] { decompressServeStream(big); },
                   ErrorKind::TraceCorrupt, "will not fit");

    // Truncation below the trailing checksum.
    CompressedTrace tiny = good;
    tiny.bytes.resize(4);
    expectSimError([&] { decompressServeStream(tiny); },
                   ErrorKind::TraceCorrupt, "byte(s)");
}

TEST(ServeCompress, RejectsBadMetaEvenWithValidChecksum)
{
    // Hand-build a blob whose checksum is valid but whose meta byte
    // encodes a branch with a nonzero access size: strict decode must
    // still reject it (the checksum guards corruption, the meta
    // validation guards a hostile or buggy encoder).
    ServeRecord br;
    br.kind = static_cast<std::uint8_t>(ServeKind::Branch);
    br.pc = 0x3000;
    CompressedTrace ct = compressServeStream({&br, 1});
    ASSERT_GE(ct.bytes.size(), 9u);
    ct.bytes[0] |= 3 << 2; // size code 3 (8 bytes) on a branch
    // Re-seal the checksum so only the meta check can object.
    std::uint64_t sum =
        trace::fnv1a(ct.bytes.data(), ct.bytes.size() - 8);
    for (int i = 0; i < 8; ++i)
        ct.bytes[ct.bytes.size() - 8 + i] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    expectSimError([&] { decompressServeStream(ct); },
                   ErrorKind::TraceCorrupt, "access size");
}

TEST(ServeTraceLru, MissThenHitRefreshesRecency)
{
    TraceLru lru(1 << 20);
    EXPECT_EQ(lru.get(1), nullptr);
    EXPECT_EQ(lru.misses(), 1u);
    auto b = blobOf(4);
    lru.insert(1, b);
    EXPECT_TRUE(lru.contains(1));
    EXPECT_EQ(lru.get(1), b);
    EXPECT_EQ(lru.hits(), 1u);
    EXPECT_EQ(lru.entries(), 1u);
    EXPECT_EQ(lru.bytes(), TraceLru::blobBytes(b));
}

TEST(ServeTraceLru, EvictsLeastRecentlyUsedToBudget)
{
    // salt >= 1 keeps every addr nonzero, so the three compressed
    // blobs below are byte-for-byte the same size.
    const auto one = TraceLru::blobBytes(blobOf(10, 1));
    TraceLru lru(2 * one); // room for exactly two blobs
    lru.insert(1, blobOf(10, 1));
    lru.insert(2, blobOf(10, 2));
    ASSERT_EQ(lru.entries(), 2u);

    lru.get(1); // 1 becomes most recent; 2 is now the LRU victim
    lru.insert(3, blobOf(10, 3));
    EXPECT_EQ(lru.entries(), 2u);
    EXPECT_EQ(lru.evictions(), 1u);
    EXPECT_TRUE(lru.contains(1));
    EXPECT_FALSE(lru.contains(2));
    EXPECT_TRUE(lru.contains(3));
}

TEST(ServeTraceLru, OversizedAndZeroBudgetEdgeCases)
{
    const auto one = TraceLru::blobBytes(blobOf(10));
    TraceLru small(one / 2);
    small.insert(1, blobOf(10)); // bigger than the whole budget
    EXPECT_FALSE(small.contains(1));
    EXPECT_EQ(small.entries(), 0u);

    TraceLru off(0);
    off.insert(1, blobOf(1));
    EXPECT_FALSE(off.contains(1));
    EXPECT_EQ(off.get(1), nullptr);
}

TEST(ServeTraceLru, ReinsertKeepsFirstWriterBlob)
{
    TraceLru lru(1 << 20);
    auto first = blobOf(4, 1);
    lru.insert(7, first);
    lru.insert(7, blobOf(4, 2)); // same key: recency refresh only
    EXPECT_EQ(lru.get(7), first);
    EXPECT_EQ(lru.entries(), 1u);
}

std::optional<ServeCliOptions>
parseServe(std::initializer_list<const char *> args,
           std::string *err = nullptr)
{
    std::vector<std::string> v;
    for (const char *a : args)
        v.emplace_back(a);
    std::string e;
    auto r = parseServeCli(v, e);
    if (err)
        *err = e;
    return r;
}

std::optional<LoadCliOptions>
parseLoad(std::initializer_list<const char *> args,
          std::string *err = nullptr)
{
    std::vector<std::string> v;
    for (const char *a : args)
        v.emplace_back(a);
    std::string e;
    auto r = parseLoadCli(v, e);
    if (err)
        *err = e;
    return r;
}

TEST(ServeCli, ServeFlagsParseAndOverrideDefaults)
{
    auto o = parseServe({"--socket", "/tmp/x.sock", "--max-sessions",
                         "5", "--lru-bytes", "1024", "--queue-chunks",
                         "2", "--drain-ms", "100"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->server.socketPath, "/tmp/x.sock");
    EXPECT_EQ(o->server.maxSessions, 5u);
    EXPECT_EQ(o->server.lruBytes, 1024u);
    EXPECT_EQ(o->server.queueChunks, 2u);
    EXPECT_EQ(o->server.drainMs, 100u);

    auto tcp = parseServe({"--port", "8080"});
    ASSERT_TRUE(tcp);
    EXPECT_EQ(tcp->server.port, 8080);
    EXPECT_TRUE(tcp->server.socketPath.empty());

    EXPECT_TRUE(parseServe({"--help"})->help);
}

TEST(ServeCli, ResilienceFlagsParse)
{
    auto o = parseServe({"--socket", "/tmp/x.sock", "--idle-ms", "250",
                         "--resume-ttl-ms", "750", "--max-parked", "9",
                         "--workers", "4", "--chaos", "7,32"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->server.idleMs, 250u);
    EXPECT_EQ(o->server.resumeTtlMs, 750u);
    EXPECT_EQ(o->server.maxParked, 9u);
    EXPECT_EQ(o->workers, 4u);
    EXPECT_EQ(o->chaosSeed, 7u);
    EXPECT_EQ(o->chaosPeriod, 32u);

    // Defaults: single process, chaos off, period 64 when only the
    // seed is given.
    auto d = parseServe({"--socket", "/tmp/x.sock"});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->workers, 1u);
    EXPECT_EQ(d->chaosSeed, 0u);
    auto seedOnly = parseServe({"--socket", "/s", "--chaos", "3"});
    ASSERT_TRUE(seedOnly);
    EXPECT_EQ(seedOnly->chaosSeed, 3u);
    EXPECT_EQ(seedOnly->chaosPeriod, 64u);

    std::string err;
    EXPECT_FALSE(parseServe({"--workers", "0"}, &err));
    EXPECT_NE(err.find("'0'"), std::string::npos) << err;
    EXPECT_FALSE(parseServe({"--chaos", "0"}, &err));
    EXPECT_NE(err.find("--chaos"), std::string::npos) << err;
    EXPECT_FALSE(parseServe({"--chaos", "5,nope"}, &err));
    EXPECT_NE(err.find("'5,nope'"), std::string::npos) << err;

    auto load = parseLoad({"--socket", "/s", "--chaos", "11"});
    ASSERT_TRUE(load);
    EXPECT_EQ(load->chaosSeed, 11u);
    EXPECT_FALSE(parseLoad({"--socket", "/s", "--chaos", "bad"}, &err));
    EXPECT_NE(err.find("'bad'"), std::string::npos) << err;
}

TEST(ServeCli, ServeErrorsNameTheOffendingToken)
{
    std::string err;
    EXPECT_FALSE(parseServe({"--frob"}, &err));
    EXPECT_NE(err.find("'--frob'"), std::string::npos) << err;
    EXPECT_FALSE(parseServe({"--port", "99999"}, &err));
    EXPECT_NE(err.find("'99999'"), std::string::npos) << err;
    EXPECT_FALSE(parseServe({"--socket"}, &err));
    EXPECT_NE(err.find("needs a value"), std::string::npos) << err;
    EXPECT_FALSE(parseServe({"--max-sessions", "0"}, &err));
    EXPECT_NE(err.find("'0'"), std::string::npos) << err;
    EXPECT_FALSE(parseServe({"--queue-chunks", "zero"}, &err));
    EXPECT_NE(err.find("'zero'"), std::string::npos) << err;
}

TEST(ServeCli, LoadFlagsParseAndValidateNames)
{
    auto o = parseLoad({"--socket", "/tmp/x.sock", "--users", "3",
                        "--scale", "2", "--chunk-records", "64",
                        "--predictors", "lvp,vtage", "--workloads",
                        "grep,quick", "--no-verify"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->socketPath, "/tmp/x.sock");
    EXPECT_EQ(o->users, 3u);
    EXPECT_EQ(o->scale, 2u);
    EXPECT_EQ(o->chunkRecords, 64u);
    EXPECT_EQ(o->predictors, "lvp,vtage");
    EXPECT_EQ(o->workloads, "grep,quick");
    EXPECT_FALSE(o->verify);

    std::string err;
    EXPECT_FALSE(parseLoad({"--socket", "/s", "--predictors",
                            "psychic"},
                           &err));
    EXPECT_NE(err.find("'psychic'"), std::string::npos) << err;
    EXPECT_FALSE(parseLoad({"--socket", "/s", "--workloads", "doom"},
                           &err));
    EXPECT_NE(err.find("'doom'"), std::string::npos) << err;
    EXPECT_FALSE(parseLoad({"--users", "4"}, &err)); // no endpoint
    EXPECT_NE(err.find("endpoint"), std::string::npos) << err;
}

/** setenv/unsetenv guard so env tests cannot leak into each other. */
struct EnvGuard
{
    explicit EnvGuard(std::vector<const char *> names)
        : names_(std::move(names))
    {
        for (const char *n : names_)
            ::unsetenv(n);
    }
    ~EnvGuard()
    {
        for (const char *n : names_)
            ::unsetenv(n);
    }
    std::vector<const char *> names_;
};

TEST(ServeCli, FromEnvOverlaysStrictKnobs)
{
    EnvGuard guard({"LVPLIB_SERVE_SOCKET", "LVPLIB_SERVE_PORT",
                    "LVPLIB_SERVE_MAX_SESSIONS",
                    "LVPLIB_SERVE_LRU_BYTES",
                    "LVPLIB_SERVE_QUEUE_CHUNKS"});
    ::setenv("LVPLIB_SERVE_SOCKET", "/tmp/env.sock", 1);
    ::setenv("LVPLIB_SERVE_PORT", "9999", 1);
    ::setenv("LVPLIB_SERVE_MAX_SESSIONS", "17", 1);
    ::setenv("LVPLIB_SERVE_LRU_BYTES", "4096", 1);
    ::setenv("LVPLIB_SERVE_QUEUE_CHUNKS", "3", 1);
    auto o = ServeOptions::fromEnv();
    EXPECT_EQ(o.socketPath, "/tmp/env.sock");
    EXPECT_EQ(o.port, 9999);
    EXPECT_EQ(o.maxSessions, 17u);
    EXPECT_EQ(o.lruBytes, 4096u);
    EXPECT_EQ(o.queueChunks, 3u);

    // Garbage values warn and are ignored, never coerced.
    ::setenv("LVPLIB_SERVE_PORT", "8080nonsense", 1);
    ::setenv("LVPLIB_SERVE_MAX_SESSIONS", "-2", 1);
    auto strict = ServeOptions::fromEnv();
    EXPECT_EQ(strict.port, 0);
    EXPECT_EQ(strict.maxSessions, ServeOptions().maxSessions);

    // Flags win over the environment.
    ::setenv("LVPLIB_SERVE_SOCKET", "/tmp/env.sock", 1);
    auto parsed = parseServe({"--socket", "/tmp/flag.sock"});
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->server.socketPath, "/tmp/flag.sock");
}

TEST(ServeCli, WorkersEnvKnobParsesStrictly)
{
    EnvGuard guard({"LVPLIB_SERVE_WORKERS"});
    ::setenv("LVPLIB_SERVE_WORKERS", "3", 1);
    auto o = parseServe({"--socket", "/s"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->workers, 3u);
    // Flags win over the environment.
    auto f = parseServe({"--socket", "/s", "--workers", "2"});
    ASSERT_TRUE(f);
    EXPECT_EQ(f->workers, 2u);
    // Garbage warns and is ignored.
    ::setenv("LVPLIB_SERVE_WORKERS", "many", 1);
    auto g = parseServe({"--socket", "/s"});
    ASSERT_TRUE(g);
    EXPECT_EQ(g->workers, 1u);
}

} // namespace
