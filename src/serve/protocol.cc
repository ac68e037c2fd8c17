#include "serve/protocol.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "trace/columnar.hh"

namespace lvplib::serve
{

namespace
{

void
put8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
put16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
put32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
put64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

[[noreturn]] void
malformed(const char *what, const std::string &why)
{
    throw SimError(ErrorKind::TraceCorrupt,
                   std::string("serve: malformed ") + what + ": " + why);
}

std::uint16_t
get16(std::span<const std::uint8_t> p, std::size_t off)
{
    return static_cast<std::uint16_t>(p[off]) |
           static_cast<std::uint16_t>(p[off + 1]) << 8;
}

std::uint32_t
get32(std::span<const std::uint8_t> p, std::size_t off)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[off + i]) << (8 * i);
    return v;
}

std::uint64_t
get64(std::span<const std::uint8_t> p, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[off + i]) << (8 * i);
    return v;
}

} // namespace

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::Hello: return "Hello";
      case FrameType::HelloOk: return "HelloOk";
      case FrameType::OpenSession: return "OpenSession";
      case FrameType::OpenOk: return "OpenOk";
      case FrameType::TraceChunk: return "TraceChunk";
      case FrameType::RunCached: return "RunCached";
      case FrameType::Metrics: return "Metrics";
      case FrameType::MetricsReply: return "MetricsReply";
      case FrameType::CloseSession: return "CloseSession";
      case FrameType::Goodbye: return "Goodbye";
      case FrameType::Error: return "Error";
      case FrameType::Heartbeat: return "Heartbeat";
      case FrameType::ResumeSession: return "ResumeSession";
      case FrameType::ResumeOk: return "ResumeOk";
    }
    return "?";
}

void
encodeRecord(const ServeRecord &rec, std::vector<std::uint8_t> &out)
{
    put8(out, rec.kind);
    put8(out, rec.size);
    put8(out, rec.taken);
    put64(out, rec.pc);
    put64(out, rec.addr);
    put64(out, rec.value);
}

std::vector<ServeRecord>
decodeRecords(std::span<const std::uint8_t> bytes)
{
    if (bytes.size() % ServeRecordBytes != 0)
        malformed("TraceChunk",
                  std::to_string(bytes.size() % ServeRecordBytes) +
                      " trailing byte(s) after the last whole record");
    std::vector<ServeRecord> out(bytes.size() / ServeRecordBytes);
    for (std::size_t i = 0; i < out.size(); ++i) {
        auto p = bytes.subspan(i * ServeRecordBytes, ServeRecordBytes);
        ServeRecord &r = out[i];
        r.kind = p[0];
        r.size = p[1];
        r.taken = p[2];
        r.pc = get64(p, 3);
        r.addr = get64(p, 11);
        r.value = get64(p, 19);
        if (r.kind < 1 || r.kind > 3)
            malformed("TraceChunk", "record " + std::to_string(i) +
                                        " has kind byte " +
                                        std::to_string(r.kind));
        bool memRef = r.kind != static_cast<std::uint8_t>(
                                    ServeKind::Branch);
        bool sizeOk = memRef ? (r.size == 1 || r.size == 4 || r.size == 8)
                             : r.size == 0;
        if (!sizeOk)
            malformed("TraceChunk", "record " + std::to_string(i) +
                                        " has access size " +
                                        std::to_string(r.size));
        if (r.taken > 1)
            malformed("TraceChunk", "record " + std::to_string(i) +
                                        " has taken byte " +
                                        std::to_string(r.taken));
    }
    return out;
}

std::uint64_t
streamFingerprint(std::span<const std::uint8_t> bytes,
                  std::uint64_t seed)
{
    return trace::fnv1a(bytes.data(), bytes.size(), seed);
}

// The replay path scatters decoded columns straight into the
// ServeRecord array; its u64 fields must sit on 8-byte slots.
static_assert(sizeof(ServeRecord) % sizeof(std::uint64_t) == 0);
static_assert(offsetof(ServeRecord, pc) % sizeof(std::uint64_t) == 0);
static_assert(offsetof(ServeRecord, addr) % sizeof(std::uint64_t) == 0);
static_assert(offsetof(ServeRecord, value) % sizeof(std::uint64_t) == 0);

namespace
{

/** Meta-byte access-size codes: {0, 1, 4, 8} <-> {0, 1, 2, 3}. */
constexpr std::uint8_t MetaSizes[4] = {0, 1, 4, 8};

std::uint8_t
metaSizeCode(std::uint8_t size)
{
    return size == 8 ? 3 : size == 4 ? 2 : (size & 1);
}

} // namespace

CompressedTrace
compressServeStream(std::span<const ServeRecord> records)
{
    const std::size_t n = records.size();
    CompressedTrace ct;
    ct.records = n;
    auto &out = ct.bytes;
    out.reserve(n * 4 + 32);

    // One meta byte per record: kind (2 bits) | size code (2 bits) |
    // taken (1 bit). Column lengths are u32-prefixed; an FNV-1a of
    // everything preceding it closes the blob.
    for (const ServeRecord &r : records)
        out.push_back(static_cast<std::uint8_t>(
            (r.kind & 3) | (metaSizeCode(r.size) << 2) |
            ((r.taken & 1) << 4)));

    std::vector<std::uint64_t> col(n);
    std::vector<std::uint8_t> enc;

    for (std::size_t i = 0; i < n; ++i)
        col[i] = records[i].pc;
    trace::encodeDeltaColumn(col.data(), n, enc);
    put32(out, static_cast<std::uint32_t>(enc.size()));
    out.insert(out.end(), enc.begin(), enc.end());

    enc.clear();
    for (std::size_t i = 0; i < n; ++i)
        col[i] = records[i].addr;
    trace::encodeSparseColumn(col.data(), n, enc);
    put32(out, static_cast<std::uint32_t>(enc.size()));
    out.insert(out.end(), enc.begin(), enc.end());

    enc.clear();
    for (std::size_t i = 0; i < n; ++i)
        col[i] = records[i].value;
    trace::encodeSparseColumn(col.data(), n, enc);
    put32(out, static_cast<std::uint32_t>(enc.size()));
    out.insert(out.end(), enc.begin(), enc.end());

    put64(out, trace::fnv1a(out.data(), out.size()));
    return ct;
}

TraceBlob
decompressServeStream(const CompressedTrace &ct)
{
    const std::size_t n = static_cast<std::size_t>(ct.records);
    std::span<const std::uint8_t> b(ct.bytes);
    if (b.size() < 8)
        malformed("cached stream",
                  "only " + std::to_string(b.size()) + " byte(s)");
    const std::size_t payload = b.size() - 8;
    if (trace::fnv1a(b.data(), payload) != get64(b, payload))
        malformed("cached stream", "checksum mismatch");
    if (n > payload)
        malformed("cached stream",
                  std::to_string(n) + " records will not fit in " +
                      std::to_string(payload) + " payload byte(s)");

    auto blob = std::make_shared<std::vector<ServeRecord>>(n);
    constexpr std::size_t Stride =
        sizeof(ServeRecord) / sizeof(std::uint64_t);
    auto *base = reinterpret_cast<std::uint64_t *>(blob->data());
    auto slot = [base](std::size_t off) {
        return base + off / sizeof(std::uint64_t);
    };

    const std::uint8_t *meta = b.data();
    std::size_t off = n; // meta column occupies [0, n)
    auto column = [&](const char *name) {
        if (payload - off < 4)
            malformed("cached stream",
                      std::string(name) + " column length truncated");
        std::uint32_t len = get32(b, off);
        off += 4;
        if (len > payload - off)
            malformed("cached stream",
                      std::string(name) + " column overruns the payload");
        auto s = b.subspan(off, len);
        off += len;
        return s;
    };

    auto pcCol = column("pc");
    if (n > 0 &&
        !trace::decodeDeltaColumn(pcCol.data(), pcCol.size(),
                                  slot(offsetof(ServeRecord, pc)), n,
                                  Stride))
        malformed("cached stream", "pc column does not decode");
    auto addrCol = column("addr");
    if (n > 0 &&
        !trace::decodeSparseColumn(addrCol.data(), addrCol.size(),
                                   slot(offsetof(ServeRecord, addr)), n,
                                   Stride))
        malformed("cached stream", "addr column does not decode");
    auto valueCol = column("value");
    if (n > 0 &&
        !trace::decodeSparseColumn(valueCol.data(), valueCol.size(),
                                   slot(offsetof(ServeRecord, value)), n,
                                   Stride))
        malformed("cached stream", "value column does not decode");
    if (off != payload)
        malformed("cached stream",
                  std::to_string(payload - off) +
                      " trailing byte(s) after the value column");

    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t m = meta[i];
        ServeRecord &r = (*blob)[i];
        r.kind = m & 3;
        r.size = MetaSizes[(m >> 2) & 3];
        r.taken = (m >> 4) & 1;
        if (m >> 5)
            malformed("cached stream",
                      "record " + std::to_string(i) +
                          " has reserved meta bits set");
        if (r.kind < 1 || r.kind > 3)
            malformed("cached stream", "record " + std::to_string(i) +
                                           " has kind code " +
                                           std::to_string(m & 3));
        bool memRef =
            r.kind != static_cast<std::uint8_t>(ServeKind::Branch);
        if (memRef ? r.size == 0 : r.size != 0)
            malformed("cached stream", "record " + std::to_string(i) +
                                           " has access size " +
                                           std::to_string(r.size));
    }
    return blob;
}

std::vector<std::uint8_t>
encodeHello(std::uint16_t version)
{
    std::vector<std::uint8_t> out;
    put16(out, version);
    return out;
}

std::uint16_t
decodeHello(std::span<const std::uint8_t> payload, const char *what)
{
    if (payload.size() != 2)
        malformed(what, "expected 2 payload bytes, got " +
                            std::to_string(payload.size()));
    return get16(payload, 0);
}

std::vector<std::uint8_t>
encodeOpen(const OpenRequest &req)
{
    lvp_assert(req.predictor.size() <= 255,
               "predictor name too long for the wire");
    std::vector<std::uint8_t> out;
    put64(out, req.fingerprint);
    put64(out, req.records);
    put8(out, static_cast<std::uint8_t>(req.predictor.size()));
    out.insert(out.end(), req.predictor.begin(), req.predictor.end());
    return out;
}

OpenRequest
decodeOpen(std::span<const std::uint8_t> payload)
{
    if (payload.size() < 17)
        malformed("OpenSession", "payload shorter than its fixed head");
    OpenRequest req;
    req.fingerprint = get64(payload, 0);
    req.records = get64(payload, 8);
    std::size_t len = payload[16];
    if (payload.size() != 17 + len)
        malformed("OpenSession",
                  "name length byte says " + std::to_string(len) +
                      " but " + std::to_string(payload.size() - 17) +
                      " byte(s) follow");
    if (len == 0)
        malformed("OpenSession", "empty predictor name");
    req.predictor.assign(payload.begin() + 17, payload.end());
    return req;
}

std::vector<std::uint8_t>
encodeOpenOk(std::uint64_t sessionId, bool cached,
             std::uint64_t resumeToken)
{
    std::vector<std::uint8_t> out;
    put64(out, sessionId);
    put8(out, cached ? 1 : 0);
    put64(out, resumeToken);
    return out;
}

void
decodeOpenOk(std::span<const std::uint8_t> payload,
             std::uint64_t &sessionId, bool &cached,
             std::uint64_t &resumeToken)
{
    if (payload.size() != 17)
        malformed("OpenOk", "expected 17 payload bytes, got " +
                                std::to_string(payload.size()));
    sessionId = get64(payload, 0);
    if (payload[8] > 1)
        malformed("OpenOk", "cached byte out of range");
    cached = payload[8] == 1;
    resumeToken = get64(payload, 9);
}

std::vector<std::uint8_t>
encodeResume(const ResumeRequest &req)
{
    std::vector<std::uint8_t> out;
    put64(out, req.sessionId);
    put64(out, req.token);
    return out;
}

ResumeRequest
decodeResume(std::span<const std::uint8_t> payload)
{
    if (payload.size() != 16)
        malformed("ResumeSession", "expected 16 payload bytes, got " +
                                       std::to_string(payload.size()));
    ResumeRequest req;
    req.sessionId = get64(payload, 0);
    req.token = get64(payload, 8);
    return req;
}

std::vector<std::uint8_t>
encodeResumeOk(const ResumeReply &rep)
{
    std::vector<std::uint8_t> out;
    put64(out, rep.sessionId);
    put64(out, rep.recordsProcessed);
    put64(out, rep.chunksProcessed);
    return out;
}

ResumeReply
decodeResumeOk(std::span<const std::uint8_t> payload)
{
    if (payload.size() != 24)
        malformed("ResumeOk", "expected 24 payload bytes, got " +
                                  std::to_string(payload.size()));
    ResumeReply rep;
    rep.sessionId = get64(payload, 0);
    rep.recordsProcessed = get64(payload, 8);
    rep.chunksProcessed = get64(payload, 16);
    return rep;
}

namespace
{

/**
 * LvpStats crosses the wire as its fields in declaration order; the
 * static_assert pins the struct so a new field cannot silently stay
 * behind (the same guard LvpStats::operator+= uses).
 */
constexpr std::size_t LvpStatsWords = 13;
static_assert(sizeof(core::LvpStats) ==
                  LvpStatsWords * sizeof(std::uint64_t),
              "LvpStats changed; update the serve metrics codec");

void
putStats(std::vector<std::uint8_t> &out, const core::LvpStats &s)
{
    put64(out, s.loads);
    put64(out, s.noPred);
    put64(out, s.incorrect);
    put64(out, s.correct);
    put64(out, s.constants);
    put64(out, s.actualUnpred);
    put64(out, s.actualPred);
    put64(out, s.unpredIdentified);
    put64(out, s.predIdentified);
    put64(out, s.cvuInsertions);
    put64(out, s.cvuStoreInvalidations);
    put64(out, s.cvuDisplaceInvalidations);
    put64(out, s.cvuStaleHits);
}

core::LvpStats
getStats(std::span<const std::uint8_t> p, std::size_t off)
{
    core::LvpStats s;
    s.loads = get64(p, off + 0 * 8);
    s.noPred = get64(p, off + 1 * 8);
    s.incorrect = get64(p, off + 2 * 8);
    s.correct = get64(p, off + 3 * 8);
    s.constants = get64(p, off + 4 * 8);
    s.actualUnpred = get64(p, off + 5 * 8);
    s.actualPred = get64(p, off + 6 * 8);
    s.unpredIdentified = get64(p, off + 7 * 8);
    s.predIdentified = get64(p, off + 8 * 8);
    s.cvuInsertions = get64(p, off + 9 * 8);
    s.cvuStoreInvalidations = get64(p, off + 10 * 8);
    s.cvuDisplaceInvalidations = get64(p, off + 11 * 8);
    s.cvuStaleHits = get64(p, off + 12 * 8);
    return s;
}

} // namespace

std::vector<std::uint8_t>
encodeMetrics(const SessionMetrics &m)
{
    std::vector<std::uint8_t> out;
    put64(out, m.sessionId);
    put64(out, m.recordsProcessed);
    put64(out, m.chunksProcessed);
    put8(out, m.final_ ? 1 : 0);
    putStats(out, m.stats);
    return out;
}

SessionMetrics
decodeMetrics(std::span<const std::uint8_t> payload)
{
    constexpr std::size_t want = 8 + 8 + 8 + 1 + LvpStatsWords * 8;
    if (payload.size() != want)
        malformed("MetricsReply",
                  "expected " + std::to_string(want) +
                      " payload bytes, got " +
                      std::to_string(payload.size()));
    SessionMetrics m;
    m.sessionId = get64(payload, 0);
    m.recordsProcessed = get64(payload, 8);
    m.chunksProcessed = get64(payload, 16);
    if (payload[24] > 1)
        malformed("MetricsReply", "final byte out of range");
    m.final_ = payload[24] == 1;
    m.stats = getStats(payload, 25);
    return m;
}

std::vector<std::uint8_t>
encodeError(ErrorKind kind, std::string_view message)
{
    // Sized once and filled, rather than grown by an insert after the
    // kind byte: GCC 12 misreads that inlined reallocation as an
    // out-of-bounds copy (-Warray-bounds).
    std::vector<std::uint8_t> out(1 + message.size());
    out[0] = static_cast<std::uint8_t>(kind);
    std::copy(message.begin(), message.end(), out.begin() + 1);
    return out;
}

ErrorKind
decodeError(std::span<const std::uint8_t> payload, std::string &message)
{
    if (payload.empty())
        malformed("Error", "missing kind byte");
    if (payload[0] > static_cast<std::uint8_t>(ErrorKind::Injected))
        malformed("Error", "unknown error kind " +
                               std::to_string(payload[0]));
    message.assign(payload.begin() + 1, payload.end());
    return static_cast<ErrorKind>(payload[0]);
}

} // namespace lvplib::serve
