#include "trace/trace_file.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstring>

#include <unistd.h>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"
#include "trace/columnar.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace lvplib::trace
{

namespace
{

constexpr std::size_t RecordBytes = TraceRecordBytes;

/**
 * Buffer sizing. The v2 reader fills up to ReaderBufRecords per
 * fread; v2 replay() decodes and forwards ReplayBatchRecords per
 * consumeBatch (v3 forwards whole decoded blocks); the writer flushes
 * its encode buffer once it holds WriterBufBytes. Sized so a buffer
 * comfortably exceeds the stdio / page-cache transfer granularity
 * while staying cache-friendly.
 */
constexpr std::size_t ReaderBufRecords = 64 * 1024;
constexpr std::size_t ReplayBatchRecords = 4096;
constexpr std::size_t WriterBufBytes = 1u << 20;

constexpr char HeaderMagic[8] = {'L', 'V', 'P', 'T',
                                 'R', 'A', 'C', 'E'};
constexpr char FooterMagic[8] = {'E', 'C', 'A', 'R',
                                 'T', 'P', 'V', 'L'};

/** The v3 decoders scatter the pc/effAddr/value columns straight into
 *  the TraceRecord array handed to consumeBatch; that requires the
 *  u64 fields to sit on u64-slot boundaries of the struct. */
static_assert(sizeof(TraceRecord) % sizeof(std::uint64_t) == 0);
static_assert(offsetof(TraceRecord, pc) % sizeof(std::uint64_t) == 0);
static_assert(offsetof(TraceRecord, effAddr) %
                  sizeof(std::uint64_t) == 0);
static_assert(offsetof(TraceRecord, value) %
                  sizeof(std::uint64_t) == 0);

constexpr std::size_t RecordStride =
    sizeof(TraceRecord) / sizeof(std::uint64_t);

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

/** True when a v2 record's one-byte fields decode to legal values. */
bool
recordBytesValid(const std::uint8_t *rec)
{
    return rec[24] <= 1 && rec[25] < NumPredStates;
}

/** Parsed header + footer of an open trace file. */
struct Envelope
{
    std::uint64_t fingerprint = 0;
    std::uint64_t records = 0;
    std::uint64_t checksum = 0;
    std::uint32_t version = 0;
    std::uint32_t blockRecords = 0; ///< v3 only
    std::uint64_t numBlocks = 0;    ///< v3 only
    std::uint64_t indexStart = 0;   ///< v3: file offset of the index
    std::uint64_t fileBytes = 0;
};

/**
 * Validate the envelope of @p f and leave the stream positioned at
 * the first payload byte. On failure @p detail explains the
 * specifics.
 */
TraceFileStatus
readEnvelope(std::FILE *f, Envelope &env, std::string &detail)
{
    if (std::fseek(f, 0, SEEK_END) != 0)
        return TraceFileStatus::ReadFailed;
    long size = std::ftell(f);
    if (size < 0)
        return TraceFileStatus::ReadFailed;
    env.fileBytes = static_cast<std::uint64_t>(size);
    if (static_cast<std::size_t>(size) <
        TraceHeaderBytes + TraceFooterBytes) {
        detail = std::to_string(size) + " bytes, need at least " +
                 std::to_string(TraceHeaderBytes + TraceFooterBytes);
        return TraceFileStatus::TooSmall;
    }

    std::array<std::uint8_t, TraceHeaderBytes> hdr;
    if (std::fseek(f, 0, SEEK_SET) != 0 ||
        std::fread(hdr.data(), hdr.size(), 1, f) != 1)
        return TraceFileStatus::ReadFailed;
    if (std::memcmp(hdr.data(), HeaderMagic, sizeof(HeaderMagic)) != 0)
        return TraceFileStatus::BadMagic;
    env.version = getU32(&hdr[8]);
    if (env.version != TraceFormatVersion &&
        env.version != TraceFormatVersionV2) {
        detail = "file version " + std::to_string(env.version) +
                 ", expected " +
                 std::to_string(TraceFormatVersionV2) + " or " +
                 std::to_string(TraceFormatVersion);
        return TraceFileStatus::BadVersion;
    }
    std::uint32_t field = getU32(&hdr[12]);
    if (env.version == TraceFormatVersionV2) {
        if (field != RecordBytes) {
            detail = "record size " + std::to_string(field) +
                     ", expected " + std::to_string(RecordBytes);
            return TraceFileStatus::BadRecordSize;
        }
    } else {
        if (field < 1 || field > TraceMaxBlockRecords) {
            detail = "block records " + std::to_string(field) +
                     " outside [1, " +
                     std::to_string(TraceMaxBlockRecords) + "]";
            return TraceFileStatus::BadRecordSize;
        }
        env.blockRecords = field;
    }
    env.fingerprint = getU64(&hdr[16]);

    std::array<std::uint8_t, TraceFooterBytes> ftr;
    if (std::fseek(f, -static_cast<long>(TraceFooterBytes),
                   SEEK_END) != 0 ||
        std::fread(ftr.data(), ftr.size(), 1, f) != 1)
        return TraceFileStatus::ReadFailed;
    if (std::memcmp(ftr.data(), FooterMagic, sizeof(FooterMagic)) !=
        0) {
        detail = "footer magic missing (interrupted write?)";
        return TraceFileStatus::BadFooter;
    }
    env.records = getU64(&ftr[8]);
    env.checksum = getU64(&ftr[16]);

    std::uint64_t payload = static_cast<std::uint64_t>(size) -
                            TraceHeaderBytes - TraceFooterBytes;
    if (env.version == TraceFormatVersionV2) {
        if (payload % RecordBytes != 0) {
            detail = std::to_string(payload % RecordBytes) +
                     " trailing bytes after " +
                     std::to_string(payload / RecordBytes) +
                     " whole records";
            return TraceFileStatus::PartialRecord;
        }
        if (payload / RecordBytes != env.records) {
            detail = "payload holds " +
                     std::to_string(payload / RecordBytes) +
                     " records, footer promises " +
                     std::to_string(env.records);
            return TraceFileStatus::CountMismatch;
        }
    } else {
        env.numBlocks = env.records / env.blockRecords +
                        (env.records % env.blockRecords != 0 ? 1 : 0);
        if (env.numBlocks > payload / 8) {
            detail = "file too small for a " +
                     std::to_string(env.numBlocks) + "-block index";
            return TraceFileStatus::BadBlock;
        }
        env.indexStart = static_cast<std::uint64_t>(size) -
                         TraceFooterBytes - env.numBlocks * 8;
        std::uint64_t blockArea = env.indexStart - TraceHeaderBytes;
        if (env.numBlocks == 0 && blockArea != 0) {
            detail = std::to_string(blockArea) +
                     " payload bytes but zero records";
            return TraceFileStatus::BadBlock;
        }
        if (blockArea / TraceBlockHeaderBytes < env.numBlocks) {
            detail = std::to_string(blockArea) +
                     " payload bytes cannot hold " +
                     std::to_string(env.numBlocks) + " blocks";
            return TraceFileStatus::BadBlock;
        }
    }

    if (std::fseek(f, static_cast<long>(TraceHeaderBytes),
                   SEEK_SET) != 0)
        return TraceFileStatus::ReadFailed;
    return TraceFileStatus::Ok;
}

/**
 * Read and structurally validate the v3 block index: offsets must
 * start at the first payload byte, strictly increase, and leave every
 * block at least a block header long, tiling [TraceHeaderBytes,
 * indexStart) exactly. Leaves the stream position unspecified.
 */
TraceFileStatus
loadBlockIndex(std::FILE *f, const Envelope &env,
               std::vector<std::uint64_t> &index, std::string &detail)
{
    index.assign(static_cast<std::size_t>(env.numBlocks), 0);
    if (env.numBlocks == 0)
        return TraceFileStatus::Ok;
    if (std::fseek(f, static_cast<long>(env.indexStart), SEEK_SET) !=
        0)
        return TraceFileStatus::ReadFailed;
    std::vector<std::uint8_t> raw(
        static_cast<std::size_t>(env.numBlocks) * 8);
    if (std::fread(raw.data(), raw.size(), 1, f) != 1)
        return TraceFileStatus::ReadFailed;
    for (std::size_t b = 0; b < index.size(); ++b)
        index[b] = getU64(&raw[b * 8]);
    for (std::size_t b = 0; b < index.size(); ++b) {
        std::uint64_t off = index[b];
        std::uint64_t next =
            b + 1 < index.size() ? index[b + 1] : env.indexStart;
        if (b == 0 && off != TraceHeaderBytes) {
            detail = "index[0] = " + std::to_string(off) +
                     ", expected " + std::to_string(TraceHeaderBytes);
            return TraceFileStatus::BadBlock;
        }
        if (next <= off || next - off < TraceBlockHeaderBytes) {
            detail = "block " + std::to_string(b) + " spans [" +
                     std::to_string(off) + ", " +
                     std::to_string(next) + ")";
            return TraceFileStatus::BadBlock;
        }
    }
    return TraceFileStatus::Ok;
}

/** Decoded v3 block header. */
struct BlockHeader
{
    std::uint32_t n = 0;
    std::uint32_t pcBytes = 0;
    std::uint32_t addrBytes = 0;
    std::uint32_t valueBytes = 0;
    std::uint64_t checksum = 0;
};

/**
 * Parse block @p b's header out of its @p len on-disk bytes and
 * cross-check it: the record count must match what the footer promises
 * for this block, and the column sizes must tile the block exactly.
 */
bool
parseBlockHeader(const std::uint8_t *data, std::uint64_t len,
                 std::uint64_t expectN, BlockHeader &bh,
                 std::string &detail)
{
    bh.n = getU32(&data[0]);
    bh.pcBytes = getU32(&data[4]);
    bh.addrBytes = getU32(&data[8]);
    bh.valueBytes = getU32(&data[12]);
    bh.checksum = getU64(&data[16]);
    if (bh.n != expectN) {
        detail = "holds " + std::to_string(bh.n) +
                 " records, expected " + std::to_string(expectN);
        return false;
    }
    std::uint64_t need = TraceBlockHeaderBytes +
                         static_cast<std::uint64_t>(bh.pcBytes) +
                         bh.addrBytes + bh.valueBytes +
                         (static_cast<std::uint64_t>(bh.n) + 7) / 8 +
                         (static_cast<std::uint64_t>(bh.n) + 3) / 4;
    if (need != len) {
        detail = "columns need " + std::to_string(need) +
                 " bytes, block has " + std::to_string(len);
        return false;
    }
    return true;
}

} // namespace

std::uint64_t
programFingerprint(const isa::Program &prog)
{
    std::uint64_t h = FnvOffset;
    auto mixU64 = [&h](std::uint64_t v) {
        std::uint8_t b[8];
        putU64(b, v);
        h = fnv1a(b, sizeof(b), h);
    };
    mixU64(prog.size());
    for (const auto &inst : prog.code()) {
        std::uint8_t b[6] = {
            static_cast<std::uint8_t>(inst.op),
            inst.rd,
            inst.rs1,
            inst.rs2,
            static_cast<std::uint8_t>(inst.cond),
            static_cast<std::uint8_t>(inst.dataClass),
        };
        h = fnv1a(b, sizeof(b), h);
        mixU64(static_cast<std::uint64_t>(inst.imm));
    }
    for (const auto &[addr, byte] : prog.dataImage()) {
        mixU64(addr);
        h = fnv1a(&byte, 1, h);
    }
    for (const auto &[name, addr] : prog.symbols()) {
        h = fnv1a(name.data(), name.size(), h);
        mixU64(addr);
    }
    return h;
}

std::uint64_t
mixFingerprint(std::uint64_t fp, const std::string &salt)
{
    return fnv1a(salt.data(), salt.size(), fp);
}

const char *
traceFileStatusName(TraceFileStatus s)
{
    switch (s) {
      case TraceFileStatus::Ok: return "ok";
      case TraceFileStatus::OpenFailed: return "open-failed";
      case TraceFileStatus::TooSmall: return "too-small";
      case TraceFileStatus::BadMagic: return "bad-magic";
      case TraceFileStatus::BadVersion: return "bad-version";
      case TraceFileStatus::BadRecordSize: return "bad-record-size";
      case TraceFileStatus::BadFingerprint: return "stale-fingerprint";
      case TraceFileStatus::BadFooter: return "bad-footer";
      case TraceFileStatus::PartialRecord: return "partial-record";
      case TraceFileStatus::CountMismatch: return "count-mismatch";
      case TraceFileStatus::BadRecord: return "bad-record";
      case TraceFileStatus::BadBlock: return "bad-block";
      case TraceFileStatus::ChecksumMismatch:
        return "checksum-mismatch";
      case TraceFileStatus::ReadFailed: return "read-failed";
      case TraceFileStatus::WriteFailed: return "write-failed";
    }
    return "?";
}

TraceVerifyReport
verifyTraceFile(const std::string &path,
                std::optional<std::uint64_t> expectFingerprint)
{
    TraceVerifyReport rep;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        rep.status = TraceFileStatus::OpenFailed;
        return rep;
    }
    Envelope env;
    rep.status = readEnvelope(f, env, rep.detail);
    rep.fingerprint = env.fingerprint;
    rep.records = env.records;
    rep.version = env.version;
    rep.fileBytes = env.fileBytes;
    if (rep.status != TraceFileStatus::Ok) {
        std::fclose(f);
        return rep;
    }
    if (expectFingerprint && env.fingerprint != *expectFingerprint) {
        rep.status = TraceFileStatus::BadFingerprint;
        rep.detail = "generating program or run key changed";
        std::fclose(f);
        return rep;
    }
    if (env.version == TraceFormatVersionV2) {
        std::uint64_t checksum = FnvOffset;
        std::array<std::uint8_t, RecordBytes> buf;
        for (std::uint64_t i = 0; i < env.records; ++i) {
            if (std::fread(buf.data(), buf.size(), 1, f) != 1) {
                rep.status = TraceFileStatus::ReadFailed;
                rep.detail =
                    "short read at record " + std::to_string(i);
                std::fclose(f);
                return rep;
            }
            if (!recordBytesValid(buf.data())) {
                rep.status = TraceFileStatus::BadRecord;
                rep.detail = "record " + std::to_string(i) +
                             ": taken=" + std::to_string(buf[24]) +
                             " pred=" + std::to_string(buf[25]);
                std::fclose(f);
                return rep;
            }
            checksum = fnv1a(buf.data(), buf.size(), checksum);
        }
        std::fclose(f);
        if (checksum != env.checksum) {
            rep.status = TraceFileStatus::ChecksumMismatch;
            rep.detail = "payload bytes do not match footer checksum";
        }
        return rep;
    }

    std::vector<std::uint64_t> index;
    rep.status = loadBlockIndex(f, env, index, rep.detail);
    if (rep.status != TraceFileStatus::Ok) {
        std::fclose(f);
        return rep;
    }
    if (std::fseek(f, static_cast<long>(TraceHeaderBytes),
                   SEEK_SET) != 0) {
        rep.status = TraceFileStatus::ReadFailed;
        std::fclose(f);
        return rep;
    }
    std::uint64_t checksum = FnvOffset;
    std::vector<std::uint8_t> buf;
    for (std::size_t b = 0; b < index.size(); ++b) {
        std::uint64_t len =
            (b + 1 < index.size() ? index[b + 1] : env.indexStart) -
            index[b];
        buf.resize(static_cast<std::size_t>(len));
        if (std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
            rep.status = TraceFileStatus::ReadFailed;
            rep.detail = "short read at block " + std::to_string(b);
            std::fclose(f);
            return rep;
        }
        std::uint64_t first =
            static_cast<std::uint64_t>(b) * env.blockRecords;
        std::uint64_t expectN = std::min<std::uint64_t>(
            env.records - first, env.blockRecords);
        BlockHeader bh;
        std::string d;
        if (!parseBlockHeader(buf.data(), len, expectN, bh, d)) {
            rep.status = TraceFileStatus::BadBlock;
            rep.detail = "block " + std::to_string(b) + ": " + d;
            std::fclose(f);
            return rep;
        }
        if (fnv1a(buf.data() + TraceBlockHeaderBytes,
                  buf.size() - TraceBlockHeaderBytes) != bh.checksum) {
            rep.status = TraceFileStatus::ChecksumMismatch;
            rep.detail = "block " + std::to_string(b) +
                         " payload does not match its checksum";
            std::fclose(f);
            return rep;
        }
        checksum = fnv1a(buf.data(), buf.size(), checksum);
    }
    std::fclose(f);
    if (checksum != env.checksum) {
        rep.status = TraceFileStatus::ChecksumMismatch;
        rep.detail = "payload bytes do not match footer checksum";
    }
    return rep;
}

TraceVerifyReport
migrateTraceFile(const std::string &path)
{
    TraceVerifyReport rep = verifyTraceFile(path);
    if (!rep.ok() || rep.version == TraceFormatVersion)
        return rep;

    // Unique sibling temp, same `<name>.trace.tmp.<pid>.<n>` shape the
    // run-cache writers publish through (and the cache scanner prunes).
    static std::atomic<std::uint64_t> tempSeq{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                      "." + std::to_string(tempSeq.fetch_add(1));

    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (!in) {
        rep.status = TraceFileStatus::OpenFailed;
        return rep;
    }
    Envelope env;
    std::string detail;
    TraceFileStatus st = readEnvelope(in, env, detail);
    if (st != TraceFileStatus::Ok ||
        env.version != TraceFormatVersionV2) {
        // The file changed between verify and transcode; re-report.
        std::fclose(in);
        return verifyTraceFile(path);
    }

    TraceFileWriter out(tmp, env.fingerprint);
    std::array<std::uint8_t, RecordBytes> buf;
    bool readOk = true;
    for (std::uint64_t i = 0; i < env.records; ++i) {
        if (std::fread(buf.data(), buf.size(), 1, in) != 1) {
            readOk = false;
            break;
        }
        out.appendRaw(getU64(&buf[0]), getU64(&buf[8]),
                      getU64(&buf[16]), buf[24] != 0,
                      static_cast<PredState>(buf[25]));
    }
    std::fclose(in);
    if (!readOk || !out.close()) {
        std::remove(tmp.c_str());
        rep.status = TraceFileStatus::WriteFailed;
        rep.detail = !readOk ? "source shrank during transcode"
                             : out.error();
        return rep;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        rep.status = TraceFileStatus::WriteFailed;
        rep.detail = "cannot rename temp over original";
        return rep;
    }
    return verifyTraceFile(path);
}

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 std::uint64_t fingerprint,
                                 const TraceWriterOptions &opts)
    : file_(std::fopen(path.c_str(), "wb")), path_(path),
      fingerprint_(fingerprint), opts_(opts), checksum_(FnvOffset)
{
    if (!file_) {
        fail("cannot open for writing");
        return;
    }
    bool v2 = opts_.version == TraceFormatVersionV2;
    if ((opts_.version != TraceFormatVersion && !v2) ||
        (!v2 && (opts_.blockRecords < 1 ||
                 opts_.blockRecords > TraceMaxBlockRecords))) {
        fail("unsupported trace writer options");
        return;
    }
    wbuf_.reserve(WriterBufBytes + RecordBytes);
    if (!v2) {
        std::size_t stage = std::min<std::size_t>(
            opts_.blockRecords, TraceBlockRecords);
        stagePc_.reserve(stage);
        stageAddr_.reserve(stage);
        stageVal_.reserve(stage);
        stageTaken_.reserve(stage);
        stagePred_.reserve(stage);
    }
    fileOffset_ = TraceHeaderBytes;
    std::array<std::uint8_t, TraceHeaderBytes> hdr;
    std::memcpy(hdr.data(), HeaderMagic, sizeof(HeaderMagic));
    putU32(&hdr[8], opts_.version);
    putU32(&hdr[12], v2 ? static_cast<std::uint32_t>(RecordBytes)
                        : opts_.blockRecords);
    putU64(&hdr[16], fingerprint_);
    if (std::fwrite(hdr.data(), hdr.size(), 1, file_) != 1)
        fail("header write failed");
}

TraceFileWriter::~TraceFileWriter()
{
    if (!closed_ && !close())
        lvp_warn("trace file '%s': %s", path_.c_str(),
                 error_.c_str());
}

void
TraceFileWriter::fail(const std::string &what)
{
    if (!failed_) {
        failed_ = true;
        error_ = what;
    }
}

void
TraceFileWriter::appendRaw(Addr pc, Addr addrSlot, Word value,
                           bool taken, PredState pred)
{
    if (failed_)
        return;
    if (chaos::engine().shouldInject(chaos::Point::TraceWriteRecord,
                                     fingerprint_, written_)) {
        fail("chaos: injected record write failure");
        return;
    }
    if (opts_.version == TraceFormatVersionV2) {
        std::array<std::uint8_t, RecordBytes> buf;
        putU64(&buf[0], pc);
        putU64(&buf[8], addrSlot);
        putU64(&buf[16], value);
        buf[24] = taken ? 1 : 0;
        buf[25] = static_cast<std::uint8_t>(pred);
        wbuf_.insert(wbuf_.end(), buf.begin(), buf.end());
        checksum_ = fnv1a(buf.data(), buf.size(), checksum_);
        ++written_;
        if (wbuf_.size() >= WriterBufBytes)
            flushBuffer();
        return;
    }
    stagePc_.push_back(pc);
    stageAddr_.push_back(addrSlot);
    stageVal_.push_back(value);
    stageTaken_.push_back(taken ? 1 : 0);
    stagePred_.push_back(static_cast<std::uint8_t>(pred));
    ++written_;
    if (stagePc_.size() >= opts_.blockRecords)
        encodeBlock();
}

void
TraceFileWriter::encodeBlock()
{
    std::size_t n = stagePc_.size();
    if (n == 0 || failed_)
        return;
    colBuf_.assign(TraceBlockHeaderBytes, 0);
    std::size_t at = colBuf_.size();
    encodeDeltaColumn(stagePc_.data(), n, colBuf_);
    std::uint32_t pcBytes =
        static_cast<std::uint32_t>(colBuf_.size() - at);
    at = colBuf_.size();
    encodeSparseColumn(stageAddr_.data(), n, colBuf_);
    std::uint32_t addrBytes =
        static_cast<std::uint32_t>(colBuf_.size() - at);
    at = colBuf_.size();
    encodeSparseColumn(stageVal_.data(), n, colBuf_);
    std::uint32_t valueBytes =
        static_cast<std::uint32_t>(colBuf_.size() - at);
    packBits(stageTaken_.data(), n, colBuf_);
    packCrumbs(stagePred_.data(), n, colBuf_);
    putU32(&colBuf_[0], static_cast<std::uint32_t>(n));
    putU32(&colBuf_[4], pcBytes);
    putU32(&colBuf_[8], addrBytes);
    putU32(&colBuf_[12], valueBytes);
    putU64(&colBuf_[16],
           fnv1a(colBuf_.data() + TraceBlockHeaderBytes,
                 colBuf_.size() - TraceBlockHeaderBytes));
    index_.push_back(fileOffset_);
    fileOffset_ += colBuf_.size();
    checksum_ = fnv1a(colBuf_.data(), colBuf_.size(), checksum_);
    wbuf_.insert(wbuf_.end(), colBuf_.begin(), colBuf_.end());
    stagePc_.clear();
    stageAddr_.clear();
    stageVal_.clear();
    stageTaken_.clear();
    stagePred_.clear();
    if (wbuf_.size() >= WriterBufBytes)
        flushBuffer();
}

void
TraceFileWriter::flushBuffer()
{
    if (wbuf_.empty())
        return;
    // A latched failure discards the whole file; dropping the
    // buffered bytes just gets there faster.
    if (!failed_ &&
        std::fwrite(wbuf_.data(), 1, wbuf_.size(), file_) !=
            wbuf_.size())
        fail("record write failed (disk full?)");
    wbuf_.clear();
}

void
TraceFileWriter::consume(const TraceRecord &rec)
{
    // Memory ops use the second slot for their effective address;
    // indirect branches reuse it for their target (the fields are
    // mutually exclusive, keeping the encoded record compact).
    bool indirect = rec.inst && isa::isIndirectBranch(rec.inst->op);
    appendRaw(rec.pc, indirect ? rec.nextPc : rec.effAddr, rec.value,
              rec.taken, rec.pred);
}

void
TraceFileWriter::consumeBatch(std::span<const TraceRecord> recs)
{
    for (const TraceRecord &rec : recs)
        consume(rec);
}

void
TraceFileWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (failed_)
        return;
    if (opts_.version == TraceFormatVersion)
        encodeBlock(); // drain the partial tail block
    flushBuffer();
    if (failed_)
        return;
    if (chaos::engine().shouldInject(chaos::Point::TraceWriteFooter,
                                     fingerprint_, 0)) {
        fail("chaos: injected footer write failure");
        return;
    }
    if (opts_.version == TraceFormatVersion && !index_.empty()) {
        std::vector<std::uint8_t> idx(index_.size() * 8);
        for (std::size_t b = 0; b < index_.size(); ++b)
            putU64(&idx[b * 8], index_[b]);
        if (std::fwrite(idx.data(), idx.size(), 1, file_) != 1) {
            fail("index write failed (disk full?)");
            return;
        }
    }
    std::array<std::uint8_t, TraceFooterBytes> ftr;
    std::memcpy(ftr.data(), FooterMagic, sizeof(FooterMagic));
    putU64(&ftr[8], written_);
    putU64(&ftr[16], checksum_);
    if (std::fwrite(ftr.data(), ftr.size(), 1, file_) != 1) {
        fail("footer write failed (disk full?)");
        return;
    }
    if (std::fflush(file_) != 0)
        fail("flush failed (disk full?)");
}

bool
TraceFileWriter::close()
{
    if (closed_)
        return !failed_;
    closed_ = true;
    finish();
    if (file_) {
        if (std::fclose(file_) != 0)
            fail("close failed (disk full?)");
        file_ = nullptr;
    }
    return !failed_;
}

TraceFileReader::TraceFileReader(
    const std::string &path, const isa::Program &prog,
    std::optional<std::uint64_t> expectFingerprint)
    : file_(std::fopen(path.c_str(), "rb")), prog_(prog), path_(path),
      checksum_(FnvOffset)
{
    if (!file_)
        throw SimError(ErrorKind::TraceIo,
                       detail::formatMsg(
                           "cannot open trace file '%s' for reading",
                           path.c_str()));
    Envelope env;
    std::string detailStr;
    TraceFileStatus st = readEnvelope(file_, env, detailStr);
    if (st != TraceFileStatus::Ok) {
        // The destructor will not run when the constructor throws:
        // close the stream here.
        std::fclose(file_);
        file_ = nullptr;
        throw SimError(ErrorKind::TraceCorrupt,
                       detail::formatMsg(
                           "invalid trace file '%s': %s%s%s",
                           path.c_str(), traceFileStatusName(st),
                           detailStr.empty() ? "" : ": ",
                           detailStr.c_str()));
    }
    if (expectFingerprint && env.fingerprint != *expectFingerprint) {
        std::fclose(file_);
        file_ = nullptr;
        throw SimError(
            ErrorKind::TraceCorrupt,
            detail::formatMsg(
                "invalid trace file '%s': %s (have %016llx, "
                "expected %016llx)",
                path.c_str(),
                traceFileStatusName(TraceFileStatus::BadFingerprint),
                static_cast<unsigned long long>(env.fingerprint),
                static_cast<unsigned long long>(*expectFingerprint)));
    }
    records_ = env.records;
    version_ = env.version;
    fingerprint_ = env.fingerprint;
    expectChecksum_ = env.checksum;
    if (version_ == TraceFormatVersionV2) {
        iobuf_.resize(
            static_cast<std::size_t>(std::min<std::uint64_t>(
                records_, ReaderBufRecords)) *
            RecordBytes);
        return;
    }
    blockRecords_ = env.blockRecords;
    indexStart_ = env.indexStart;
    st = loadBlockIndex(file_, env, index_, detailStr);
    if (st == TraceFileStatus::Ok &&
        std::fseek(file_, static_cast<long>(TraceHeaderBytes),
                   SEEK_SET) != 0)
        st = TraceFileStatus::ReadFailed;
    if (st != TraceFileStatus::Ok) {
        std::fclose(file_);
        file_ = nullptr;
        throw SimError(ErrorKind::TraceCorrupt,
                       detail::formatMsg(
                           "invalid trace file '%s': %s%s%s",
                           path.c_str(), traceFileStatusName(st),
                           detailStr.empty() ? "" : ": ",
                           detailStr.c_str()));
    }
    filePos_ = TraceHeaderBytes;
    prefetch_ =
        envUnsigned("LVPLIB_TRACE_PREFETCH").value_or(1) != 0;
    decoded_.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(records_, blockRecords_)));
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

void
TraceFileReader::corrupt(const std::string &what) const
{
    throw SimError(ErrorKind::TraceCorrupt,
                   detail::formatMsg("invalid trace file '%s': %s",
                                     path_.c_str(), what.c_str()));
}

void
TraceFileReader::fillBuffer()
{
    std::uint64_t want = std::min<std::uint64_t>(
        records_ - seq_, ReaderBufRecords);
    std::size_t got = std::fread(
        iobuf_.data(), 1,
        static_cast<std::size_t>(want) * RecordBytes, file_);
    // The envelope fixed the file size at open, so a short fill
    // means the file shrank underneath us. Hand back any whole
    // records we did get; the next fill throws at the first record
    // we cannot deliver. Re-align the stream past a partial tail so
    // the failing position is reported exactly once.
    if (std::size_t tail = got % RecordBytes; tail != 0)
        std::fseek(file_, -static_cast<long>(tail), SEEK_CUR);
    std::size_t whole = got / RecordBytes;
    if (whole == 0)
        corrupt(detail::formatMsg(
            "truncated at record %llu of %llu",
            static_cast<unsigned long long>(seq_),
            static_cast<unsigned long long>(records_)));
    bufPos_ = 0;
    bufLen_ = whole * RecordBytes;
}

bool
TraceFileReader::nextV2(TraceRecord &rec)
{
    if (bufPos_ == bufLen_)
        fillBuffer();
    std::uint8_t *buf = iobuf_.data() + bufPos_;
    bufPos_ += RecordBytes;
    if (chaos::engine().enabled() &&
        chaos::engine().shouldInject(chaos::Point::TraceReadFlip,
                                     fingerprint_, seq_)) {
        // Flip one bit of the record as read; the flip is caught by
        // record validation or by the end-of-trace checksum, never
        // silently accepted.
        std::uint64_t h = chaos::engine().faultHash(
            chaos::Point::TraceReadFlip, fingerprint_, seq_);
        buf[h % RecordBytes] ^=
            static_cast<std::uint8_t>(1u << ((h >> 8) % 8));
    }
    if (!recordBytesValid(buf))
        corrupt(detail::formatMsg(
            "%s at record %llu (taken=%u pred=%u)",
            traceFileStatusName(TraceFileStatus::BadRecord),
            static_cast<unsigned long long>(seq_), buf[24], buf[25]));
    checksum_ = fnv1a(buf, RecordBytes, checksum_);
    rec.seq = seq_++;
    rec.pc = getU64(&buf[0]);
    rec.effAddr = getU64(&buf[8]);
    rec.value = getU64(&buf[16]);
    rec.destValue = 0;
    rec.taken = buf[24] != 0;
    rec.pred = static_cast<PredState>(buf[25]);
    if (!prog_.validPc(rec.pc))
        corrupt(detail::formatMsg(
            "record %llu names pc 0x%llx outside the program",
            static_cast<unsigned long long>(rec.seq),
            static_cast<unsigned long long>(rec.pc)));
    rec.inst = &prog_.fetch(rec.pc);
    // Reconstruct the architectural successor.
    if (rec.inst->op == isa::Opcode::HALT) {
        rec.nextPc = rec.pc;
    } else if (rec.inst->branch() && rec.taken) {
        if (isa::isIndirectBranch(rec.inst->op)) {
            // Indirect targets are not stored; they are only needed
            // by the branch predictor, which reads nextPc. Recover
            // it from the addr-slot convention above.
            rec.nextPc = rec.effAddr;
        } else {
            rec.nextPc = static_cast<Addr>(rec.inst->imm);
        }
    } else {
        rec.nextPc = rec.pc + isa::layout::InstBytes;
    }
    return true;
}

std::uint64_t
TraceFileReader::blockBytes(std::uint64_t b) const
{
    return (b + 1 < index_.size() ? index_[b + 1] : indexStart_) -
           index_[b];
}

void
TraceFileReader::loadBlockFor(std::uint64_t seq)
{
    std::uint64_t b = seq / blockRecords_;
    std::uint64_t len = blockBytes(b);
    if (pblockLen_ > 0 && pblockBlock_ == b) {
        cblock_.swap(pblock_);
        pblockLen_ = 0;
    } else {
        pblockLen_ = 0; // any read-ahead is for the wrong block now
        if (filePos_ != index_[b]) {
            if (std::fseek(file_, static_cast<long>(index_[b]),
                           SEEK_SET) != 0)
                throw SimError(
                    ErrorKind::TraceIo,
                    detail::formatMsg(
                        "cannot seek to block %llu in '%s'",
                        static_cast<unsigned long long>(b),
                        path_.c_str()));
            filePos_ = index_[b];
        }
        cblock_.resize(static_cast<std::size_t>(len));
        if (std::fread(cblock_.data(), 1, cblock_.size(), file_) !=
            cblock_.size())
            corrupt(detail::formatMsg(
                "truncated at block %llu of %llu",
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(index_.size())));
        filePos_ += len;
    }
    // Read the next compressed block behind the current decode and
    // sweep it into cache, so the fread + decode of block b+1 starts
    // warm (LVPLIB_TRACE_PREFETCH=0 disables).
    std::uint64_t nb = b + 1;
    if (prefetch_ && nb < index_.size()) {
        std::uint64_t plen = blockBytes(nb);
        bool ok = filePos_ == index_[nb] ||
                  std::fseek(file_, static_cast<long>(index_[nb]),
                             SEEK_SET) == 0;
        if (ok) {
            filePos_ = index_[nb];
            pblock_.resize(static_cast<std::size_t>(plen));
            if (std::fread(pblock_.data(), 1, pblock_.size(),
                           file_) == pblock_.size()) {
                filePos_ += plen;
                pblockLen_ = pblock_.size();
                pblockBlock_ = nb;
                for (std::size_t i = 0; i < pblock_.size(); i += 64)
                    __builtin_prefetch(pblock_.data() + i);
            }
        }
        if (pblockLen_ == 0) {
            // Defer the error: the retry when the block is actually
            // needed reports truncation with the right context.
            std::clearerr(file_);
            filePos_ = static_cast<std::uint64_t>(-1);
        }
    }
    decodeBlock(b, cblock_.data(), static_cast<std::size_t>(len));
    decPos_ = static_cast<std::size_t>(
        seq - b * static_cast<std::uint64_t>(blockRecords_));
}

void
TraceFileReader::decodeBlock(std::uint64_t b, std::uint8_t *data,
                             std::size_t len)
{
    std::uint64_t first = b * static_cast<std::uint64_t>(blockRecords_);
    std::uint64_t expectN =
        std::min<std::uint64_t>(records_ - first, blockRecords_);
    std::size_t payloadLen = len - TraceBlockHeaderBytes;
    if (chaos::engine().enabled() && payloadLen > 0) {
        // Chaos read-flips hit the compressed bytes; the per-block
        // checksum catches them, never a silently-wrong decode.
        for (std::uint64_t s = first; s < first + expectN; ++s) {
            if (!chaos::engine().shouldInject(
                    chaos::Point::TraceReadFlip, fingerprint_, s))
                continue;
            std::uint64_t h = chaos::engine().faultHash(
                chaos::Point::TraceReadFlip, fingerprint_, s);
            data[TraceBlockHeaderBytes + h % payloadLen] ^=
                static_cast<std::uint8_t>(1u << ((h >> 8) % 8));
        }
    }
    BlockHeader bh;
    std::string d;
    if (!parseBlockHeader(data, len, expectN, bh, d))
        corrupt(std::string(traceFileStatusName(
                    TraceFileStatus::BadBlock)) +
                " at block " + std::to_string(b) + ": " + d);
    if (fnv1a(data + TraceBlockHeaderBytes, payloadLen) !=
        bh.checksum)
        corrupt(std::string(traceFileStatusName(
                    TraceFileStatus::ChecksumMismatch)) +
                " at block " + std::to_string(b));
    checksum_ = fnv1a(data, len, checksum_);

    decoded_.resize(static_cast<std::size_t>(expectN));
    auto *base = reinterpret_cast<std::uint8_t *>(decoded_.data());
    auto slot = [base](std::size_t off) {
        return reinterpret_cast<std::uint64_t *>(base + off);
    };
    const std::uint8_t *pcCol = data + TraceBlockHeaderBytes;
    const std::uint8_t *addrCol = pcCol + bh.pcBytes;
    const std::uint8_t *valCol = addrCol + bh.addrBytes;
    const std::uint8_t *takenBits = valCol + bh.valueBytes;
    const std::uint8_t *predBits =
        takenBits + (static_cast<std::size_t>(expectN) + 7) / 8;
    std::size_t n = static_cast<std::size_t>(expectN);
    if (!decodeDeltaColumn(pcCol, bh.pcBytes,
                           slot(offsetof(TraceRecord, pc)), n,
                           RecordStride) ||
        !decodeSparseColumn(addrCol, bh.addrBytes,
                            slot(offsetof(TraceRecord, effAddr)), n,
                            RecordStride) ||
        !decodeSparseColumn(valCol, bh.valueBytes,
                            slot(offsetof(TraceRecord, value)), n,
                            RecordStride))
        corrupt(std::string(traceFileStatusName(
                    TraceFileStatus::BadBlock)) +
                " at block " + std::to_string(b) +
                ": column payload malformed");

    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord &rec = decoded_[i];
        rec.seq = first + i;
        rec.destValue = 0;
        rec.taken = unpackBit(takenBits, i);
        rec.pred = static_cast<PredState>(unpackCrumb(predBits, i));
        if (!prog_.validPc(rec.pc))
            corrupt(detail::formatMsg(
                "record %llu names pc 0x%llx outside the program",
                static_cast<unsigned long long>(rec.seq),
                static_cast<unsigned long long>(rec.pc)));
        rec.inst = &prog_.fetch(rec.pc);
        // Reconstruct the architectural successor (identical to the
        // v2 reader, so both formats replay the same stream).
        if (rec.inst->op == isa::Opcode::HALT) {
            rec.nextPc = rec.pc;
        } else if (rec.inst->branch() && rec.taken) {
            rec.nextPc = isa::isIndirectBranch(rec.inst->op)
                             ? rec.effAddr
                             : static_cast<Addr>(rec.inst->imm);
        } else {
            rec.nextPc = rec.pc + isa::layout::InstBytes;
        }
    }
}

bool
TraceFileReader::nextV3(TraceRecord &rec)
{
    if (decPos_ == decoded_.size())
        loadBlockFor(seq_);
    rec = decoded_[decPos_++];
    ++seq_;
    return true;
}

bool
TraceFileReader::next(TraceRecord &rec)
{
    if (seq_ == records_) {
        if (checksum_ != expectChecksum_)
            corrupt(traceFileStatusName(
                TraceFileStatus::ChecksumMismatch));
        return false;
    }
    return version_ == TraceFormatVersionV2 ? nextV2(rec)
                                            : nextV3(rec);
}

std::uint64_t
TraceFileReader::replay(TraceSink &sink)
{
    obs::Counter &batches =
        obs::metrics().counter("trace.replay.batches");
    obs::Counter &batchRecords =
        obs::metrics().counter("trace.replay.batch_records");
    if (version_ == TraceFormatVersionV2) {
        // At least one slot so an empty trace still runs the
        // end-of-trace checksum verification in next().
        std::vector<TraceRecord> batch(static_cast<std::size_t>(
            std::max<std::uint64_t>(
                1, std::min<std::uint64_t>(records_ - seq_,
                                           ReplayBatchRecords))));
        std::uint64_t n = 0;
        for (;;) {
            std::size_t k = 0;
            while (k < batch.size() && next(batch[k]))
                ++k;
            if (k == 0)
                break;
            sink.consumeBatch(std::span<const TraceRecord>(
                batch.data(), k));
            batches.add();
            batchRecords.add(k);
            n += k;
            if (k < batch.size())
                break;
        }
        sink.finish();
        return n;
    }
    // v3: each decoded block IS the batch — consumeBatch sees spans
    // of the reader's own block buffer, with no intermediate copy.
    std::uint64_t n = 0;
    while (seq_ < records_) {
        if (decPos_ == decoded_.size())
            loadBlockFor(seq_);
        std::size_t k = static_cast<std::size_t>(
            std::min<std::uint64_t>(decoded_.size() - decPos_,
                                    records_ - seq_));
        sink.consumeBatch(std::span<const TraceRecord>(
            decoded_.data() + decPos_, k));
        batches.add();
        batchRecords.add(k);
        decPos_ += k;
        seq_ += k;
        n += k;
    }
    if (checksum_ != expectChecksum_)
        corrupt(
            traceFileStatusName(TraceFileStatus::ChecksumMismatch));
    sink.finish();
    return n;
}

} // namespace lvplib::trace
