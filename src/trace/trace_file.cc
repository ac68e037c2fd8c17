#include "trace/trace_file.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <memory>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"
#include "trace/columnar.hh"
#include "util/logging.hh"

namespace lvplib::trace
{

namespace
{

/**
 * The writer flushes its encode buffer once it holds WriterBufBytes:
 * comfortably above the stdio / page-cache transfer granularity while
 * staying cache-friendly.
 */
constexpr std::size_t WriterBufBytes = 1u << 20;

constexpr char HeaderMagic[8] = {'L', 'V', 'P', 'T',
                                 'R', 'A', 'C', 'E'};
constexpr char FooterMagic[8] = {'E', 'C', 'A', 'R',
                                 'T', 'P', 'V', 'L'};

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

/** Parsed header + footer of an open trace file. */
struct Envelope
{
    std::uint64_t fingerprint = 0;
    std::uint64_t records = 0;
    std::uint64_t checksum = 0;
    std::uint32_t version = 0;
    std::uint32_t blockRecords = 0;
    std::uint64_t numBlocks = 0;
    std::uint64_t indexStart = 0; ///< file offset of the index
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
    if (env.version != TraceFormatVersion) {
        detail = "file version " + std::to_string(env.version) +
                 ", expected " + std::to_string(TraceFormatVersion);
        return TraceFileStatus::BadVersion;
    }
    env.blockRecords = getU32(&hdr[12]);
    if (env.blockRecords < 1 || env.blockRecords > TraceMaxBlockRecords) {
        detail = "block records " + std::to_string(env.blockRecords) +
                 " outside [1, " + std::to_string(TraceMaxBlockRecords) +
                 "]";
        return TraceFileStatus::BadRecordSize;
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

    if (std::fseek(f, static_cast<long>(TraceHeaderBytes),
                   SEEK_SET) != 0)
        return TraceFileStatus::ReadFailed;
    return TraceFileStatus::Ok;
}

/**
 * Read and structurally validate the block index: offsets must
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

/** Decoded block header. */
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
                         (static_cast<std::uint64_t>(bh.n) + 7) / 8;
    if (need != len) {
        detail = "columns need " + std::to_string(need) +
                 " bytes, block has " + std::to_string(len);
        return false;
    }
    return true;
}

/** A block's payload bytes: everything after its header. */
std::uint64_t
payloadChecksum(const std::uint8_t *block, std::size_t len)
{
    return hash64(block + TraceBlockHeaderBytes,
                  len - TraceBlockHeaderBytes);
}

/** Fold one block header, which holds its payload's checksum, into
 *  the footer's checksum @p chain. */
std::uint64_t
chainBlockHeader(std::uint64_t chain, const std::uint8_t *block)
{
    return hash64(block, TraceBlockHeaderBytes, chain);
}

/**
 * Check a block's @p len on-disk bytes: its header against the
 * footer (parseBlockHeader) and its payload against the header's
 * checksum. A good block's header is folded into @p chain. @p detail
 * explains a BadBlock.
 */
TraceFileStatus
checkBlock(const std::uint8_t *data, std::uint64_t len,
           std::uint64_t expectN, BlockHeader &bh, std::uint64_t &chain,
           std::string &detail)
{
    if (!parseBlockHeader(data, len, expectN, bh, detail))
        return TraceFileStatus::BadBlock;
    if (payloadChecksum(data, static_cast<std::size_t>(len)) !=
        bh.checksum)
        return TraceFileStatus::ChecksumMismatch;
    chain = chainBlockHeader(chain, data);
    return TraceFileStatus::Ok;
}

/** The reader's reason for a block that failed checkBlock(). */
std::string
blockError(std::uint64_t b, TraceFileStatus st, const std::string &detail)
{
    return std::string(traceFileStatusName(st)) + " at block " +
           std::to_string(b) + (detail.empty() ? "" : ": " + detail);
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
      case TraceFileStatus::BadBlock: return "bad-block";
      case TraceFileStatus::ChecksumMismatch:
        return "checksum-mismatch";
      case TraceFileStatus::ReadFailed: return "read-failed";
    }
    return "?";
}

TraceVerifyReport
verifyTraceFile(const std::string &path,
                std::optional<std::uint64_t> expectFingerprint)
{
    TraceVerifyReport rep;
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> file(
        std::fopen(path.c_str(), "rb"), &std::fclose);
    std::FILE *f = file.get();
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
    if (rep.status != TraceFileStatus::Ok)
        return rep;
    if (expectFingerprint && env.fingerprint != *expectFingerprint) {
        rep.status = TraceFileStatus::BadFingerprint;
        rep.detail = "generating program or run key changed";
        return rep;
    }
    std::vector<std::uint64_t> index;
    rep.status = loadBlockIndex(f, env, index, rep.detail);
    if (rep.status != TraceFileStatus::Ok)
        return rep;
    if (std::fseek(f, static_cast<long>(TraceHeaderBytes),
                   SEEK_SET) != 0) {
        rep.status = TraceFileStatus::ReadFailed;
        return rep;
    }
    std::uint64_t chain = 0;
    std::vector<std::uint8_t> buf;
    for (std::size_t b = 0; b < index.size(); ++b) {
        std::uint64_t len =
            (b + 1 < index.size() ? index[b + 1] : env.indexStart) -
            index[b];
        buf.resize(static_cast<std::size_t>(len));
        if (std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
            rep.status = TraceFileStatus::ReadFailed;
            rep.detail = "short read at block " + std::to_string(b);
            return rep;
        }
        std::uint64_t first =
            static_cast<std::uint64_t>(b) * env.blockRecords;
        std::uint64_t expectN = std::min<std::uint64_t>(
            env.records - first, env.blockRecords);
        BlockHeader bh;
        std::string d;
        rep.status = checkBlock(buf.data(), len, expectN, bh, chain, d);
        if (rep.status != TraceFileStatus::Ok) {
            rep.detail = "block " + std::to_string(b) +
                         (d.empty() ? " payload does not match its checksum"
                                    : ": " + d);
            return rep;
        }
    }
    if (chain != env.checksum) {
        rep.status = TraceFileStatus::ChecksumMismatch;
        rep.detail = "block headers do not match footer checksum";
    }
    return rep;
}

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 std::uint64_t fingerprint,
                                 const TraceWriterOptions &opts)
    : file_(std::fopen(path.c_str(), "wb")), path_(path),
      fingerprint_(fingerprint), opts_(opts)
{
    if (!file_) {
        fail("cannot open for writing");
        return;
    }
    if (opts_.blockRecords < 1 ||
        opts_.blockRecords > TraceMaxBlockRecords) {
        fail("unsupported trace writer options");
        return;
    }
    wbuf_.reserve(WriterBufBytes);
    std::size_t stage =
        std::min<std::size_t>(opts_.blockRecords, TraceBlockRecords);
    stagePc_.reserve(stage);
    stageAddr_.reserve(stage);
    stageVal_.reserve(stage);
    stageTaken_.reserve(stage);
    fileOffset_ = TraceHeaderBytes;
    std::array<std::uint8_t, TraceHeaderBytes> hdr;
    std::memcpy(hdr.data(), HeaderMagic, sizeof(HeaderMagic));
    putU32(&hdr[8], TraceFormatVersion);
    putU32(&hdr[12], opts_.blockRecords);
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
                           bool taken)
{
    if (failed_)
        return;
    if (chaos::engine().shouldInject(chaos::Point::TraceWriteRecord,
                                     fingerprint_, written_)) {
        fail("chaos: injected record write failure");
        return;
    }
    stagePc_.push_back(pc);
    stageAddr_.push_back(addrSlot);
    stageVal_.push_back(value);
    stageTaken_.push_back(taken ? 1 : 0);
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
    putU32(&colBuf_[0], static_cast<std::uint32_t>(n));
    putU32(&colBuf_[4], pcBytes);
    putU32(&colBuf_[8], addrBytes);
    putU32(&colBuf_[12], valueBytes);
    putU64(&colBuf_[16], payloadChecksum(colBuf_.data(), colBuf_.size()));
    index_.push_back(fileOffset_);
    fileOffset_ += colBuf_.size();
    checksum_ = chainBlockHeader(checksum_, colBuf_.data());
    wbuf_.insert(wbuf_.end(), colBuf_.begin(), colBuf_.end());
    stagePc_.clear();
    stageAddr_.clear();
    stageVal_.clear();
    stageTaken_.clear();
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
              rec.taken);
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
    encodeBlock(); // drain the partial tail block
    flushBuffer();
    if (failed_)
        return;
    if (chaos::engine().shouldInject(chaos::Point::TraceWriteFooter,
                                     fingerprint_, 0)) {
        fail("chaos: injected footer write failure");
        return;
    }
    if (!index_.empty()) {
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
    : file_(std::fopen(path.c_str(), "rb")), prog_(prog), path_(path)
{
    if (!file_)
        throw SimError(ErrorKind::TraceIo,
                       detail::formatMsg(
                           "cannot open trace file '%s' for reading",
                           path.c_str()));
    Envelope env;
    std::string detailStr;
    // The destructor will not run when the constructor throws: close
    // the stream first.
    auto invalid = [&](TraceFileStatus st, const std::string &more) {
        std::fclose(file_);
        file_ = nullptr;
        corrupt(traceFileStatusName(st) + more);
    };
    TraceFileStatus st = readEnvelope(file_, env, detailStr);
    if (st != TraceFileStatus::Ok)
        invalid(st, detailStr.empty() ? "" : ": " + detailStr);
    if (expectFingerprint && env.fingerprint != *expectFingerprint)
        invalid(TraceFileStatus::BadFingerprint,
                detail::formatMsg(
                    " (have %016llx, expected %016llx)",
                    static_cast<unsigned long long>(env.fingerprint),
                    static_cast<unsigned long long>(*expectFingerprint)));
    records_ = env.records;
    fingerprint_ = env.fingerprint;
    expectChecksum_ = env.checksum;
    blockRecords_ = env.blockRecords;
    indexStart_ = env.indexStart;
    st = loadBlockIndex(file_, env, index_, detailStr);
    if (st == TraceFileStatus::Ok &&
        std::fseek(file_, static_cast<long>(TraceHeaderBytes),
                   SEEK_SET) != 0)
        st = TraceFileStatus::ReadFailed;
    if (st != TraceFileStatus::Ok)
        invalid(st, detailStr.empty() ? "" : ": " + detailStr);
    filePos_ = TraceHeaderBytes;
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

std::uint64_t
TraceFileReader::blockBytes(std::uint64_t b) const
{
    return (b + 1 < index_.size() ? index_[b + 1] : indexStart_) -
           index_[b];
}

void
TraceFileReader::readBlock(std::uint64_t b)
{
    std::uint64_t len = blockBytes(b);
    if (filePos_ != index_[b]) {
        if (std::fseek(file_, static_cast<long>(index_[b]), SEEK_SET) !=
            0)
            throw SimError(ErrorKind::TraceIo,
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

void
TraceFileReader::loadBlockFor(std::uint64_t seq)
{
    std::uint64_t b = seq / blockRecords_;
    readBlock(b);
    decodeBlock(b, cblock_.data(), cblock_.size());
    decPos_ = static_cast<std::size_t>(
        seq - b * static_cast<std::uint64_t>(blockRecords_));
}

void
TraceFileReader::skipTo(std::uint64_t seq)
{
    lvp_assert(seq >= seq_ && seq <= records_ &&
               decPos_ == decoded_.size() &&
               (seq % blockRecords_ == 0 || seq == records_));
    for (std::uint64_t b = seq_ / blockRecords_; b * blockRecords_ < seq;
         ++b) {
        // Not decoded, but checked like a decoded block: the footer
        // checksum covers only the block headers.
        readBlock(b);
        BlockHeader bh;
        std::string d;
        std::uint64_t expectN = std::min<std::uint64_t>(
            records_ - b * blockRecords_, blockRecords_);
        if (TraceFileStatus st = checkBlock(cblock_.data(), cblock_.size(),
                                            expectN, bh, checksum_, d);
            st != TraceFileStatus::Ok)
            corrupt(blockError(b, st, d));
    }
    seq_ = seq;
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
    if (TraceFileStatus st =
            checkBlock(data, len, expectN, bh, checksum_, d);
        st != TraceFileStatus::Ok)
        corrupt(blockError(b, st, d));

    // One pass: advance the four columns together and write each
    // record once. The block was checked above and decoded_ reaches
    // no sink before this returns, so a malformed column still
    // rejects the whole block.
    const std::size_t n = static_cast<std::size_t>(expectN);
    const std::uint8_t *pcCol = data + TraceBlockHeaderBytes;
    const std::uint8_t *addrCol = pcCol + bh.pcBytes;
    const std::uint8_t *valCol = addrCol + bh.addrBytes;
    const std::uint8_t *takenBits = valCol + bh.valueBytes;
    DeltaCursor pcs(pcCol, bh.pcBytes);
    SparseCursor addrs(addrCol, bh.addrBytes, n);
    SparseCursor values(valCol, bh.valueBytes, n);
    auto malformed = [&] {
        corrupt(blockError(b, TraceFileStatus::BadBlock,
                           "column payload malformed"));
    };
    if (!addrs.fits() || !values.fits())
        malformed();
    const isa::Instruction *code = prog_.code().data();
    const std::uint64_t codeSize = prog_.size();
    decoded_.resize(n);
    TraceRecord *out = decoded_.data();
    for (std::size_t i = 0; i < n; ++i) {
        Addr pc = 0, addr = 0;
        Word value = 0;
        if (!pcs.next(pc) || !addrs.next(addr) || !values.next(value))
            malformed();
        // Program::validPc in one compare: a pc below CodeBase wraps
        // to an offset far past the code.
        const Addr off = pc - isa::layout::CodeBase;
        if (off % isa::layout::InstBytes != 0 ||
            off / isa::layout::InstBytes >= codeSize)
            corrupt(detail::formatMsg(
                "record %llu names pc 0x%llx outside the program",
                static_cast<unsigned long long>(first + i),
                static_cast<unsigned long long>(pc)));
        const isa::Instruction &inst = code[off / isa::layout::InstBytes];
        const bool taken = unpackBit(takenBits, i);
        // Reconstruct the architectural successor.
        Addr nextPc = pc + isa::layout::InstBytes;
        if (inst.op == isa::Opcode::HALT)
            nextPc = pc;
        else if (taken && inst.branch())
            nextPc = isa::isIndirectBranch(inst.op)
                         ? addr
                         : static_cast<Addr>(inst.imm);
        out[i] = TraceRecord{.seq = first + i,
                             .pc = pc,
                             .inst = &inst,
                             .effAddr = addr,
                             .value = value,
                             .destValue = 0,
                             .taken = taken,
                             .nextPc = nextPc,
                             .pred = PredState::None};
    }
    if (!pcs.done() || !addrs.done() || !values.done())
        malformed();
}

std::uint64_t
TraceFileReader::replay(TraceSink &sink)
{
    obs::Counter &batches =
        obs::metrics().counter("trace.replay.batches");
    obs::Counter &batchRecords =
        obs::metrics().counter("trace.replay.batch_records");
    // Each decoded block is the batch: consumeBatch sees spans
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
