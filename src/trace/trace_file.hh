/**
 * @file
 * Binary trace serialization for phase 1 of the paper's decoupled
 * experimental flow (Section 5): the interpreter writes a program's
 * full dynamic trace to disk once, and every later run replays it.
 * A replay feeds a chain whose predictor annotator stamps each load's
 * two bits of PredState for the timing model right behind it, so a
 * trace stores what the program did and never a prediction.
 *
 * The on-disk format (v5: column-major, delta-compressed;
 * little-endian throughout):
 *
 *   header (24 bytes)
 *     [ 0.. 8)  magic "LVPTRACE"
 *     [ 8..12)  u32 format version (TraceFormatVersion)
 *     [12..16)  u32 records per block (blockRecords)
 *     [16..24)  u64 fingerprint of the generating program + run key
 *   payload: ceil(N / blockRecords) blocks, each
 *     block header (24 bytes)
 *       u32 record count n | u32 pcBytes | u32 addrBytes
 *       | u32 valueBytes | u64 hash64 of the column payload
 *     column payload
 *       pc column:    n delta+zigzag+varint values (trace/columnar.hh)
 *       addr column:  sparse (presence bitmap + nonzero deltas)
 *       value column: sparse
 *       taken column: n bits, packed
 *   block index: one u64 absolute file offset per block, so a
 *     reader can seek straight to the block holding any record
 *   footer (24 bytes)
 *     [ 0.. 8)  magic "ECARTPVL"
 *     [ 8..16)  u64 record count N
 *     [16..24)  u64 chain over the block headers in file order:
 *               c = hash64(block header, 24, seed c), from c = 0.
 *               Each header holds its payload's checksum, so the
 *               chain covers every block byte and the block order;
 *               the index is validated structurally.
 *
 * v4 differed only in its checksums, byte-serial FNV-1a over whole
 * blocks; hash64 (trace/columnar.hh) reads words on four
 * independent lanes and runs at memory speed.
 *
 * The columns exploit the paper's value locality on our own storage:
 * pc deltas are one instruction stride for straight-line code,
 * effective addresses and loaded values are absent (zero) for most
 * records and strongly local when present, so a record costs a few
 * bytes instead of TraceRecordBytes. Bit-packing taken makes every
 * decoded flag legal by construction, so corruption detection rests
 * on the per-block checksum, which reports a flipped bit at the block
 * it lands in rather than at the end-of-trace checksum. Every
 * consumer of a block (writer, reader, verifier, skipTo) hashes its
 * payload exactly once.
 *
 * The reader reconstructs nextPc and the static instruction from the
 * Program at read time; seq is implicit in record order. destValue and
 * pred are not stored: a replayed record carries 0 and
 * PredState::None. Memory ops use the addr slot for their effective
 * address; indirect branches reuse it for their target.
 *
 * The fingerprint (programFingerprint() mixed with a caller-chosen
 * salt, e.g. workload|codegen|scale|maxInstructions) ties a trace to
 * the exact program it was generated from: a cache that stores traces
 * can detect stale files after a workload-builder or codegen change
 * without any out-of-band bookkeeping. Bump TraceFormatVersion when
 * the record encoding or the interpreter's observable semantics
 * change; readers accept only the current version and report any
 * other as BadVersion (the run-cache regenerates such a file).
 *
 * verifyTraceFile() is the non-fatal integrity check (used by the
 * run-cache and by `lvpbench --verify-trace-cache`): it validates the
 * envelope, the block structure and per-block checksums, and the
 * footer's chain, and reports a TraceFileStatus instead of exiting.
 * TraceFileReader is strict: it is for files that are expected to be
 * valid and throws
 * SimError(TraceCorrupt) — or SimError(TraceIo) for an unopenable
 * file — on corruption, naming the reason (never silently truncating
 * a replay). The run-cache catches the exception and falls back to
 * in-memory interpretation.
 */

#ifndef LVPLIB_TRACE_TRACE_FILE_HH
#define LVPLIB_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "trace/trace.hh"

namespace lvplib::trace
{

/** The format this build reads and writes. */
constexpr std::uint32_t TraceFormatVersion = 5;

/** Logical raw bytes per record (u64 pc|effAddr|value + u8 taken),
 *  against which compression ratios are quoted. */
constexpr std::size_t TraceRecordBytes = 8 + 8 + 8 + 1;

/** Encoded header / footer sizes (see file comment for layout). */
constexpr std::size_t TraceHeaderBytes = 8 + 4 + 4 + 8;
constexpr std::size_t TraceFooterBytes = 8 + 8 + 8;

/** Per-block header: u32 n | u32 colBytes x3 | u64 checksum. */
constexpr std::size_t TraceBlockHeaderBytes = 4 * 4 + 8;

/** Default records per block (the writer's blockRecords). Sized
 *  so one decoded block (~sizeof(TraceRecord) * blockRecords, about
 *  half a MiB) stays L2-resident: the reader's decode pass and the
 *  sink's consume pass walk the same block buffer, and a buffer
 *  bigger than the cache turns every pass into memory traffic (a
 *  64Ki-record block measured ~10% slower suite-wide). Tests shrink
 *  it further to exercise block-boundary seams on small traces. */
constexpr std::uint32_t TraceBlockRecords = 8 * 1024;

/** Largest blockRecords a reader will accept (bounds per-block
 *  allocations against hostile headers). */
constexpr std::uint32_t TraceMaxBlockRecords = 1u << 24;

/**
 * Stable fingerprint of a program image (instructions, data image,
 * symbols). Two programs that could produce different traces hash
 * differently; rebuilding the same workload hashes identically.
 */
std::uint64_t programFingerprint(const isa::Program &prog);

/** Fold @p salt (e.g. a run-cache key) into fingerprint @p fp. */
std::uint64_t mixFingerprint(std::uint64_t fp, const std::string &salt);

/** Why a trace file failed (or passed) verification. */
enum class TraceFileStatus
{
    Ok,
    OpenFailed,       ///< cannot open for reading
    TooSmall,         ///< shorter than header + footer
    BadMagic,         ///< header magic mismatch (not a trace file)
    BadVersion,       ///< written by a different format version
    BadRecordSize,    ///< blockRecords header field out of range
    BadFingerprint,   ///< stale: generating program/run key changed
    BadFooter,        ///< footer magic missing (interrupted write)
    BadBlock,         ///< block header/index/column malformed
    ChecksumMismatch, ///< payload bytes corrupted
    ReadFailed,       ///< I/O error while scanning
};

const char *traceFileStatusName(TraceFileStatus s);

/** Result of verifyTraceFile(). */
struct TraceVerifyReport
{
    TraceFileStatus status = TraceFileStatus::Ok;
    std::uint64_t records = 0;     ///< footer count (when readable)
    std::uint64_t fingerprint = 0; ///< header fingerprint (when readable)
    std::uint32_t version = 0;     ///< header format version
    std::uint64_t fileBytes = 0;   ///< on-disk size (when stat-able)
    std::string detail;            ///< human-readable specifics

    bool ok() const { return status == TraceFileStatus::Ok; }

    /** Raw bytes (TraceRecordBytes per record) per on-disk byte. */
    double
    compressionRatio() const
    {
        return fileBytes > 0
                   ? static_cast<double>(records) * TraceRecordBytes /
                         static_cast<double>(fileBytes)
                   : 0.0;
    }
};

/**
 * Fully verify @p path: envelope, block walk with per-block
 * checksums, the footer's chain, and (when given) the expected
 * fingerprint. Never fatal; a missing or corrupt file is reported in
 * the returned status.
 */
TraceVerifyReport
verifyTraceFile(const std::string &path,
                std::optional<std::uint64_t> expectFingerprint =
                    std::nullopt);

/** TraceFileWriter knobs. */
struct TraceWriterOptions
{
    /** Records per block, [1, TraceMaxBlockRecords]. */
    std::uint32_t blockRecords = TraceBlockRecords;
};

/**
 * A sink that streams records into a binary trace file.
 *
 * Records are staged column-wise and encoded one block at a time;
 * encoded blocks are written with one fwrite per buffer-full rather
 * than one per record. A latched write failure
 * still poisons the whole file, so buffering does not change what
 * callers can observe (a file is either complete and verified or
 * discarded).
 *
 * I/O errors (open, write, flush, close) are latched instead of
 * fatal: good() turns false, further records are dropped, and close()
 * reports overall success so callers can discard the file and fall
 * back rather than publish a truncated trace. A file is only valid
 * once finish() has written the footer and close() returned true.
 */
class TraceFileWriter : public TraceSink
{
  public:
    /** Open @p path for writing; failure is latched, not fatal. */
    explicit TraceFileWriter(const std::string &path,
                             std::uint64_t fingerprint = 0,
                             const TraceWriterOptions &opts = {});
    ~TraceFileWriter() override;

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    void consume(const TraceRecord &rec) override;
    void consumeBatch(std::span<const TraceRecord> recs) override;

    /** Write the block index and footer, then flush (idempotent). */
    void finish() override;

    /**
     * finish() if needed, then fclose.
     * @return true when every write (records, footer, flush, close)
     * succeeded; on false the file must not be used.
     */
    bool close();

    /** False once any I/O error has occurred. */
    bool good() const { return !failed_; }

    /** First I/O error message ("" when good()). */
    const std::string &error() const { return error_; }

    std::uint64_t recordsWritten() const { return written_; }

  private:
    /** Append one record from its encoded fields (the addr slot
     *  already holding effAddr or, for indirect branches, nextPc). */
    void appendRaw(Addr pc, Addr addrSlot, Word value, bool taken);
    void fail(const std::string &what);
    void encodeBlock(); ///< drain the staged columns into wbuf_
    void flushBuffer();

    std::FILE *file_;
    std::string path_;
    std::uint64_t fingerprint_;
    TraceWriterOptions opts_;
    std::uint64_t checksum_ = 0; ///< footer chain over block headers
    std::uint64_t written_ = 0;
    bool finished_ = false;
    bool closed_ = false;
    bool failed_ = false;
    std::string error_;
    std::vector<std::uint8_t> wbuf_; ///< encoded-byte block buffer

    /** @{ Column staging for the open block. */
    std::vector<std::uint64_t> stagePc_, stageAddr_, stageVal_;
    std::vector<std::uint8_t> stageTaken_;
    std::vector<std::uint8_t> colBuf_;   ///< per-block scratch
    std::vector<std::uint64_t> index_;   ///< block file offsets
    std::uint64_t fileOffset_ = 0;       ///< next block's offset
    /** @} */
};

/**
 * Replays a binary trace file into a sink, re-binding each record to
 * its static instruction in @p prog. The program must be the one the
 * trace was generated from (pass @p expectFingerprint to enforce it).
 *
 * The reader is strict: a file of another format version, a malformed
 * envelope, a truncated payload, a corrupt block or out-of-range pc,
 * or a checksum mismatch throws SimError(TraceCorrupt) with a
 * diagnostic —
 * corruption is never reported as a clean end-of-trace. An unopenable
 * file throws SimError(TraceIo). Callers that must survive corrupt
 * files catch SimError and discard the partial replay (the run-cache
 * falls back to in-memory interpretation and deletes the file).
 *
 * I/O is block-buffered: the reader reads one compressed block per
 * fread and decodes it in one pass over its four columns, writing
 * each TraceRecord of an in-memory block once; replay() hands spans
 * of that same block buffer to TraceSink::consumeBatch() with no
 * further copy. Validation is strictly in record order — a corrupt
 * block throws before any of its records is observed by the sink.
 */
class TraceFileReader
{
  public:
    TraceFileReader(const std::string &path, const isa::Program &prog,
                    std::optional<std::uint64_t> expectFingerprint =
                        std::nullopt);

    ~TraceFileReader();

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    /**
     * Skip forward from a block boundary to record @p seq, a later
     * block boundary (or records()). Skipped blocks are not decoded,
     * but each is checked against its header's checksum (throwing
     * SimError(TraceCorrupt) as a decoded block would) and folded
     * into the footer chain, so a replay from @p seq still ends with
     * the footer check.
     */
    void skipTo(std::uint64_t seq);

    /** Stream the rest of the file into @p sink (calls finish()). */
    std::uint64_t replay(TraceSink &sink);

    /** Total records promised by the footer. */
    std::uint64_t records() const { return records_; }

    /** Fingerprint stored in the header. */
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    [[noreturn]] void corrupt(const std::string &what) const;
    std::uint64_t blockBytes(std::uint64_t b) const;
    void readBlock(std::uint64_t b); ///< block b's bytes into cblock_
    void loadBlockFor(std::uint64_t seq);
    void decodeBlock(std::uint64_t b, std::uint8_t *data,
                     std::size_t len);

    std::FILE *file_;
    const isa::Program &prog_;
    std::string path_;
    SeqNum seq_ = 0;
    std::uint64_t records_ = 0;
    std::uint64_t fingerprint_ = 0;
    std::uint64_t expectChecksum_ = 0;
    std::uint64_t checksum_ = 0; ///< footer chain over block headers
    std::uint32_t blockRecords_ = 0;
    std::uint64_t indexStart_ = 0;      ///< file offset of the index
    std::vector<std::uint64_t> index_;  ///< block file offsets
    std::uint64_t filePos_ = 0;         ///< current stream position
    std::vector<std::uint8_t> cblock_;  ///< current compressed block
    std::vector<TraceRecord> decoded_;  ///< decoded current block
    std::size_t decPos_ = 0;            ///< next record in decoded_
};

} // namespace lvplib::trace

#endif // LVPLIB_TRACE_TRACE_FILE_HH
