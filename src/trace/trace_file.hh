/**
 * @file
 * Binary trace serialization, mirroring the paper's decoupled
 * experimental flow (Section 5): phase 1 writes a full dynamic trace
 * to disk; phase 2 runs the LVP unit over it and emits a compact
 * annotation stream of TWO BITS PER LOAD ("to conserve trace
 * bandwidth by passing only two bits of state per load to the
 * microarchitectural simulator"); phase 3 replays the trace merged
 * with the annotations into a timing model.
 *
 * Two on-disk formats share the 24-byte header (little-endian
 * throughout):
 *
 *   header (24 bytes)
 *     [ 0.. 8)  magic "LVPTRACE"
 *     [ 8..12)  u32 format version (2 or 3)
 *     [12..16)  u32 v2: record size in bytes (TraceRecordBytes)
 *                   v3: records per block (header blockRecords)
 *     [16..24)  u64 fingerprint of the generating program + run key
 *
 * v2 (row-major, readable for back compatibility):
 *   payload: N fixed 26-byte records
 *     u64 pc | u64 effAddr | u64 value | u8 taken | u8 pred
 *   footer (24 bytes)
 *     [ 0.. 8)  magic "ECARTPVL"
 *     [ 8..16)  u64 record count N
 *     [16..24)  u64 FNV-1a checksum over all payload bytes
 *
 * v3 (column-major, delta-compressed — the current write format):
 *   payload: ceil(N / blockRecords) blocks, each
 *     block header (24 bytes)
 *       u32 record count n | u32 pcBytes | u32 addrBytes
 *       | u32 valueBytes | u64 FNV-1a checksum of the column payload
 *     column payload
 *       pc column:    n delta+zigzag+varint values (trace/columnar.hh)
 *       addr column:  sparse (presence bitmap + nonzero deltas)
 *       value column: sparse
 *       taken column: n bits, packed
 *       pred column:  n two-bit PredStates, packed
 *   block index: one u64 absolute file offset per block, so a
 *     reader can seek straight to the block holding any record
 *   footer (24 bytes)
 *     [ 0.. 8)  magic "ECARTPVL"
 *     [ 8..16)  u64 record count N
 *     [16..24)  u64 FNV-1a checksum over all block bytes (headers +
 *               column payloads; the index is validated structurally)
 *
 * The v3 columns exploit the paper's value locality on our own
 * storage: pc deltas are one instruction stride for straight-line
 * code, effective addresses and loaded values are absent (zero) for
 * most records and strongly local when present, so a record costs a
 * few bytes instead of 26. Bit-packing taken/pred makes every decoded
 * enum legal by construction — corruption detection rests on the
 * per-block checksum instead of per-record enum range checks, which
 * also reports a flipped bit at the block it lands in rather than at
 * the end-of-trace checksum.
 *
 * Both formats reconstruct nextPc and the static instruction from the
 * Program at read time; seq is implicit in record order. Memory ops
 * use the addr slot for their effective address; indirect branches
 * reuse it for their target.
 *
 * The fingerprint (programFingerprint() mixed with a caller-chosen
 * salt, e.g. workload|codegen|scale|maxInstructions) ties a trace to
 * the exact program it was generated from: a cache that stores traces
 * can detect stale files after a workload-builder or codegen change
 * without any out-of-band bookkeeping. Bump TraceFormatVersion when
 * the record encoding or the interpreter's observable semantics
 * change; readers accept versions {2, 3} and reject anything else.
 *
 * verifyTraceFile() is the non-fatal integrity check (used by the
 * run-cache and by `lvpbench --verify-trace-cache`): it validates the
 * envelope, every record (v2 enum bytes / v3 block structure and
 * per-block checksums), and the whole-payload checksum, and reports a
 * TraceFileStatus instead of exiting. TraceFileReader is strict: it
 * is for files that are expected to be valid and throws
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

/** The current write format. Readers also accept TraceFormatVersionV2. */
constexpr std::uint32_t TraceFormatVersion = 3;

/** The legacy row-major format (still readable, never written by
 *  default; the migration path rewrites it as v3). */
constexpr std::uint32_t TraceFormatVersionV2 = 2;

/** v2 fixed encoded record size: u64 pc|effAddr|value + u8 taken|pred.
 *  Also the logical raw bytes-per-record against which v3 compression
 *  ratios are quoted. */
constexpr std::size_t TraceRecordBytes = 8 + 8 + 8 + 1 + 1;

/** Encoded header / footer sizes (see file comment for layout). */
constexpr std::size_t TraceHeaderBytes = 8 + 4 + 4 + 8;
constexpr std::size_t TraceFooterBytes = 8 + 8 + 8;

/** v3 per-block header: u32 n | u32 colBytes x3 | u64 checksum. */
constexpr std::size_t TraceBlockHeaderBytes = 4 * 4 + 8;

/** Default records per v3 block (the writer's blockRecords). Sized
 *  so one decoded block (~sizeof(TraceRecord) * blockRecords, about
 *  half a MiB) stays L2-resident: the reader's column scatter and the
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
    BadRecordSize,    ///< v2 record-size / v3 blockRecords field bad
    BadFingerprint,   ///< stale: generating program/run key changed
    BadFooter,        ///< footer magic missing (interrupted write)
    PartialRecord,    ///< v2 payload has 1..25 trailing bytes
    CountMismatch,    ///< footer count disagrees with payload size
    BadRecord,        ///< v2 out-of-range taken/pred byte in a record
    BadBlock,         ///< v3 block header/index/column malformed
    ChecksumMismatch, ///< payload bytes corrupted
    ReadFailed,       ///< I/O error while scanning
    WriteFailed,      ///< migration could not write/publish the file
};

const char *traceFileStatusName(TraceFileStatus s);

/** Result of verifyTraceFile(). */
struct TraceVerifyReport
{
    TraceFileStatus status = TraceFileStatus::Ok;
    std::uint64_t records = 0;     ///< footer count (when readable)
    std::uint64_t fingerprint = 0; ///< header fingerprint (when readable)
    std::uint32_t version = 0;     ///< header format version (2 or 3)
    std::uint64_t fileBytes = 0;   ///< on-disk size (when stat-able)
    std::string detail;            ///< human-readable specifics

    bool ok() const { return status == TraceFileStatus::Ok; }

    /** Raw (v2-equivalent) bytes per on-disk byte; 1.0 for v2. */
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
 * Fully verify @p path: envelope, payload structure (v2 per-record
 * enum bytes / v3 block walk with per-block checksums), whole-payload
 * checksum, and (when given) the expected fingerprint. Never fatal; a
 * missing or corrupt file is reported in the returned status.
 */
TraceVerifyReport
verifyTraceFile(const std::string &path,
                std::optional<std::uint64_t> expectFingerprint =
                    std::nullopt);

/**
 * Rewrite the v2 trace at @p path as v3, in place: transcode into a
 * unique `<path>.tmp.<pid>.<n>` sibling, then atomically rename over
 * the original (the same publish discipline the run-cache writers
 * use, so concurrent readers only ever see a complete file). The
 * fingerprint and record stream are preserved exactly; a v2-invalid
 * source or a failed write leaves the original untouched.
 *
 * @return the post-migration verify report of @p path on success;
 * on failure, a report naming what stopped the rewrite (the source's
 * verify status, or WriteFailed).
 */
TraceVerifyReport migrateTraceFile(const std::string &path);

/** TraceFileWriter knobs; the defaults write the current format. */
struct TraceWriterOptions
{
    /** TraceFormatVersion (v3) or TraceFormatVersionV2 (compat tests
     *  and migration goldens only). */
    std::uint32_t version = TraceFormatVersion;
    /** v3 records per block, [1, TraceMaxBlockRecords]. */
    std::uint32_t blockRecords = TraceBlockRecords;
};

/**
 * A sink that streams records into a binary trace file.
 *
 * v3 records are staged column-wise and encoded one block at a time;
 * encoded bytes (v3 blocks / v2 records) are written with one fwrite
 * per buffer-full rather than one per record. A latched write failure
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

    /**
     * Append one record from its encoded fields (the addr slot
     * already holding effAddr or, for indirect branches, nextPc).
     * consume() lowers TraceRecords onto this; the v2->v3 migration
     * path feeds it directly, since transcoding raw slots needs no
     * Program to resolve instructions.
     */
    void appendRaw(Addr pc, Addr addrSlot, Word value, bool taken,
                   PredState pred);

    /** Write the block index (v3) and footer, then flush
     *  (idempotent). */
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
    void fail(const std::string &what);
    void encodeBlock(); ///< v3: drain the staged columns into wbuf_
    void flushBuffer();

    std::FILE *file_;
    std::string path_;
    std::uint64_t fingerprint_;
    TraceWriterOptions opts_;
    std::uint64_t checksum_;
    std::uint64_t written_ = 0;
    bool finished_ = false;
    bool closed_ = false;
    bool failed_ = false;
    std::string error_;
    std::vector<std::uint8_t> wbuf_; ///< encoded-byte block buffer

    /** @{ v3 column staging for the open block. */
    std::vector<std::uint64_t> stagePc_, stageAddr_, stageVal_;
    std::vector<std::uint8_t> stageTaken_, stagePred_;
    std::vector<std::uint8_t> colBuf_;   ///< per-block scratch
    std::vector<std::uint64_t> index_;   ///< block file offsets
    std::uint64_t fileOffset_ = 0;       ///< next block's offset
    /** @} */
};

/**
 * Replays a binary trace file into a sink, re-binding each record to
 * its static instruction in @p prog. The program must be the one the
 * trace was generated from (pass @p expectFingerprint to enforce it).
 * The format version is auto-detected from the header; v2 and v3
 * files replay to the identical record stream.
 *
 * The reader is strict: a malformed envelope, a truncated payload, a
 * corrupt block or out-of-range record byte or pc, or a checksum
 * mismatch throws SimError(TraceCorrupt) with a diagnostic —
 * corruption is never reported as a clean end-of-trace. An unopenable
 * file throws SimError(TraceIo). Callers that must survive corrupt
 * files catch SimError and discard the partial replay (the run-cache
 * falls back to in-memory interpretation and deletes the file).
 *
 * I/O is block-buffered. v3 reads one compressed block per fread and
 * decodes its columns straight into an in-memory TraceRecord block;
 * replay() hands spans of that same block buffer to
 * TraceSink::consumeBatch() with no further copy, while the next
 * compressed block is read and software-prefetched behind the decode
 * (set LVPLIB_TRACE_PREFETCH=0 to disable the prefetch). v2 fills a
 * multi-record byte buffer and decodes records out of it. Validation
 * is strictly in record order — a corrupt record throws before any
 * later record is observed by the sink.
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
     * Read one record into @p rec.
     * @return false at the end of the trace (checksum-verified).
     */
    bool next(TraceRecord &rec);

    /** Stream the whole file into @p sink (calls finish()). */
    std::uint64_t replay(TraceSink &sink);

    /** Total records promised by the footer. */
    std::uint64_t records() const { return records_; }

    /** Fingerprint stored in the header. */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /** Header format version (2 or 3). */
    std::uint32_t version() const { return version_; }

  private:
    [[noreturn]] void corrupt(const std::string &what) const;

    /** @{ v2 row-major path. */
    void fillBuffer();
    bool nextV2(TraceRecord &rec);
    /** @} */

    /** @{ v3 block path. */
    std::uint64_t blockBytes(std::uint64_t b) const;
    void loadBlockFor(std::uint64_t seq);
    void decodeBlock(std::uint64_t b, std::uint8_t *data,
                     std::size_t len);
    bool nextV3(TraceRecord &rec);
    /** @} */

    std::FILE *file_;
    const isa::Program &prog_;
    std::string path_;
    SeqNum seq_ = 0;
    std::uint64_t records_ = 0;
    std::uint32_t version_ = TraceFormatVersion;
    std::uint64_t fingerprint_ = 0;
    std::uint64_t expectChecksum_ = 0;
    std::uint64_t checksum_;

    /** @{ v2 state. */
    std::vector<std::uint8_t> iobuf_; ///< raw-byte block buffer
    std::size_t bufPos_ = 0;          ///< next unread byte in iobuf_
    std::size_t bufLen_ = 0;          ///< valid bytes in iobuf_
    /** @} */

    /** @{ v3 state. */
    std::uint32_t blockRecords_ = 0;
    std::uint64_t indexStart_ = 0;      ///< file offset of the index
    std::vector<std::uint64_t> index_;  ///< block file offsets
    std::uint64_t filePos_ = 0;         ///< current stream position
    std::uint64_t nextBlock_ = 0;       ///< next block not yet loaded
    bool prefetch_ = true;              ///< LVPLIB_TRACE_PREFETCH
    std::vector<std::uint8_t> cblock_;  ///< current compressed block
    std::vector<std::uint8_t> pblock_;  ///< prefetched next block
    std::size_t pblockLen_ = 0;         ///< valid bytes in pblock_
    std::uint64_t pblockBlock_ = 0;     ///< block number in pblock_
    std::vector<TraceRecord> decoded_;  ///< decoded current block
    std::size_t decPos_ = 0;            ///< next record in decoded_
    /** @} */
};

} // namespace lvplib::trace

#endif // LVPLIB_TRACE_TRACE_FILE_HH
