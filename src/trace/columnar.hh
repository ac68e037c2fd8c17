/**
 * @file
 * Column codecs and the checksum shared by the v5 trace file format
 * (trace/trace_file.hh) and the lvp-serve hot-trace cache
 * (serve/protocol.hh): the paper's value-locality observation applied
 * to our own storage layer. Dynamic pc / effective-address / value
 * columns vary slowly, so delta + zigzag + LEB128 varint shrinks them
 * from 8 bytes to ~1 byte per record, and the mostly-zero columns
 * (addresses of non-memory records, values of non-loads) collapse
 * further behind a one-bit presence bitmap.
 *
 * Encoders are infallible; decoders are strict and total: every read
 * is bounds-checked against the payload, a varint longer than
 * VarintMaxBytes or overflowing 64 bits is rejected, a sparse column
 * may not mark a zero as present, and a column that does not consume
 * exactly its declared byte length fails. Failure is a `false`
 * return — callers (which know the file/stream context) turn it into
 * a typed SimError(TraceCorrupt).
 *
 * Each column has one decoder, a cursor that yields one value per
 * call (DeltaCursor, SparseCursor). The trace reader advances all
 * its cursors together and writes each record once; the whole-column
 * decoders below are loops over the same cursors.
 */

#ifndef LVPLIB_TRACE_COLUMNAR_HH
#define LVPLIB_TRACE_COLUMNAR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lvplib::trace
{

/**
 * The trace file's checksum (format v5): xxHash64 of @p n bytes. It
 * reads the input as little-endian u64 words on four independent
 * multiply lanes, one word of each 32-byte stripe per lane, folds
 * the lanes and the tail words and bytes, and ends with an avalanche
 * step. A lane round rotates and multiplies between words, so two
 * flips of the same bit 32 bytes apart (one lane, consecutive
 * rounds) do not cancel. Independent lanes let the CPU overlap the
 * multiplies: this runs at memory speed where a byte-serial hash
 * pays one dependent multiply per byte.
 */
std::uint64_t hash64(const void *data, std::size_t n,
                     std::uint64_t seed = 0);

/** @{ FNV-1a 64, the one copy, kept for what is hashed off the hot
 *  path: program fingerprints (trace/trace_file.hh), serve frames and
 *  stream fingerprints, and vm::SparseMemory::imageHash(). */
constexpr std::uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t FnvPrime = 0x00000100000001b3ull;

std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t seed = FnvOffset);
/** @} */

/** Longest legal LEB128 encoding of a u64 (10 * 7 bits >= 64). */
constexpr std::size_t VarintMaxBytes = 10;

/** Append the LEB128 varint encoding of @p v to @p out. */
void putVarint(std::vector<std::uint8_t> &out, std::uint64_t v);

/**
 * Decode one LEB128 varint from [@p p, @p end), advancing @p p.
 * @return false on truncation, an encoding longer than
 * VarintMaxBytes, or 64-bit overflow in the final byte.
 */
inline bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &v)
{
    // Most column entries (a pc stride, a nearby address) fit in
    // one byte.
    if (p != end && *p < 0x80) {
        v = *p++;
        return true;
    }
    std::uint64_t acc = 0;
    unsigned shift = 0;
    for (std::size_t i = 0; i < VarintMaxBytes; ++i) {
        if (p == end)
            return false; // truncated
        std::uint8_t byte = *p++;
        // The 10th byte may only contribute the top bit of a u64:
        // anything else is a 64-bit overflow from hostile input.
        if (i == VarintMaxBytes - 1 && byte > 1)
            return false;
        acc |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            v = acc;
            return true;
        }
        shift += 7;
    }
    return false; // longer than any canonical u64 encoding
}

/** @{ Zigzag: map small-magnitude signed deltas to small varints. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}
/** @} */

/** Bit i of a packBits() column (or of a sparse column's bitmap). */
inline bool
unpackBit(const std::uint8_t *p, std::size_t i)
{
    return (p[i >> 3] >> (i & 7)) & 1;
}

/**
 * Dense delta column: each value is encoded as the zigzagged
 * difference from its predecessor (the first from 0). Used for pc,
 * whose deltas are one instruction-size stride for straight-line
 * code.
 */
void encodeDeltaColumn(const std::uint64_t *vals, std::size_t n,
                       std::vector<std::uint8_t> &out);

/** Reads a dense delta column one value at a time. */
class DeltaCursor
{
  public:
    /** A cursor over the column occupying [@p p, @p p + @p len). */
    DeltaCursor(const std::uint8_t *p, std::size_t len)
        : p_(p), end_(p + len)
    {}

    /** The next value; false on a malformed or missing varint. */
    bool
    next(std::uint64_t &v)
    {
        std::uint64_t z;
        if (!getVarint(p_, end_, z))
            return false;
        prev_ += static_cast<std::uint64_t>(zigzagDecode(z));
        v = prev_;
        return true;
    }

    /** True when the values read so far used up exactly the column's
     *  bytes (a column must not carry trailing bytes). */
    bool done() const { return p_ == end_; }

  private:
    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::uint64_t prev_ = 0;
};

/**
 * Decode @p n values of a dense delta column occupying exactly
 * [@p p, @p p + @p len). Writes into @p out[0..n) with stride
 * @p stride u64 slots (stride > 1 scatters straight into an
 * array-of-structs field).
 */
bool decodeDeltaColumn(const std::uint8_t *p, std::size_t len,
                       std::uint64_t *out, std::size_t n,
                       std::size_t stride = 1);

/**
 * Sparse column: a presence bitmap of (n+7)/8 bytes (bit i set when
 * vals[i] != 0), then one zigzagged delta varint per nonzero value,
 * each relative to the PREVIOUS NONZERO value (first from 0). Zeros
 * cost one bit; nonzero runs exploit the paper's address/value
 * locality. Used for effAddr and value, which are zero for most
 * non-memory records.
 */
void encodeSparseColumn(const std::uint64_t *vals, std::size_t n,
                        std::vector<std::uint8_t> &out);

/** Reads a sparse column one value at a time. */
class SparseCursor
{
  public:
    /** A cursor over @p n values in [@p p, @p p + @p len). Check
     *  fits() before the first next(). */
    SparseCursor(const std::uint8_t *p, std::size_t len, std::size_t n)
        : bitmap_(p), fits_(len >= (n + 7) / 8),
          cur_(p + (fits_ ? (n + 7) / 8 : len)), end_(p + len)
    {}

    /** False when the bytes cannot hold the presence bitmap. */
    bool fits() const { return fits_; }

    /** The next value; false on a malformed or missing varint or a
     *  present zero. */
    bool
    next(std::uint64_t &v)
    {
        if (!unpackBit(bitmap_, i_++)) {
            v = 0;
            return true;
        }
        std::uint64_t z;
        if (!getVarint(cur_, end_, z))
            return false;
        prev_ += static_cast<std::uint64_t>(zigzagDecode(z));
        // A "present" zero is an encoding our writer never produces
        // (zeros go in the bitmap); reject rather than round-trip
        // ambiguously.
        if (prev_ == 0)
            return false;
        v = prev_;
        return true;
    }

    /** True when the values read so far used up exactly the column's
     *  bytes. */
    bool done() const { return cur_ == end_; }

  private:
    const std::uint8_t *bitmap_;
    bool fits_;
    const std::uint8_t *cur_;
    const std::uint8_t *end_;
    std::size_t i_ = 0;
    std::uint64_t prev_ = 0;
};

/** Decode a sparse column (see encodeSparseColumn); exact-length and
 *  stride semantics as decodeDeltaColumn. */
bool decodeSparseColumn(const std::uint8_t *p, std::size_t len,
                        std::uint64_t *out, std::size_t n,
                        std::size_t stride = 1);

/** Pack n one-bit flags (vals[i] != 0) into (n+7)/8 bytes. */
void packBits(const std::uint8_t *vals, std::size_t n,
              std::vector<std::uint8_t> &out);

} // namespace lvplib::trace

#endif // LVPLIB_TRACE_COLUMNAR_HH
