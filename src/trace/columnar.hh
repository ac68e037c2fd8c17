/**
 * @file
 * Column codecs shared by the v4 trace file format
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
 * VarintMaxBytes or overflowing 64 bits is rejected, and a column
 * that does not consume exactly its declared byte length fails.
 * Failure is a `false` return — callers (which know the file/stream
 * context) turn it into a typed SimError(TraceCorrupt).
 */

#ifndef LVPLIB_TRACE_COLUMNAR_HH
#define LVPLIB_TRACE_COLUMNAR_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lvplib::trace
{

/** @{ FNV-1a, the checksum/fingerprint hash used across the trace
 *  layer (also exposed here for per-block checksums). */
constexpr std::uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t FnvPrime = 0x00000100000001b3ull;

std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t seed = FnvOffset);

/**
 * Two FNV-1a chains over the same bytes in one pass: returns
 * {fnv1a(data, n, seedA), fnv1a(data, n, seedB)}. Each chain is a
 * serial multiply per byte; interleaving two independent ones lets
 * the CPU overlap them, so the pair costs about what one chain does.
 */
std::pair<std::uint64_t, std::uint64_t>
fnv1aPair(const void *data, std::size_t n, std::uint64_t seedA,
          std::uint64_t seedB);
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
bool getVarint(const std::uint8_t *&p, const std::uint8_t *end,
               std::uint64_t &v);

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

/**
 * Dense delta column: each value is encoded as the zigzagged
 * difference from its predecessor (the first from 0). Used for pc,
 * whose deltas are one instruction-size stride for straight-line
 * code.
 */
void encodeDeltaColumn(const std::uint64_t *vals, std::size_t n,
                       std::vector<std::uint8_t> &out);

/**
 * Decode @p n values of a dense delta column occupying exactly
 * [@p p, @p p + @p len). Writes into @p out[0..n) with stride
 * @p stride u64 slots (stride > 1 scatters straight into an
 * array-of-structs field, the zero-recopy replay path).
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

/** Decode a sparse column (see encodeSparseColumn); exact-length and
 *  stride semantics as decodeDeltaColumn. */
bool decodeSparseColumn(const std::uint8_t *p, std::size_t len,
                        std::uint64_t *out, std::size_t n,
                        std::size_t stride = 1);

/** Pack n one-bit flags (vals[i] != 0) into (n+7)/8 bytes. */
void packBits(const std::uint8_t *vals, std::size_t n,
              std::vector<std::uint8_t> &out);

/** Bit i of a packBits() column. */
inline bool
unpackBit(const std::uint8_t *p, std::size_t i)
{
    return (p[i >> 3] >> (i & 7)) & 1;
}

} // namespace lvplib::trace

#endif // LVPLIB_TRACE_COLUMNAR_HH
