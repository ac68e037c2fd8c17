#include "trace/columnar.hh"

#include <bit>
#include <cstring>

namespace lvplib::trace
{

namespace
{

/** @{ xxHash64's primes. */
constexpr std::uint64_t Prime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t Prime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t Prime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t Prime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t Prime5 = 0x27d4eb2f165667c5ull;
/** @} */

/** The u64 at @p p, little-endian whatever the host's byte order. */
std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(v));
    } else {
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
}

std::uint32_t
loadLe32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

/** One lane step: a bijection of @p acc for any word @p w. */
std::uint64_t
laneRound(std::uint64_t acc, std::uint64_t w)
{
    acc += w * Prime2;
    acc = std::rotl(acc, 31);
    return acc * Prime1;
}

std::uint64_t
mergeLane(std::uint64_t h, std::uint64_t lane)
{
    h ^= laneRound(0, lane);
    return h * Prime1 + Prime4;
}

} // namespace

std::uint64_t
hash64(const void *data, std::size_t n, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    const std::uint8_t *const end = p + n;
    std::uint64_t h;
    if (n >= 32) {
        std::uint64_t v1 = seed + Prime1 + Prime2;
        std::uint64_t v2 = seed + Prime2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - Prime1;
        for (; end - p >= 32; p += 32) {
            v1 = laneRound(v1, loadLe64(p));
            v2 = laneRound(v2, loadLe64(p + 8));
            v3 = laneRound(v3, loadLe64(p + 16));
            v4 = laneRound(v4, loadLe64(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = mergeLane(h, v1);
        h = mergeLane(h, v2);
        h = mergeLane(h, v3);
        h = mergeLane(h, v4);
    } else {
        h = seed + Prime5;
    }
    h += n;
    for (; end - p >= 8; p += 8) {
        h ^= laneRound(0, loadLe64(p));
        h = std::rotl(h, 27) * Prime1 + Prime4;
    }
    if (end - p >= 4) {
        h ^= loadLe32(p) * Prime1;
        h = std::rotl(h, 23) * Prime2 + Prime3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= *p * Prime5;
        h = std::rotl(h, 11) * Prime1;
    }
    // Avalanche: every input bit reaches every output bit.
    h ^= h >> 33;
    h *= Prime2;
    h ^= h >> 29;
    h *= Prime3;
    h ^= h >> 32;
    return h;
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= FnvPrime;
    }
    return h;
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

void
encodeDeltaColumn(const std::uint64_t *vals, std::size_t n,
                  std::vector<std::uint8_t> &out)
{
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Wrapping subtraction keeps the transform lossless for any
        // 64-bit pattern; zigzag keeps +/- strides equally short.
        putVarint(out,
                  zigzagEncode(
                      static_cast<std::int64_t>(vals[i] - prev)));
        prev = vals[i];
    }
}

bool
decodeDeltaColumn(const std::uint8_t *p, std::size_t len,
                  std::uint64_t *out, std::size_t n,
                  std::size_t stride)
{
    DeltaCursor col(p, len);
    for (std::size_t i = 0; i < n; ++i)
        if (!col.next(out[i * stride]))
            return false;
    return col.done();
}

void
encodeSparseColumn(const std::uint64_t *vals, std::size_t n,
                   std::vector<std::uint8_t> &out)
{
    std::size_t bitmapAt = out.size();
    out.resize(bitmapAt + (n + 7) / 8, 0);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (vals[i] == 0)
            continue;
        out[bitmapAt + (i >> 3)] |=
            static_cast<std::uint8_t>(1u << (i & 7));
        putVarint(out,
                  zigzagEncode(
                      static_cast<std::int64_t>(vals[i] - prev)));
        prev = vals[i];
    }
}

bool
decodeSparseColumn(const std::uint8_t *p, std::size_t len,
                   std::uint64_t *out, std::size_t n,
                   std::size_t stride)
{
    SparseCursor col(p, len, n);
    if (!col.fits())
        return false;
    for (std::size_t i = 0; i < n; ++i)
        if (!col.next(out[i * stride]))
            return false;
    return col.done();
}

void
packBits(const std::uint8_t *vals, std::size_t n,
         std::vector<std::uint8_t> &out)
{
    std::size_t at = out.size();
    out.resize(at + (n + 7) / 8, 0);
    for (std::size_t i = 0; i < n; ++i)
        if (vals[i])
            out[at + (i >> 3)] |=
                static_cast<std::uint8_t>(1u << (i & 7));
}

} // namespace lvplib::trace
