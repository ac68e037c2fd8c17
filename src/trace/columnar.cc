#include "trace/columnar.hh"

namespace lvplib::trace
{

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

std::pair<std::uint64_t, std::uint64_t>
fnv1aPair(const void *data, std::size_t n, std::uint64_t seedA,
          std::uint64_t seedB)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t a = seedA;
    std::uint64_t b = seedB;
    for (std::size_t i = 0; i < n; ++i) {
        a = (a ^ p[i]) * FnvPrime;
        b = (b ^ p[i]) * FnvPrime;
    }
    return {a, b};
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

bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &v)
{
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
    const std::uint8_t *end = p + len;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t z;
        if (!getVarint(p, end, z))
            return false;
        prev += static_cast<std::uint64_t>(zigzagDecode(z));
        out[i * stride] = prev;
    }
    return p == end; // a column must consume exactly its bytes
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
    std::size_t bitmapBytes = (n + 7) / 8;
    if (len < bitmapBytes)
        return false;
    const std::uint8_t *bitmap = p;
    const std::uint8_t *cur = p + bitmapBytes;
    const std::uint8_t *end = p + len;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!unpackBit(bitmap, i)) {
            out[i * stride] = 0;
            continue;
        }
        std::uint64_t z;
        if (!getVarint(cur, end, z))
            return false;
        prev += static_cast<std::uint64_t>(zigzagDecode(z));
        // A "present" zero is an encoding our writer never produces
        // (zeros go in the bitmap); reject rather than round-trip
        // ambiguously.
        if (prev == 0)
            return false;
        out[i * stride] = prev;
    }
    return cur == end;
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
