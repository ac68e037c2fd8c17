#include "vm/memory.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "trace/columnar.hh"
#include "util/logging.hh"

namespace lvplib::vm
{

const SparseMemory::Page *
SparseMemory::findPage(Addr a) const
{
    Addr num = a >> PageShift;
    if (cachedPage_ && cachedPageNum_ == num)
        return cachedPage_;
    auto it = pages_.find(num);
    if (it == pages_.end())
        return nullptr;
    cachedPageNum_ = num;
    cachedPage_ = it->second.get();
    return cachedPage_;
}

SparseMemory::Page &
SparseMemory::touchPage(Addr a)
{
    Addr num = a >> PageShift;
    if (cachedPage_ && cachedPageNum_ == num)
        return *cachedPage_;
    auto &slot = pages_[num];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    cachedPageNum_ = num;
    cachedPage_ = slot.get();
    return *slot;
}

std::uint8_t
SparseMemory::readByte(Addr a) const
{
    const Page *p = findPage(a);
    return p ? (*p)[a & PageMask] : 0;
}

void
SparseMemory::writeByte(Addr a, std::uint8_t v)
{
    touchPage(a)[a & PageMask] = v;
}

Word
SparseMemory::readSlow(Addr a, unsigned size) const
{
    Addr off = a & PageMask;
    if constexpr (std::endian::native == std::endian::little) {
        if (off + size <= PageSize) {
            const Page *p = findPage(a);
            if (!p)
                return 0;
            Word v = 0;
            std::memcpy(&v, p->data() + off, size);
            return v;
        }
    }
    // Page-straddling (or big-endian host): per-byte assembly.
    Word v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<Word>(readByte(a + i)) << (8 * i);
    return v;
}

void
SparseMemory::writeSlow(Addr a, Word v, unsigned size)
{
    Addr off = a & PageMask;
    if constexpr (std::endian::native == std::endian::little) {
        if (off + size <= PageSize) {
            std::memcpy(touchPage(a).data() + off, &v, size);
            return;
        }
    }
    for (unsigned i = 0; i < size; ++i)
        writeByte(a + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SparseMemory::loadImage(const isa::Program &prog)
{
    for (const auto &[addr, byte] : prog.dataImage())
        writeByte(addr, byte);
}

std::uint64_t
SparseMemory::imageHash() const
{
    std::vector<Addr> pageNums;
    pageNums.reserve(pages_.size());
    for (const auto &[num, page] : pages_)
        pageNums.push_back(num);
    std::sort(pageNums.begin(), pageNums.end());
    std::uint64_t h = trace::FnvOffset;
    for (Addr num : pageNums) {
        std::uint8_t b[8];
        for (unsigned i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(num >> (8 * i));
        h = trace::fnv1a(b, sizeof(b), h);
        const Page &page = *pages_.at(num);
        h = trace::fnv1a(page.data(), page.size(), h);
    }
    return h;
}

std::string
SparseMemory::readString(Addr a) const
{
    std::string s;
    for (Addr i = 0; i < 0x10000; ++i) {
        std::uint8_t b = readByte(a + i);
        if (b == 0)
            return s;
        s.push_back(static_cast<char>(b));
    }
    lvp_fatal("unterminated string at 0x%llx",
              static_cast<unsigned long long>(a));
}

} // namespace lvplib::vm
