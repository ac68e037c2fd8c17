#include "core/lvpt.hh"

#include <bit>

#include "util/logging.hh"

namespace lvplib::core
{

Lvpt::Lvpt(std::uint32_t entries, std::uint32_t depth, bool tagged)
    : mask_(entries - 1), depth_(depth), tagged_(tagged),
      table_(entries, depth)
{
    lvp_assert(std::has_single_bit(entries), "entries=%u", entries);
    if (tagged_)
        tags_.assign(entries, ~Addr(0));
}

bool
Lvpt::corruptMruValue(std::uint32_t idx, Word xorMask)
{
    idx &= mask_;
    if (table_.empty(idx))
        return false;
    table_.mru(idx) ^= xorMask;
    return true;
}

std::uint64_t
Lvpt::bitBudget() const
{
    const std::uint64_t depth = depth_;
    std::uint64_t entry =
        depth * (64 + 1) + depth * std::bit_width(depth - 1);
    if (tagged_)
        entry += 64;
    return entries() * entry;
}

} // namespace lvplib::core
