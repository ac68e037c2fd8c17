#include "core/lvpt.hh"

#include "util/logging.hh"

namespace lvplib::core
{

Lvpt::Lvpt(std::uint32_t entries, std::uint32_t depth, bool tagged)
    : mask_(entries - 1), depth_(depth), tagged_(tagged),
      table_(entries, depth)
{
    lvp_assert(entries != 0 && (entries & (entries - 1)) == 0,
               "entries=%u", entries);
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

void
Lvpt::reset()
{
    table_.clear();
    if (tagged_)
        tags_.assign(tags_.size(), ~Addr(0));
}

} // namespace lvplib::core
