#include "core/lct.hh"

#include <bit>

#include "util/logging.hh"

namespace lvplib::core
{

const char *
loadClassName(LoadClass c)
{
    switch (c) {
      case LoadClass::DontPredict: return "dont-predict";
      case LoadClass::Predict: return "predict";
      case LoadClass::Constant: return "constant";
    }
    return "?";
}

Lct::Lct(std::uint32_t entries, unsigned bits)
    : mask_(entries - 1), bits_(bits)
{
    lvp_assert(std::has_single_bit(entries), "entries=%u", entries);
    table_.assign(entries, SatCounter(bits));
}

void
Lct::corruptCounter(std::uint32_t idx)
{
    SatCounter &c = table_[idx & mask_];
    c.set(static_cast<std::uint8_t>(c.value() ^ 1));
}

} // namespace lvplib::core
