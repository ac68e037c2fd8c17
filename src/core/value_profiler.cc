#include "core/value_profiler.hh"

#include "isa/program.hh"
#include "util/logging.hh"

namespace lvplib::core
{

AllValueLocalityProfiler::AllValueLocalityProfiler(
    std::uint32_t entries, std::uint32_t deep_depth)
    : mask_(entries - 1), deepDepth_(deep_depth),
      table_(entries, deep_depth)
{
    lvp_assert(entries != 0 && (entries & (entries - 1)) == 0,
               "entries=%u", entries);
}

void
AllValueLocalityProfiler::consume(const trace::TraceRecord &rec)
{
    const auto &inst = *rec.inst;
    RegIndex dest = inst.destReg();
    if (dest == isa::NoReg || dest == isa::RegLr)
        return; // no value, or a pc-determined return address

    auto idx = static_cast<std::uint32_t>(
                   rec.pc / isa::layout::InstBytes) & mask_;
    std::uint32_t pos = table_.find(idx, rec.destValue);
    bool hit1 = pos == 0;
    bool hitN = pos != deepDepth_;
    table_.promote(idx, pos, rec.destValue);

    auto bump = [&](LocalityCounts &c) {
        ++c.loads;
        c.hitsDepth1 += hit1 ? 1 : 0;
        c.hitsDepthN += hitN ? 1 : 0;
    };
    bump(counts_.total);
    bump(counts_.fus[static_cast<std::size_t>(inst.fu())]);
}

} // namespace lvplib::core
