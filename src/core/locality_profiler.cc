#include "core/locality_profiler.hh"

#include "isa/program.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace lvplib::core
{

double
LocalityCounts::pctDepth1() const
{
    return pct(hitsDepth1, loads);
}

double
LocalityCounts::pctDepthN() const
{
    return pct(hitsDepthN, loads);
}

ValueLocalityProfiler::ValueLocalityProfiler(std::uint32_t entries,
                                             std::uint32_t deep_depth)
    : mask_(entries - 1), deepDepth_(deep_depth),
      table_(entries, deep_depth)
{
    lvp_assert(entries != 0 && (entries & (entries - 1)) == 0,
               "entries=%u", entries);
}

void
ValueLocalityProfiler::consume(const trace::TraceRecord &rec)
{
    const auto &inst = *rec.inst;
    if (!inst.load())
        return;

    auto idx = static_cast<std::uint32_t>(
                   rec.pc / isa::layout::InstBytes) & mask_;
    // One scan: position 0 is a depth-1 hit, any position a depth-N
    // hit.
    std::uint32_t pos = table_.find(idx, rec.value);
    bool hit1 = pos == 0;
    bool hitN = pos != deepDepth_;
    table_.promote(idx, pos, rec.value);

    auto bump = [&](LocalityCounts &c) {
        ++c.loads;
        c.hitsDepth1 += hit1 ? 1 : 0;
        c.hitsDepthN += hitN ? 1 : 0;
    };
    bump(counts_.total);
    bump(counts_.classes[static_cast<std::size_t>(inst.dataClass)]);
}

} // namespace lvplib::core
