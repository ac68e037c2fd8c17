#include "paper_ref.hh"

#include <array>
#include <cmath>

namespace perfbench
{

namespace
{

constexpr std::array<PaperRef, 20> kRefs = {{
    {"Figure 6 PowerPC 620 GM, Simple", 1.03, "fig6ppc.gm.simple", true},
    {"Figure 6 PowerPC 620 GM, Constant", 1.03, "fig6ppc.gm.constant",
     true},
    {"Figure 6 PowerPC 620 GM, Limit", 1.06, "fig6ppc.gm.limit", true},
    {"Figure 6 PowerPC 620 GM, Perfect", 1.09, "fig6ppc.gm.perfect", true},
    {"Figure 6 Alpha 21164 GM, Simple", 1.06, "fig6alpha.gm.simple", true},
    {"Figure 6 Alpha 21164 GM, Limit", 1.09, "fig6alpha.gm.limit", true},
    {"Figure 6 Alpha 21164 GM, Perfect", 1.16, "fig6alpha.gm.perfect",
     true},
    {"Table 6 GM, 620+ over 620 without LVP", 1.061, "table6.gm.plus_ratio",
     true},
    {"Table 6 GM, 620+ Simple", 1.046, "table6.gm.simple", true},
    {"Table 6 GM, 620+ Constant", 1.042, "table6.gm.constant", true},
    {"Table 6 GM, 620+ Limit", 1.077, "table6.gm.limit", true},
    {"Table 6 GM, 620+ Perfect", 1.113, "table6.gm.perfect", true},
    {"Table 3 GM, PPC Simple unpredictable identified", 89,
     "table3.gm.ppc_simple_unpred", false},
    {"Table 3 GM, PPC Simple predictable identified", 75,
     "table3.gm.ppc_simple_pred", false},
    {"Table 3 GM, PPC Limit unpredictable identified", 80,
     "table3.gm.ppc_limit_unpred", false},
    {"Table 3 GM, PPC Limit predictable identified", 90,
     "table3.gm.ppc_limit_pred", false},
    {"Table 4 GM, PPC Simple constants", 13, "table4.mean.ppc_simple",
     false},
    {"Table 4 GM, PPC Constant constants", 22, "table4.mean.ppc_constant",
     false},
    {"Table 4 GM, Alpha Simple constants", 13, "table4.mean.alpha_simple",
     false},
    {"Table 4 GM, Alpha Constant constants", 22,
     "table4.mean.alpha_constant", false},
}};

} // namespace

std::span<const PaperRef>
paperRefs()
{
    return kRefs;
}

std::optional<double>
paperGapPct(const std::function<std::optional<double>(const char *)> &lookup)
{
    double sum = 0;
    for (const PaperRef &r : kRefs) {
        auto ours = lookup(r.key);
        if (!ours)
            return std::nullopt;
        double p = r.speedup ? r.paper - 1 : r.paper;
        double o = r.speedup ? *ours - 1 : *ours;
        sum += std::fabs(o - p) / std::fabs(p);
    }
    return 100 * sum / static_cast<double>(kRefs.size());
}

} // namespace perfbench
