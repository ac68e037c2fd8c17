#include "mem/hierarchy.hh"

#include <bit>

#include "util/logging.hh"

namespace lvplib::mem
{

HierarchyConfig
HierarchyConfig::ppc620()
{
    HierarchyConfig c;
    c.l1 = {32 * 1024, 8, 64};
    c.l2 = {1024 * 1024, 8, 64};
    c.banks = 2;
    c.l2Latency = 8;
    c.memLatency = 40;
    return c;
}

HierarchyConfig
HierarchyConfig::alpha21164()
{
    HierarchyConfig c;
    // 8K direct-mapped L1, 96K 3-way L2 on chip. We round the L2 to a
    // power-of-two set count (requirement of the tag model).
    c.l1 = {8 * 1024, 1, 32};
    c.l2 = {96 * 1024, 3, 64};
    c.banks = 2; // true dual-ported: the model never reports conflicts
    c.l2Latency = 8;
    c.memLatency = 40;
    return c;
}

MemHierarchy::MemHierarchy(const HierarchyConfig &config)
    : config_(config), l1_(config.l1), l2_(config.l2),
      bankShift_(static_cast<std::uint32_t>(
          std::countr_zero(config.l1.lineBytes))),
      bankMask_(config.banks - 1)
{
    if (!std::has_single_bit(config.banks))
        lvp_fatal("HierarchyConfig: banks must be a power of two, got %u",
                  config.banks);
}

AccessResult
MemHierarchy::access(Addr addr)
{
    AccessResult r;
    r.bank = bank(addr);
    r.l1Hit = l1_.access(addr);
    if (r.l1Hit)
        return r;
    r.l2Hit = l2_.access(addr);
    r.extraLatency = r.l2Hit ? config_.l2Latency
                             : config_.l2Latency + config_.memLatency;
    return r;
}

bool
MemHierarchy::touchIfPresent(Addr addr)
{
    if (!l1_.probe(addr))
        return false;
    l1_.access(addr);
    return true;
}

std::uint32_t
MemHierarchy::bank(Addr addr) const
{
    return static_cast<std::uint32_t>(addr >> bankShift_) & bankMask_;
}

} // namespace lvplib::mem
