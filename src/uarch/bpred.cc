#include "uarch/bpred.hh"

#include "isa/program.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace lvplib::uarch
{

BranchPredictor::BranchPredictor(const BpredConfig &config)
    : BranchPredictor(config.bhtEntries, config.btbEntries)
{
    gshareBits_ = config.gshareBits;
}

BranchPredictor::BranchPredictor(std::uint32_t bht_entries,
                                 std::uint32_t btb_entries)
    : bhtMask_(bht_entries - 1), btbMask_(btb_entries - 1)
{
    lvp_assert((bht_entries & (bht_entries - 1)) == 0);
    lvp_assert((btb_entries & (btb_entries - 1)) == 0);
    // Initialize direction counters to weakly-taken so loops warm up
    // quickly, as hardware BHTs commonly do.
    bht_.assign(bht_entries, SatCounter(2, 2));
    btbTarget_.assign(btb_entries, 0);
    btbValid_.assign(btb_entries, false);
}

bool
BranchPredictor::predict(const trace::TraceRecord &rec)
{
    const auto &inst = *rec.inst;
    lvp_assert(inst.branch());
    ++branches_;

    auto word = static_cast<std::uint32_t>(rec.pc /
                                           isa::layout::InstBytes);
    bool correct = true;

    if (isa::isCondBranch(inst.op)) {
        SatCounter &ctr = bht_[bhtIndex(rec.pc)];
        bool pred_taken = ctr.upperHalf();
        correct = (pred_taken == rec.taken);
        if (rec.taken)
            ctr.increment();
        else
            ctr.decrement();
        if (gshareBits_ != 0)
            ghr_ = (ghr_ << 1) | (rec.taken ? 1u : 0u);
    } else if (isa::isIndirectBranch(inst.op)) {
        // Direction is always taken; the target comes from the BTB.
        std::uint32_t idx = word & btbMask_;
        correct = btbValid_[idx] && btbTarget_[idx] == rec.nextPc;
        btbTarget_[idx] = rec.nextPc;
        btbValid_[idx] = true;
    } else {
        // Direct unconditional branches/calls: target known at decode.
        correct = true;
    }

    if (!correct)
        ++mispredicts_;
    return correct;
}

double
BranchPredictor::mispredictRate() const
{
    return pct(mispredicts_, branches_);
}

std::uint32_t
BranchPredictor::bhtIndex(Addr pc) const
{
    auto word = static_cast<std::uint32_t>(pc / isa::layout::InstBytes);
    if (gshareBits_ != 0) {
        std::uint32_t hist = ghr_ & ((1u << gshareBits_) - 1u);
        word ^= hist;
    }
    return word & bhtMask_;
}

} // namespace lvplib::uarch
