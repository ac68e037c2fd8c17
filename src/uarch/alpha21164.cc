#include "uarch/alpha21164.hh"

#include <algorithm>

#include "isa/latency.hh"
#include "util/logging.hh"

namespace lvplib::uarch
{

using isa::FuType;
using isa::Instruction;
using isa::MachineIsa;
using trace::PredState;

double
InOrderStats::ipc() const
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
}

double
InOrderStats::missRatePerInst() const
{
    return pct(l1Misses, instructions);
}

// The (validate(), config) comma idiom rejects a bad config before
// any member below is sized from it.
Alpha21164Model::Alpha21164Model(const AlphaConfig &config,
                                 bool lvp_enabled)
    : config_((config.validate(), config)), lvp_(lvp_enabled),
      mem_(config.mem),
      bpred_(config.bpred), intPipes_(config.intPipes),
      fpPipes_(config.fpPipes),
      dispatchSlots_(config.width)
{}

void
Alpha21164Model::consume(const trace::TraceRecord &rec)
{
    const Instruction &inst = *rec.inst;
    const isa::OpLatency lat =
        isa::opLatency(MachineIsa::Alpha21164, inst.op);
    const bool fp = inst.fu() == FuType::FPU;

    ++stats_.instructions;

    // ---- dispatch: strictly in-order, stall until everything is
    // ready (the 21164 cannot stall past dispatch) -------------------
    Cycle d = std::max({lastDispatch_, stallUntil_});

    // Source operands must be available (full bypassing assumed).
    for (RegIndex s : inst.srcRegs()) {
        if (s != isa::NoReg)
            d = std::max(d, regReady_[s]);
    }

    // Memory ops wait for a blocking miss in progress (no MAF).
    if (inst.memRef())
        d = std::max(d, cacheBusyUntil_);

    lvp_dassert(d >= lastDispatch_, "dispatch went backwards");

    // Pipe and dispatch-slot availability.
    FuBank &pipes = fp ? fpPipes_ : intPipes_;
    pipes.setFloor(d);
    for (;;) {
        Cycle d2 = std::max(dispatchSlots_.earliest(d),
                            pipes.earliestAvailable(d, lat.issue));
        if (d2 == d)
            break;
        d = d2;
    }
    dispatchSlots_.claim(d);
    pipes.bookAt(d, lat.issue);
    lastDispatch_ = d;

    // ---- execute ----------------------------------------------------
    if (inst.load()) {
        ++stats_.loads;
        PredState pred = lvp_ ? rec.pred : PredState::None;

        if (pred == PredState::Constant) {
            // CVU-verified constant: completes without touching the
            // cache; zero-cycle load even across would-be misses.
            ++stats_.constLoads;
            ++stats_.predictedLoads;
            if (inst.destReg() != isa::NoReg)
                regReady_[inst.destReg()] = d; // value known at dispatch
        } else {
            mem::AccessResult ar = mem_.access(rec.effAddr);
            ++stats_.l1Accesses;
            Cycle ret = d + lat.result + ar.extraLatency;
            if (!ar.l1Hit) {
                ++stats_.l1Misses;
                cacheBusyUntil_ = ret; // blocking fill
                if (pred != PredState::None)
                    ++stats_.droppedPredictions; // no penalty (paper)
                if (inst.destReg() != isa::NoReg)
                    regReady_[inst.destReg()] = ret;
            } else if (pred == PredState::Correct) {
                ++stats_.predictedLoads;
                // Zero-cycle load: dependents use the value at once.
                if (inst.destReg() != isa::NoReg)
                    regReady_[inst.destReg()] = d;
            } else if (pred == PredState::Incorrect) {
                ++stats_.predictedLoads;
                ++stats_.squashes;
                // The compare stage flags the mismatch one cycle
                // after data return (the "single-cycle penalty": the
                // reissue buffer redispatches the squashed group at
                // the verify cycle, one cycle later than an
                // unpredicted load's consumers would have gone).
                Cycle verify = ret + 1;
                stallUntil_ = std::max(stallUntil_, verify);
                if (inst.destReg() != isa::NoReg)
                    regReady_[inst.destReg()] = ret;
            } else {
                if (inst.destReg() != isa::NoReg)
                    regReady_[inst.destReg()] = ret;
            }
        }
    } else if (inst.store()) {
        ++stats_.stores;
        mem::AccessResult ar = mem_.access(rec.effAddr);
        ++stats_.l1Accesses;
        if (!ar.l1Hit)
            ++stats_.l1Misses; // write-allocate fill, buffered (no stall)
    } else {
        if (inst.destReg() != isa::NoReg)
            regReady_[inst.destReg()] = d + lat.result;

        if (inst.branch()) {
            bool correct = bpred_.predict(rec);
            if (!correct) {
                ++stats_.branchMispredicts;
                Cycle resolve = d + 1;
                stallUntil_ = std::max(
                    stallUntil_,
                    resolve + isa::mispredictPenalty(
                                  MachineIsa::Alpha21164));
            }
        }
    }

    stats_.cycles = std::max(stats_.cycles, d + lat.result);
}

void
Alpha21164Model::finish()
{
    // Account for pipeline drain (the 21164's deep back end).
    stats_.cycles += 6;
}

} // namespace lvplib::uarch
