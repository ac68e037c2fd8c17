#include "uarch/ppc620.hh"

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
OooStats::ipc() const
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
}

double
OooStats::rsWaitMean(FuType t) const
{
    auto i = static_cast<std::size_t>(t);
    return rsWaitInsts[i] == 0
               ? 0.0
               : static_cast<double>(rsWaitCycles[i]) /
                     static_cast<double>(rsWaitInsts[i]);
}

double
OooStats::bankConflictPct() const
{
    return pct(bankConflictCycles, cycles);
}

namespace
{

unsigned
unitCount(const Ppc620Config &c, FuType t)
{
    switch (t) {
      case FuType::SCFX: return c.numScfx;
      case FuType::MCFX: return c.numMcfx;
      case FuType::FPU: return c.numFpu;
      case FuType::LSU: return c.numLsu;
      case FuType::BRU: return c.numBru;
    }
    return 1;
}

} // namespace

// The (validate(), config) comma idiom rejects a bad config before
// any member below is sized from it.
Ppc620Model::Ppc620Model(const Ppc620Config &config, bool lvp_enabled)
    : config_((config.validate(), config)), lvp_(lvp_enabled),
      mem_(config.mem),
      bpred_(config.bpred),
      fus_{FuBank(unitCount(config, FuType::SCFX)),
           FuBank(unitCount(config, FuType::MCFX)),
           FuBank(unitCount(config, FuType::FPU)),
           FuBank(unitCount(config, FuType::LSU)),
           FuBank(unitCount(config, FuType::BRU))},
      rsPools_{ResourcePool(config.rsPerUnit *
                            unitCount(config, FuType::SCFX)),
               ResourcePool(config.rsPerUnit *
                            unitCount(config, FuType::MCFX)),
               ResourcePool(config.rsPerUnit *
                            unitCount(config, FuType::FPU)),
               ResourcePool(config.rsPerUnit *
                            unitCount(config, FuType::LSU)),
               ResourcePool(config.rsPerUnit *
                            unitCount(config, FuType::BRU))},
      gprRename_(config.gprRename), fprRename_(config.fprRename),
      completionBuf_(config.completionEntries),
      banks_(config.mem.banks),
      fetchBufDispatch_(config.fetchBuffer, 0),
      dispatchSlots_(config.dispatchWidth),
      memDispatchSlots_(config.memOpsPerCycle),
      completeSlots_(config.completeWidth)
{
    missEnds_.reserve(config.mshrs);
}

Cycle
Ppc620Model::fetchCycle()
{
    // A fetch-buffer entry frees when the instruction occupying it
    // dispatches.
    Cycle f = std::max(nextFetch_, fetchBufDispatch_[fetchPos_]);
    if (f > nextFetch_) {
        nextFetch_ = f;
        fetchCount_ = 0;
    }
    Cycle cycle = nextFetch_;
    if (++fetchCount_ >= config_.fetchWidth) {
        ++nextFetch_;
        fetchCount_ = 0;
    }
    return cycle;
}

Cycle
Ppc620Model::dispatchCycle(const Instruction &inst, Cycle fetch)
{
    FuType fu = inst.fu();
    Cycle d = std::max({fetch + 1, lastDispatch_,
                        rsPools_[static_cast<std::size_t>(fu)]
                            .earliestAvailable(),
                        completionBuf_.earliestAvailable()});

    RegIndex dest = inst.destReg();
    if (dest != isa::NoReg) {
        if (dest < isa::NumGpr)
            d = std::max(d, gprRename_.earliestAvailable());
        else if (isa::isFpr(dest))
            d = std::max(d, fprRename_.earliestAvailable());
    }

    // Per-cycle bandwidth: dispatch width, plus the load/store
    // dispatch limit (one per cycle on the 620, two on the 620+).
    for (;;) {
        Cycle d2 = dispatchSlots_.earliest(d);
        if (inst.memRef())
            d2 = std::max(d2, memDispatchSlots_.earliest(d2));
        if (d2 == d)
            break;
        d = d2;
    }
    dispatchSlots_.claim(d);
    if (inst.memRef())
        memDispatchSlots_.claim(d);
    lastDispatch_ = d;

    fetchBufDispatch_[fetchPos_] = d;
    if (++fetchPos_ == fetchBufDispatch_.size())
        fetchPos_ = 0;
    return d;
}

Cycle
Ppc620Model::completeCycle(Cycle eligible, Cycle dispatch)
{
    Cycle c = std::max({eligible, lastComplete_, dispatch + 1});
    c = completeSlots_.earliest(c);
    lvp_dassert(c >= lastComplete_ && c > dispatch,
                "completion out of order or before dispatch");
    completeSlots_.claim(c);
    lastComplete_ = c;
    return c;
}

Cycle
Ppc620Model::loadDataReturn(const trace::TraceRecord &rec, Cycle issue,
                            PredState pred)
{
    // Address generation in EX1 (the issue cycle); the cache is
    // accessed the following cycle; data returns the cycle after a
    // hit (2-cycle load-use latency, paper Table 5).
    Cycle access = issue + 1;

    if (pred == PredState::Constant) {
        // CVU hit: the access proceeds in parallel with the CAM
        // search, but a miss or a bank conflict cancels it outright
        // (no retry, no fill) — the value never needs the memory
        // hierarchy.
        if (banks_.tryBookLoad(access, mem_.bank(rec.effAddr))) {
            bool hit = mem_.touchIfPresent(rec.effAddr);
            ++stats_.l1Accesses;
            if (!hit)
                ++stats_.constMissesAvoided;
        }
        return access + 1;
    }

    mem::AccessResult ar = mem_.access(rec.effAddr);
    ++stats_.l1Accesses;
    access = banks_.bookLoad(access, ar.bank);
    Cycle ret = access + 1;

    if (!ar.l1Hit) {
        ++stats_.l1Misses;
        ret += ar.extraLatency;
        // Non-blocking cache: bounded outstanding misses (MSHRs).
        missEnds_.erase(missEnds_.begin(),
                        std::upper_bound(missEnds_.begin(),
                                         missEnds_.end(), access));
        if (missEnds_.size() >= config_.mshrs) {
            Cycle wait = missEnds_.front();
            ret += wait > access ? wait - access : 0;
            missEnds_.erase(missEnds_.begin());
        }
        missEnds_.insert(std::upper_bound(missEnds_.begin(),
                                          missEnds_.end(), ret),
                         ret);
    }

    // Store-to-load forwarding. A store can only move ret to its
    // ready + 1 <= sqMaxReady_ + 1, so past the bound the scan would
    // return ret unchanged.
    const Addr loadEnd = rec.effAddr + rec.inst->accessSize();
    if (ret <= sqMaxReady_)
        return forwardFromStores(rec.effAddr, loadEnd, ret);
    lvp_dassert(forwardFromStores(rec.effAddr, loadEnd, ret) == ret,
                "a store past the store-queue bound delays a load");
    return ret;
}

/** A younger load of bytes [begin, end) written by an in-flight
 *  older store gets the data once the store's data is ready. */
Cycle
Ppc620Model::forwardFromStores(Addr begin, Addr end, Cycle ret) const
{
    for (const StoreEntry &st : storeQueue_) {
        if (st.begin < end && begin < st.end)
            ret = std::max(ret, st.ready + 1);
    }
    return ret;
}

void
Ppc620Model::consume(const trace::TraceRecord &rec)
{
    const Instruction &inst = *rec.inst;
    const FuType fu = inst.fu();
    const auto fu_idx = static_cast<std::size_t>(fu);
    const isa::OpLatency lat = isa::opLatency(MachineIsa::Ppc620, inst.op);

    ++stats_.instructions;

    Cycle fetch = fetchCycle();
    Cycle d = dispatchCycle(inst, fetch);
    // Every FU query below starts at or after d + 1.
    fus_[fu_idx].setFloor(d);

    // Operand readiness from the scoreboard.
    Cycle spec_ready = 0;  // earliest (possibly speculative) operands
    Cycle good_ready = 0;  // earliest correct operands
    Cycle src_verify = 0;  // latest pending verification among sources
    for (RegIndex s : inst.srcRegs()) {
        if (s == isa::NoReg)
            continue;
        const RegInfo &ri = regs_[s];
        spec_ready = std::max(spec_ready, ri.early);
        good_ready = std::max(good_ready, ri.good);
        src_verify = std::max(src_verify, ri.verify);
    }

    Cycle eligible = 0;   // earliest completion
    Cycle rs_free = 0;
    RegInfo out;          // timing of this instruction's result

    if (inst.load()) {
        ++stats_.loads;
        PredState pred = lvp_ ? rec.pred : PredState::None;
        if (pred != PredState::None)
            ++stats_.predictedLoads;

        // Address generation uses the correct base value.
        Cycle issue = fus_[fu_idx].book(std::max(d + 1, good_ready),
                                        lat.issue);
        stats_.rsWaitCycles[fu_idx] += issue - (d + 1);
        ++stats_.rsWaitInsts[fu_idx];

        Cycle ret = loadDataReturn(rec, issue, pred);
        Cycle verify = 0;

        switch (pred) {
          case PredState::None:
            out.early = out.good = ret;
            eligible = ret;
            break;
          case PredState::Constant:
            // Value forwarded at dispatch; the CVU CAM search (in
            // parallel with the cache access) is the verification.
            out.early = out.good = d + 1;
            verify = issue + 2;
            eligible = verify;
            break;
          case PredState::Correct:
            out.early = out.good = d + 1;
            verify = ret + 1; // comparison takes one extra cycle
            // The load itself is non-speculative once the actual
            // value returns; only its DEPENDENTS wait for the
            // comparison (paper Section 4.1: a correct prediction
            // costs structural effects, not latency).
            eligible = ret;
            break;
          case PredState::Incorrect:
            out.early = d + 1;   // bogus value forwarded at dispatch
            verify = ret + 1;
            out.good = verify;   // corrected value at verification
            eligible = verify;
            if (config_.squashOnValueMispredict) {
                // Ablation: recover like a branch mispredict —
                // refetch everything younger than the load once the
                // verification flags the mismatch.
                if (verify + 1 > nextFetch_) {
                    nextFetch_ = verify + 1;
                    fetchCount_ = 0;
                }
            }
            break;
        }

        if (pred == PredState::Correct || pred == PredState::Constant)
            stats_.verifyLatency.record(verify - d);

        // Propagate any still-pending verification from sources. A
        // consumer that issues once the actual value is back runs "in
        // parallel with the value comparison" (paper Section 4.1) and
        // pays no penalty, hence the +1 in the binding test.
        out.verify = std::max(
            verify, src_verify > issue + 1 ? src_verify : 0);
        rs_free = std::max(issue + lat.issue,
                           src_verify > issue + 1 ? src_verify : 0);
    } else if (inst.store()) {
        ++stats_.stores;
        // Address generation at issue; data needed by completion.
        Cycle addr_ready = inst.rs1 == 0 ? 0 : regs_[inst.rs1].good;
        Cycle data_ready = inst.rs2 == 0 ? 0 : regs_[inst.rs2].good;
        Cycle issue = fus_[fu_idx].book(std::max(d + 1, addr_ready),
                                        lat.issue);
        stats_.rsWaitCycles[fu_idx] += issue - (d + 1);
        ++stats_.rsWaitInsts[fu_idx];

        Cycle bound_verify = src_verify > issue + 1 ? src_verify : 0;
        eligible = std::max({issue + 1, data_ready, bound_verify});
        rs_free = std::max(issue + lat.issue, bound_verify);

        const Cycle ready = std::max(issue, data_ready);
        storeQueue_[storeNext_] = {rec.effAddr,
                                   rec.effAddr + inst.accessSize(), ready};
        storeNext_ = (storeNext_ + 1) % storeQueue_.size();
        sqMaxReady_ = std::max(sqMaxReady_, ready);
    } else {
        // ALU / branch: may issue speculatively on forwarded values.
        Cycle issue_spec = fus_[fu_idx].book(std::max(d + 1, spec_ready),
                                             lat.issue);
        stats_.rsWaitCycles[fu_idx] += issue_spec - (d + 1);
        ++stats_.rsWaitInsts[fu_idx];

        Cycle final_issue = issue_spec;
        out.early = issue_spec + lat.result;
        if (good_ready > issue_spec) {
            // Issued with a value that later proved wrong: reissue
            // once correct operands exist (structural hazard: the FU
            // and RS were occupied twice).
            final_issue = fus_[fu_idx].book(std::max(d + 1, good_ready),
                                            lat.issue);
            out.good = final_issue + lat.result;
            ++stats_.reissuedInsts;
        } else {
            out.good = out.early;
        }

        // The verification tag binds only when this instruction truly
        // consumed a speculative value (it issued before the actual
        // value existed; issuing in parallel with the comparison is
        // penalty-free, paper Section 4.1).
        out.verify = src_verify > final_issue + 1 ? src_verify : 0;
        eligible = std::max(out.good, out.verify);
        rs_free = std::max(final_issue + lat.issue, out.verify);

        if (inst.branch()) {
            Cycle resolve = out.good;
            bool correct = bpred_.predict(rec);
            if (!correct) {
                ++stats_.branchMispredicts;
                Cycle redirect =
                    resolve + isa::mispredictPenalty(MachineIsa::Ppc620);
                if (redirect > nextFetch_) {
                    nextFetch_ = redirect;
                    fetchCount_ = 0;
                }
            } else if (rec.taken) {
                // A predicted-taken branch ends the fetch group.
                if (fetchCount_ != 0) {
                    ++nextFetch_;
                    fetchCount_ = 0;
                }
            }
        }
    }

    Cycle complete = completeCycle(eligible, d);

    // Stores access the cache at completion and must win a bank.
    if (inst.store()) {
        mem::AccessResult ar = mem_.access(rec.effAddr);
        ++stats_.l1Accesses;
        if (!ar.l1Hit)
            ++stats_.l1Misses;
        banks_.bookStore(complete, ar.bank);
    }

    // Claim window resources with their now-known release times.
    rsPools_[fu_idx].claim(std::max(rs_free, d + 1));
    completionBuf_.claim(complete + 1);
    RegIndex dest = inst.destReg();
    if (dest != isa::NoReg) {
        if (dest < isa::NumGpr)
            gprRename_.claim(complete + 1);
        else if (isa::isFpr(dest))
            fprRename_.claim(complete + 1);
        regs_[dest] = out;
    }

    stats_.cycles = std::max(stats_.cycles, complete);
    stats_.bankConflictCycles = banks_.conflictCycles();
}

void
Ppc620Model::finish()
{
    stats_.bankConflictCycles = banks_.conflictCycles();
}

} // namespace lvplib::uarch
