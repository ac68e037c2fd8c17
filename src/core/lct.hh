/**
 * @file
 * The Load Classification Table (paper Section 3.2).
 *
 * A direct-mapped, untagged table of n-bit saturating counters indexed
 * by the low-order bits of the load's instruction address. The counter
 * classifies each static load as unpredictable, predictable, or
 * constant:
 *
 *   2-bit: states 0,1 = "don't predict", 2 = "predict", 3 = "constant"
 *   1-bit: state 0 = "don't predict", 1 = "constant"
 *
 * The counter is incremented when the LVPT's prediction matches the
 * loaded value and decremented otherwise.
 */

#ifndef LVPLIB_CORE_LCT_HH
#define LVPLIB_CORE_LCT_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "util/sat_counter.hh"
#include "util/types.hh"

namespace lvplib::core
{

/** The three dynamic load classes of paper Section 3.2. */
enum class LoadClass : std::uint8_t
{
    DontPredict,
    Predict,
    Constant,
};

const char *loadClassName(LoadClass c);

class Lct
{
  public:
    /**
     * @param entries Number of counters (power of two).
     * @param bits Counter width; the paper uses 1 or 2.
     */
    Lct(std::uint32_t entries, unsigned bits);

    /** Table index for a load at @p pc. */
    std::uint32_t
    index(Addr pc) const
    {
        return static_cast<std::uint32_t>(pc / isa::layout::InstBytes) &
               mask_;
    }

    /** Classify the load at @p pc from its counter state. */
    LoadClass
    classify(Addr pc) const
    {
        const SatCounter &c = table_[index(pc)];
        if (bits_ == 1)
            return c.value() == 0 ? LoadClass::DontPredict
                                  : LoadClass::Constant;
        // For n >= 2 bits: the top state is "constant", the state
        // below it is "predict", everything else is "don't predict"
        // (generalizes the paper's 2-bit assignment 0,1,2,3 =
        // dp,dp,p,c).
        if (c.value() == c.maxValue())
            return LoadClass::Constant;
        if (c.value() == c.maxValue() - 1)
            return LoadClass::Predict;
        return LoadClass::DontPredict;
    }

    /**
     * Train the counter: increment when the LVPT prediction was
     * correct for this dynamic load, decrement otherwise.
     */
    void
    update(Addr pc, bool prediction_correct)
    {
        SatCounter &c = table_[index(pc)];
        if (prediction_correct)
            c.increment();
        else
            c.decrement();
    }

    /** Raw counter value, for tests and diagnostics. */
    std::uint8_t counter(Addr pc) const { return table_[index(pc)].value(); }

    std::uint32_t entries() const { return mask_ + 1; }
    unsigned bits() const { return bits_; }

    /** Architected state: one saturating counter per entry. */
    std::uint64_t
    bitBudget() const
    {
        return std::uint64_t{entries()} * bits_;
    }

    /**
     * Fault injection (lvpchaos): flip the low bit of counter @p idx,
     * modelling a bit flip in the classification state. Worst case the
     * flip promotes a load to Constant; the CVU still only vouches for
     * values it verified, so architectural results are unaffected.
     */
    void corruptCounter(std::uint32_t idx);

  private:
    std::uint32_t mask_;
    unsigned bits_;
    std::vector<SatCounter> table_;
};

} // namespace lvplib::core

#endif // LVPLIB_CORE_LCT_HH
