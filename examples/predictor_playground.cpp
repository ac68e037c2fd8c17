/**
 * @file
 * Predictor playground: compare the paper's history-based LVP unit
 * against the stride-detecting unit (the paper's future-work idea) on
 * a hand-written program with three kinds of loads:
 *
 *   - a run-time constant (both predictors nail it),
 *   - an array walk loading 0,8,16,... (only stride prediction
 *     follows it),
 *   - pseudo-random values (neither should predict, and the LCT
 *     should learn to say "don't predict").
 *
 * This demonstrates assembling custom VLISA programs against the
 * public API and swapping prediction units behind the same pipeline.
 */

#include <cstdio>

#include "core/lvp_unit.hh"
#include "core/stride_unit.hh"
#include "isa/assembler.hh"
#include "sim/pipeline_driver.hh"
#include "vm/interpreter.hh"

namespace
{

using namespace lvplib;

/** Build the three-loads demo program. */
isa::Program
buildDemo()
{
    isa::Assembler a;
    a.dataLabel("konst");
    a.dd(0xC0FFEE);
    Addr arr = a.dataLabel("arr");
    for (Word i = 0; i < 256; ++i)
        a.dd(i * 8); // the strided stream: 0, 8, 16, ...
    (void)arr;
    a.dataLabel("noise");
    a.dspace(8);

    a.la(10, "konst");
    a.la(11, "arr");
    a.la(12, "noise");
    a.li(13, 0x1234567);  // xorshift state
    a.li(14, 0);          // i
    a.li(15, 256);

    a.label("loop");
    // 1. constant load
    a.ld(3, 0, 10);
    // 2. strided load: arr[i] holds i*8
    a.sldi(4, 14, 3);
    a.add(4, 4, 11);
    a.ld(4, 0, 4);
    // 3. noisy load: store a fresh pseudo-random value, re-load it
    a.sldi(5, 13, 13);
    a.xor_(13, 13, 5);
    a.srdi(5, 13, 7);
    a.xor_(13, 13, 5);
    a.std_(13, 0, 12);
    a.ld(6, 0, 12);
    a.addi(14, 14, 1);
    a.cmp(0, 14, 15);
    a.bc(isa::Cond::LT, 0, "loop");
    a.halt();
    return a.finish();
}

void
report(const char *name, const core::LvpStats &st)
{
    std::printf("%-22s loads=%llu predicted=%.1f%% accuracy=%.1f%% "
                "good=%.1f%% constants=%.1f%%\n",
                name, (unsigned long long)st.loads,
                st.predictionRate(), st.accuracy(),
                100.0 *
                    static_cast<double>(st.correct + st.constants) /
                    static_cast<double>(st.loads),
                st.constantRate());
}

} // namespace

int
main()
{
    isa::Program prog = buildDemo();
    auto func = sim::runFunctional(prog);
    std::printf("demo program: %llu instructions, %llu loads\n",
                (unsigned long long)func.stats.instructions(),
                (unsigned long long)func.stats.loads());

    report("history-based (LVP)",
           sim::runPredictorOnly(prog, core::LvpConfig::simple()));
    report("stride-detecting",
           sim::runPredictorOnly(prog, core::StrideConfig::simple()));

    std::printf("\nExpected: both predict the constant; only the "
                "stride unit follows the array walk;\nneither "
                "predicts the noise (the LCT suppresses it).\n");
    return 0;
}
