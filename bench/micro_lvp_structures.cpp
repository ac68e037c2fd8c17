/**
 * @file
 * Google-benchmark microbenchmarks of the LVP hardware-structure
 * models and the simulation engines: per-operation costs of the LVPT,
 * LCT, and CVU, end-to-end LvpUnit load processing, and simulated
 * instructions per second for the interpreter and both timing models.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "core/lvp_unit.hh"
#include "isa/program.hh"
#include "sim/pipeline_driver.hh"
#include "trace/columnar.hh"
#include "trace/trace_file.hh"
#include "trace/trace_stats.hh"
#include "uarch/machine_config.hh"
#include "util/rng.hh"
#include "vm/interpreter.hh"
#include "vm/memory.hh"
#include "workloads/workload.hh"

namespace
{

using namespace lvplib;

constexpr Addr Pc0 = isa::layout::CodeBase;

void
BM_LvptProbeUpdate(benchmark::State &state)
{
    core::Lvpt t(static_cast<std::uint32_t>(state.range(0)),
                 static_cast<std::uint32_t>(state.range(1)));
    Rng rng(1);
    for (auto _ : state) {
        // One scan per load, as in LvpUnit::onLoad: probe, judge, train.
        Addr pc = Pc0 + rng.below(4096) * 4;
        Word v = rng.below(16);
        core::LvptProbe p = t.probe(pc, v);
        benchmark::DoNotOptimize(t.hit(p));
        t.update(p, pc, v);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LvptProbeUpdate)
    ->Args({1024, 1})
    ->Args({4096, 16});

void
BM_LctClassifyUpdate(benchmark::State &state)
{
    core::Lct t(static_cast<std::uint32_t>(state.range(0)),
                static_cast<unsigned>(state.range(1)));
    Rng rng(2);
    for (auto _ : state) {
        Addr pc = Pc0 + rng.below(4096) * 4;
        benchmark::DoNotOptimize(t.classify(pc));
        t.update(pc, rng.chance(1, 2));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LctClassifyUpdate)->Args({256, 2})->Args({256, 1});

void
BM_CvuSearchAndInvalidate(benchmark::State &state)
{
    core::Cvu cvu(static_cast<std::uint32_t>(state.range(0)));
    Rng rng(3);
    // Pre-fill to capacity.
    for (std::uint32_t i = 0; i < cvu.capacity(); ++i)
        cvu.insert(0x1000 + i * 8, i, 8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cvu.lookup(0x1000 + rng.below(cvu.capacity()) * 8,
                       rng.below(cvu.capacity())));
        if (rng.chance(1, 8))
            cvu.storeInvalidate(0x1000 + rng.below(cvu.capacity()) * 8,
                                8);
        if (rng.chance(1, 8))
            cvu.insert(0x1000 + rng.below(cvu.capacity()) * 8,
                       rng.below(cvu.capacity()), 8);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CvuSearchAndInvalidate)->Arg(32)->Arg(128);

void
BM_LvpUnitOnLoad(benchmark::State &state)
{
    core::LvpUnit unit(state.range(0) == 0
                           ? core::LvpConfig::simple()
                           : core::LvpConfig::limit());
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            unit.onLoad(Pc0 + rng.below(2048) * 4,
                        0x100000 + rng.below(256) * 8, rng.below(8),
                        8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LvpUnitOnLoad)->Arg(0)->Arg(1);

/** Interpreter throughput in simulated instructions per second. */
void
BM_InterpreterThroughput(benchmark::State &state)
{
    auto prog = workloads::findWorkload("grep").build(
        workloads::CodeGen::Ppc, 2);
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        auto r = sim::runFunctional(prog);
        instrs += r.stats.instructions();
        benchmark::DoNotOptimize(r.result);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_InterpreterThroughput)->Unit(benchmark::kMillisecond);

/**
 * Dispatch-mode shootout on a hot loop kernel: the same workload run
 * through the legacy decode-per-step switch (arg 0) and the
 * predecoded dense switch (arg 1).
 */
void
BM_InterpreterDispatch(benchmark::State &state)
{
    auto mode = static_cast<vm::DispatchMode>(state.range(0));
    auto prog = workloads::findWorkload("grep").build(
        workloads::CodeGen::Ppc, 2);
    vm::Interpreter interp(prog);
    interp.setDispatch(mode);
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        interp.reset();
        instrs += interp.run();
        benchmark::DoNotOptimize(interp.retired());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_InterpreterDispatch)
    ->Arg(static_cast<int>(vm::DispatchMode::LegacySwitch))
    ->Arg(static_cast<int>(vm::DispatchMode::Predecoded))
    ->Unit(benchmark::kMillisecond);

/** Out-of-order timing-model throughput. */
void
BM_Ppc620ModelThroughput(benchmark::State &state)
{
    auto prog = workloads::findWorkload("grep").build(
        workloads::CodeGen::Ppc, 2);
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        auto r = sim::runPpc620(prog, uarch::Ppc620Config::base620(),
                                core::LvpConfig::simple());
        instrs += r.timing.instructions;
        benchmark::DoNotOptimize(r.timing.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_Ppc620ModelThroughput)->Unit(benchmark::kMillisecond);

/** In-order timing-model throughput. */
void
BM_Alpha21164ModelThroughput(benchmark::State &state)
{
    auto prog = workloads::findWorkload("grep").build(
        workloads::CodeGen::Alpha, 2);
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        auto r = sim::runAlpha21164(prog,
                                    uarch::AlphaConfig::base21164(),
                                    core::LvpConfig::simple());
        instrs += r.timing.instructions;
        benchmark::DoNotOptimize(r.timing.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_Alpha21164ModelThroughput)->Unit(benchmark::kMillisecond);

/**
 * Trace-replay throughput: records per second through the
 * block-buffered reader's batched consumeBatch() path, into the same
 * TraceStats sink the run-cache fan-out uses.
 */
void
BM_TraceReplayThroughput(benchmark::State &state)
{
    auto prog = workloads::findWorkload("grep").build(
        workloads::CodeGen::Ppc, 2);
    std::string path = "/tmp/lvplib_bench_replay." +
                       std::to_string(::getpid()) + ".trace";
    std::uint64_t records = 0;
    {
        trace::TraceFileWriter writer(path);
        vm::Interpreter interp(prog);
        interp.run(&writer);
        writer.close();
        records = writer.recordsWritten();
    }
    std::uint64_t replayed = 0;
    for (auto _ : state) {
        trace::TraceStats stats;
        trace::TraceFileReader reader(path, prog);
        replayed += reader.replay(stats);
        benchmark::DoNotOptimize(stats.instructions());
    }
    std::remove(path.c_str());
    state.SetItemsProcessed(static_cast<std::int64_t>(replayed));
    benchmark::DoNotOptimize(records);
}
BENCHMARK(BM_TraceReplayThroughput)->Unit(benchmark::kMillisecond);

/** Synthetic one-block column set shaped like real trace data: a
 *  pc random walk, sparse addr/value columns with delta locality,
 *  and taken/pred flag vectors. */
struct BlockColumns
{
    static constexpr std::size_t N = 64 * 1024;
    std::vector<std::uint64_t> pc, addr, val;
    std::vector<std::uint8_t> taken, pred;

    BlockColumns() : pc(N), addr(N), val(N), taken(N), pred(N)
    {
        Rng rng(7);
        std::uint64_t p = 0x10000, a = 0x800000, v = 0x1234;
        for (std::size_t i = 0; i < N; ++i) {
            p += 4 + (rng.below(32) == 0 ? rng.below(1u << 16) : 0);
            pc[i] = p;
            if (rng.below(10) < 4) { // ~40% memory records
                a += 8 + rng.below(64);
                v += rng.below(256);
                addr[i] = a;
                val[i] = v;
            }
            taken[i] = rng.below(2);
            pred[i] = rng.below(4);
        }
    }
};

/** v3 block encode: all five columns of one 64Ki-record block. */
void
BM_TraceBlockEncode(benchmark::State &state)
{
    BlockColumns cols;
    std::vector<std::uint8_t> out;
    for (auto _ : state) {
        out.clear();
        trace::encodeDeltaColumn(cols.pc.data(), cols.N, out);
        trace::encodeSparseColumn(cols.addr.data(), cols.N, out);
        trace::encodeSparseColumn(cols.val.data(), cols.N, out);
        trace::packBits(cols.taken.data(), cols.N, out);
        trace::packCrumbs(cols.pred.data(), cols.N, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * cols.N));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * cols.N * trace::TraceRecordBytes));
}
BENCHMARK(BM_TraceBlockEncode)->Unit(benchmark::kMillisecond);

/** v3 block decode, strided straight into record-shaped slots (the
 *  reader's zero-recopy scatter). */
void
BM_TraceBlockDecode(benchmark::State &state)
{
    BlockColumns cols;
    std::vector<std::uint8_t> pcEnc, addrEnc, valEnc;
    trace::encodeDeltaColumn(cols.pc.data(), cols.N, pcEnc);
    trace::encodeSparseColumn(cols.addr.data(), cols.N, addrEnc);
    trace::encodeSparseColumn(cols.val.data(), cols.N, valEnc);

    constexpr std::size_t Stride = 4; // u64 slots per decoded record
    std::vector<std::uint64_t> decoded(cols.N * Stride);
    for (auto _ : state) {
        bool ok =
            trace::decodeDeltaColumn(pcEnc.data(), pcEnc.size(),
                                     decoded.data(), cols.N, Stride) &&
            trace::decodeSparseColumn(addrEnc.data(), addrEnc.size(),
                                      decoded.data() + 1, cols.N,
                                      Stride) &&
            trace::decodeSparseColumn(valEnc.data(), valEnc.size(),
                                      decoded.data() + 2, cols.N,
                                      Stride);
        if (!ok)
            state.SkipWithError("column decode failed");
        benchmark::DoNotOptimize(decoded.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * cols.N));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * cols.N * trace::TraceRecordBytes));
}
BENCHMARK(BM_TraceBlockDecode)->Unit(benchmark::kMillisecond);

/**
 * SparseMemory hot path: word reads/writes with strong page locality
 * (the interpreter's access pattern the page cache is built for) and
 * a page-striding pattern that defeats the one-entry cache.
 */
void
BM_SparseMemoryReadWrite(benchmark::State &state)
{
    vm::SparseMemory mem;
    const Addr stride = static_cast<Addr>(state.range(0));
    constexpr Addr Base = 0x100000;
    constexpr unsigned Slots = 4096;
    for (unsigned i = 0; i < Slots; ++i)
        mem.write(Base + i * stride, i, 8);
    Rng rng(5);
    for (auto _ : state) {
        Addr a = Base + rng.below(Slots) * stride;
        mem.write(a, rng.below(1u << 30), 8);
        benchmark::DoNotOptimize(mem.read(a, 8));
        benchmark::DoNotOptimize(mem.read(a, 4));
    }
    state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_SparseMemoryReadWrite)
    ->Arg(8)                              // page-local (cache-friendly)
    ->Arg(vm::SparseMemory::PageSize);    // one page per slot

} // namespace

BENCHMARK_MAIN();
