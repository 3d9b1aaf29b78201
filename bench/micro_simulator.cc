/**
 * @file
 * Micro-benchmarks (google-benchmark): cycle-level simulator
 * throughput (simulated cycles per wall second) on representative
 * kernels, plus interpreter (golden-model) throughput.
 *
 * Every simulator benchmark is registered four times — `*_jit`
 * (runtime code generation: the armed period program lowered to C++,
 * compiled to a cached shared object, replay chunks run natively),
 * `*_compiled` (event-driven + per-region compute plans + interpreted
 * period replay, the PR 8 tier), `*_sparse` (event-driven with the
 * interpreted region tick), and `*_dense` (the original
 * cycle-by-cycle oracle loop) — so BENCH_simulator.json carries its
 * own tier-by-tier comparison, mirroring the `*_reference` convention
 * in micro_scheduler.cc. All modes produce bit-identical results
 * (enforced by tests/test_sim_sparse.cc, tests/test_sim_compiled.cc,
 * and tests/test_sim_jit.cc); only wall-clock differs. The jit
 * fixtures prewarm synchronously (DSA_SIM_JIT_SYNC) so the timed
 * iterations measure native replay, not compiler latency; the one
 * compile per kernel shape is amortized through the on-disk object
 * cache in real runs.
 *
 * The `cmdheavy_*` fixtures model a slow control core (high command
 * latency, fractional issue IPC), stretching the WaitCmd quiet spells
 * between stream issues that idle-cycle skipping elides. `fallback_*`
 * runs data-dependent kernels whose gather/scatter streams take the
 * throttled scalar-fallback path on targets without indirect stream
 * controllers — long fixed-interval gaps between element pops.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench/bench_common.h"

using namespace dsa;

namespace {

/** Control-core tweak applied to the fixture hardware before
 *  compilation (nullptr = leave the target as built). */
using HwTweak = void (*)(adg::Adg &);

void
slowControlCore(adg::Adg &hw)
{
    // A 2000-cycle command pipeline issuing one command every four
    // cycles: every region spends most of its life in WaitCmd, which
    // the sparse loop skips in one jump per stream issue.
    hw.control().cmdLatency = 2000;
    hw.control().cmdIssueIpc = 0.25;
}

adg::Adg
buildHw(const std::string &target, HwTweak tweak)
{
    adg::Adg hw = bench::buildTarget(target);
    if (tweak)
        tweak(hw);
    return hw;
}

struct SimFixture
{
    adg::Adg hw;
    const workloads::Workload &w;
    workloads::GoldenRun golden;
    compiler::Placement placement;
    dfg::DecoupledProgram prog;
    mapper::Schedule sched;
    bool ready = false;

    SimFixture(const std::string &name, const std::string &target,
               HwTweak tweak)
        : hw(buildHw(target, tweak)), w(workloads::workload(name)),
          golden(workloads::runGolden(w)),
          placement(compiler::Placement::autoLayout(
              w.kernel, compiler::HwFeatures::fromAdg(hw)))
    {
        auto features = compiler::HwFeatures::fromAdg(hw);
        auto r = compiler::lowerKernel(w.kernel, placement, features, {},
                                       1);
        if (!r.ok)
            return;
        prog = r.version.program;
        sched = mapper::scheduleProgram(prog, hw,
                                        {.maxIters = 800, .seed = 3});
        ready = sched.cost.legal();
    }
};

using sim::Engine;

/** The jit fixtures block acquire() until the kernel is terminal
 *  (ready or failed): the prewarm run below then guarantees the timed
 *  iterations execute native replay, never a compile. Set before any
 *  simulation runs (the runtime reads it once, lazily). */
const bool kJitSyncArmed = [] {
    setenv("DSA_SIM_JIT_SYNC", "1", 0);
    return true;
}();

void
BM_Simulate(benchmark::State &state, const std::string &name,
            const std::string &target, HwTweak tweak, Engine engine)
{
    SimFixture f(name, target, tweak);
    if (!f.ready) {
        state.SkipWithError("schedule illegal");
        return;
    }
    sim::SimOptions opts;
    opts.engine = engine;
    if (engine == Engine::Jit) {
        // Compile eagerly, and pay for it (plus the dlopen) once in an
        // untimed prewarm run; the timed loop below is then all
        // mem-hit native replay — the steady-state cost a long run or
        // a warm-cache rerun actually sees.
        opts.jitHotCycles = 0;
        auto img = sim::MemImage::build(f.w.kernel, f.golden.initial,
                                        f.placement);
        sim::simulate(f.prog, f.sched, f.hw, img, opts);
    }
    int64_t cycles = 0;
    sim::SimResult last;
    for (auto _ : state) {
        auto img = sim::MemImage::build(f.w.kernel, f.golden.initial,
                                        f.placement);
        last = sim::simulate(f.prog, f.sched, f.hw, img, opts);
        cycles += last.cycles;
        benchmark::DoNotOptimize(last.cycles);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    if ((engine == Engine::Compiled || engine == Engine::Jit) &&
        last.cycles > 0) {
        // Engine mix of one run: how much of the wall-cycle count the
        // compiled tier (and its period-replay fast path) absorbed.
        double n = static_cast<double>(last.cycles);
        state.counters["compiled%"] =
            100.0 * static_cast<double>(last.cyclesCompiled) / n;
        state.counters["replayed%"] =
            100.0 * static_cast<double>(last.cyclesReplayed) / n;
    }
    if (engine == Engine::Jit && last.cycles > 0)
        state.counters["jit%"] =
            100.0 * static_cast<double>(last.cyclesJit) /
            static_cast<double>(last.cycles);
}

void
BM_Interpret(benchmark::State &state, const std::string &name)
{
    const auto &w = workloads::workload(name);
    auto golden = workloads::runGolden(w);
    for (auto _ : state) {
        ir::ArrayStore st = golden.initial;
        auto stats = ir::interpret(w.kernel, st);
        benchmark::DoNotOptimize(stats.arithOps);
    }
}

} // namespace

// Register a jit/compiled/sparse/dense benchmark quadruple under one
// fixture name: the four simulation tiers on identical inputs
// (bit-identical results, enforced by tests/test_sim_sparse.cc,
// tests/test_sim_compiled.cc, and tests/test_sim_jit.cc; only
// wall-clock differs).
#define SIM_PAIR(label, workload, target, tweak)                        \
    BENCHMARK_CAPTURE(BM_Simulate, label##_jit,                         \
                      std::string(workload), std::string(target),       \
                      tweak, Engine::Jit)                               \
        ->Unit(benchmark::kMillisecond);                                \
    BENCHMARK_CAPTURE(BM_Simulate, label##_compiled,                    \
                      std::string(workload), std::string(target),       \
                      tweak, Engine::Compiled)                          \
        ->Unit(benchmark::kMillisecond);                                \
    BENCHMARK_CAPTURE(BM_Simulate, label##_sparse,                      \
                      std::string(workload), std::string(target),       \
                      tweak, Engine::Sparse)                            \
        ->Unit(benchmark::kMillisecond);                                \
    BENCHMARK_CAPTURE(BM_Simulate, label##_dense,                       \
                      std::string(workload), std::string(target),       \
                      tweak, Engine::Dense)                             \
        ->Unit(benchmark::kMillisecond)

// Steady-state kernels on the DSE starting fabric: mostly-busy
// pipelines, so these guard the "no regression on dense-activity
// workloads" side of the sparse loop.
SIM_PAIR(crs, "crs", "dse", nullptr);
SIM_PAIR(histogram, "histogram", "dse", nullptr);
SIM_PAIR(classifier, "classifier", "dse", nullptr);
SIM_PAIR(mm, "mm", "dse", nullptr);
SIM_PAIR(fir, "fir", "dse", nullptr);

// Quiet-spell-heavy: slow control core stretches WaitCmd gaps between
// stream issues. The phase-script kernels (qr, chol, solver) issue
// hundreds of small sequential phases, so with a slow control core
// nearly all simulated cycles are command-pipeline idle spells.
SIM_PAIR(cmdheavy_qr, "qr", "dse", slowControlCore);
SIM_PAIR(cmdheavy_chol, "chol", "dse", slowControlCore);
SIM_PAIR(cmdheavy_solver, "solver", "dse", slowControlCore);
SIM_PAIR(cmdheavy_fft, "fft", "dse", slowControlCore);

// Data-dependent access on softbrain falls back to the throttled
// scalar path (fixed minimum pop interval per element). The gaps are
// short (scalarElementInterval cycles), so these mostly guard the
// throttled-port event source and the no-regression bound rather than
// demonstrate large skips.
SIM_PAIR(fallback_crs, "crs", "softbrain", nullptr);
SIM_PAIR(fallback_histogram, "histogram", "softbrain", nullptr);

BENCHMARK_CAPTURE(BM_Interpret, mm, std::string("mm"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Interpret, fft, std::string("fft"))
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
