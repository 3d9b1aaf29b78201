/**
 * @file
 * Compiled-vs-dense simulator equivalence: the compiled steady-state
 * engine (sim::Engine::Compiled — per-region compute plans plus the
 * period-replay fast path — and Jit, which builds on it) must produce a bit-identical SimResult and
 * a byte-identical MemImage to the dense oracle loop on every
 * workload, on randomly mutated accelerators, across steady-state /
 * non-steady transitions, and on every abort path. These tests are
 * the contract that lets the compiled engine default on; together
 * with test_sim_sparse.cc they pin the whole oracle chain
 * dense -> sparse -> compiled.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "adg/prebuilt.h"
#include "base/rng.h"
#include "compiler/compile.h"
#include "dse/explorer.h"
#include "mapper/scheduler.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace dsa {
namespace {

using ir::ArrayStore;
using ir::KernelSource;
using ir::binary;
using ir::iterVar;
using ir::load;
using ir::makeLoop;
using ir::makeStore;
using ir::param;

/** Fig. 10 target accelerator by name (mirrors bench_common.h). */
adg::Adg
buildTarget(const std::string &name)
{
    if (name == "softbrain")
        return adg::buildSoftbrain(5, 5);
    if (name == "maeri")
        return adg::buildMaeri(16);
    if (name == "triggered")
        return adg::buildTriggered(4, 4);
    if (name == "spu")
        return adg::buildSpu(5, 5);
    if (name == "revel")
        return adg::buildRevel(4, 4);
    return adg::buildDseInitial();
}

/** Assert two runs are bit-identical (results) / byte-identical
 *  (memory), with a readable label on failure. */
void
expectIdentical(const sim::SimResult &dense,
                const sim::SimResult &compiled,
                const sim::MemImage &denseMem,
                const sim::MemImage &compiledMem,
                const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(dense.ok, compiled.ok);
    EXPECT_EQ(dense.status.code(), compiled.status.code());
    EXPECT_EQ(dense.error, compiled.error);
    EXPECT_EQ(dense.cycles, compiled.cycles);
    ASSERT_EQ(dense.regions.size(), compiled.regions.size());
    for (size_t r = 0; r < dense.regions.size(); ++r) {
        SCOPED_TRACE("region " + std::to_string(r));
        EXPECT_EQ(dense.regions[r].fires, compiled.regions[r].fires);
        EXPECT_EQ(dense.regions[r].endCycle,
                  compiled.regions[r].endCycle);
        EXPECT_EQ(dense.regions[r].complete,
                  compiled.regions[r].complete);
        EXPECT_EQ(dense.regions[r].state, compiled.regions[r].state);
    }
    EXPECT_EQ(dense.peFires, compiled.peFires);
    EXPECT_EQ(dense.memBytes, compiled.memBytes);
    EXPECT_EQ(denseMem.main.bytes(), compiledMem.main.bytes());
    EXPECT_EQ(denseMem.spad.bytes(), compiledMem.spad.bytes());
}

/** Wall cycles executed by each engine must account for every
 *  simulated cycle exactly once (cycles+1 wall ticks including cycle
 *  0), and period replay is a subset of the compiled tier. */
void
expectEngineAccounting(const sim::SimResult &res, const std::string &label)
{
    SCOPED_TRACE(label);
    if (!res.ok)
        return;
    EXPECT_EQ(res.cyclesCompiled + res.cyclesGeneric + res.cyclesSkipped,
              res.cycles + 1);
    EXPECT_LE(res.cyclesReplayed, res.cyclesCompiled);
    EXPECT_GE(res.cyclesReplayed, 0);
}

/** The compiled side of each comparison: the default engine (Jit, or
 *  Compiled under DSA_SIM_ENGINE=compiled), never below Compiled. */
sim::Engine
compiledEngine(const sim::SimOptions &base)
{
    return std::max(base.engine, sim::Engine::Compiled);
}

/**
 * Compile + schedule @p w on @p hw, then simulate the same scheduled
 * program twice — dense oracle and compiled engine — on independent
 * copies of the initial memory image, and assert bit/byte identity.
 * @return false when the workload could not be lowered or scheduled
 *         onto @p hw (the caller decides how many of those it allows).
 */
bool
runBothModes(const workloads::Workload &w, const adg::Adg &hw,
             int schedIters, const std::string &label,
             sim::SimOptions base = {})
{
    auto golden = workloads::runGolden(w);
    auto features = compiler::HwFeatures::fromAdg(hw);
    auto placement = compiler::Placement::autoLayout(w.kernel, features);
    auto lowered =
        compiler::lowerKernel(w.kernel, placement, features, {}, 1);
    if (!lowered.ok)
        return false;
    const auto &prog = lowered.version.program;
    auto sched = mapper::scheduleProgram(
        prog, hw, {.maxIters = schedIters, .seed = 7});
    if (!sched.cost.legal())
        return false;

    auto denseImg =
        sim::MemImage::build(w.kernel, golden.initial, placement);
    auto compiledImg =
        sim::MemImage::build(w.kernel, golden.initial, placement);

    sim::SimOptions denseOpts = base;
    denseOpts.engine = sim::Engine::Dense;
    auto denseRes = sim::simulate(prog, sched, hw, denseImg, denseOpts);

    sim::SimOptions compiledOpts = base;
    compiledOpts.engine = compiledEngine(base);
    auto compiledRes =
        sim::simulate(prog, sched, hw, compiledImg, compiledOpts);

    expectIdentical(denseRes, compiledRes, denseImg, compiledImg, label);
    expectEngineAccounting(compiledRes, label);

    // When the run succeeded, it must also still be *correct* — the
    // compiled-engine image validates against the golden interpreter.
    if (compiledRes.ok) {
        ArrayStore out = golden.initial;
        compiledImg.extract(w.kernel, placement, out);
        EXPECT_EQ(workloads::checkOutputs(w, golden.final, out), "")
            << label;
    }
    return true;
}

// ---------------------------------------------------------------------
// Every registered workload, on its Fig. 10 target accelerator
// ---------------------------------------------------------------------

TEST(SimCompiled, BitIdenticalOnAllWorkloads)
{
    sim::SimOptions base;
    base.maxCycles = 50'000'000;
    int covered = 0;
    for (const auto &w : workloads::allWorkloads()) {
        if (runBothModes(w, buildTarget(w.fig10Target), 400,
                         w.name + " on " + w.fig10Target, base))
            ++covered;
    }
    // Scheduling budgets are intentionally small; most workloads must
    // still make it through to the simulator comparison.
    EXPECT_GE(covered, 15);
}

TEST(SimCompiled, BitIdenticalOnDseSeedFabric)
{
    // The DSE seed fabric is what Explorer::run evaluates candidates
    // against — the configuration whose simulator time the compiled
    // tier exists to cut.
    sim::SimOptions base;
    base.maxCycles = 50'000'000;
    adg::Adg hw = adg::buildDseInitial();
    int covered = 0;
    for (const char *name : {"mm", "fir", "crs", "histogram", "conv"}) {
        if (runBothModes(workloads::workload(name), hw, 400,
                         std::string(name) + " on dse-initial", base))
            ++covered;
    }
    EXPECT_GE(covered, 3);
}

TEST(SimCompiled, SteadyStateKernelActuallyReplays)
{
    // mm on softbrain spends >80% of its wall cycles in period replay;
    // if that stops being true the fast path silently degraded to the
    // per-cycle plan sweep and this test (not a benchmark run) should
    // be what catches it.
    const auto &w = workloads::workload("mm");
    adg::Adg hw = buildTarget(w.fig10Target);
    auto golden = workloads::runGolden(w);
    auto features = compiler::HwFeatures::fromAdg(hw);
    auto placement = compiler::Placement::autoLayout(w.kernel, features);
    auto lowered =
        compiler::lowerKernel(w.kernel, placement, features, {}, 1);
    ASSERT_TRUE(lowered.ok) << lowered.error;
    auto sched = mapper::scheduleProgram(lowered.version.program, hw,
                                         {.maxIters = 400, .seed = 7});
    ASSERT_TRUE(sched.cost.legal());
    auto img = sim::MemImage::build(w.kernel, golden.initial, placement);
    sim::SimOptions opts;
    opts.engine = compiledEngine(opts);
    auto res = sim::simulate(lowered.version.program, sched, hw, img,
                             opts);
    ASSERT_TRUE(res.ok) << res.error;
    expectEngineAccounting(res, "mm replay coverage");
    EXPECT_GT(res.cyclesReplayed, res.cycles * 8 / 10);
    // The same kernel also exercises the steady -> non-steady
    // transitions: every stream issue drains the pipeline (replay
    // disarms, the per-cycle engines take over) and refills it (replay
    // re-arms), so a healthy run has cycles on both sides.
    EXPECT_GT(res.cyclesGeneric + (res.cyclesCompiled - res.cyclesReplayed),
              0);
}

// ---------------------------------------------------------------------
// Randomized ADG mutations (property-test style, seeded)
// ---------------------------------------------------------------------

TEST(SimCompiled, BitIdenticalOnMutatedAdgs)
{
    dse::DseOptions dopts;
    dopts.seed = 29;
    dse::Explorer ex(workloads::suiteWorkloads("PolyBench"), dopts);
    Rng rng(20260808);
    const auto &mm = workloads::workload("mm");
    const auto &fir = workloads::workload("fir");
    int covered = 0;
    for (int design = 0; design < 6; ++design) {
        adg::Adg hw = adg::buildDseInitial();
        // A short random mutation walk from the seed design, as the
        // explorer itself would take.
        for (int step = 0; step <= design; ++step)
            ex.mutate(hw, rng);
        if (!hw.validate().empty())
            continue;  // mutation produced an unusable design
        std::string label = "mutated design " + std::to_string(design);
        if (runBothModes(mm, hw, 300, label + " (mm)"))
            ++covered;
        if (runBothModes(fir, hw, 300, label + " (fir)"))
            ++covered;
    }
    EXPECT_GE(covered, 4);
}

// ---------------------------------------------------------------------
// Steady -> non-steady fallback transitions
// ---------------------------------------------------------------------

TEST(SimCompiled, SlowControlCoreTransitionsIdentical)
{
    // A slow control core stretches the WaitCmd quiet spells between
    // stream issues: each issue arms the replay tier, drains, disarms,
    // idles (skipped cycles), and re-arms — hundreds of engine
    // transitions per run, all of which must stay bit-exact.
    sim::SimOptions base;
    base.maxCycles = 50'000'000;
    for (const char *name : {"fft", "mm"}) {
        adg::Adg hw = adg::buildDseInitial();
        hw.control().cmdLatency = 2000;
        hw.control().cmdIssueIpc = 0.25;
        EXPECT_TRUE(runBothModes(workloads::workload(name), hw, 400,
                                 std::string(name) + " slow-control",
                                 base));
    }
}

TEST(SimCompiled, ThrottledFallbackStreamsIdentical)
{
    // Data-dependent access on softbrain takes the throttled
    // scalar-fallback path; regions with fallback streams are
    // ineligible for replay, so this guards the demotion path (and
    // the no-regression bound) rather than the fast path itself.
    sim::SimOptions base;
    base.maxCycles = 50'000'000;
    adg::Adg hw = buildTarget("softbrain");
    EXPECT_TRUE(runBothModes(workloads::workload("crs"), hw, 400,
                             "crs softbrain fallback", base));
}

// ---------------------------------------------------------------------
// Abort paths: deadlock, cycle limit, wall clock
// ---------------------------------------------------------------------

/** Elementwise-add kernel lowered + scheduled on softbrain (the same
 *  setup test_robustness.cc uses for its watchdog tests). */
struct SimSetup
{
    adg::Adg hw;
    KernelSource k;
    dfg::DecoupledProgram prog;
    mapper::Schedule sched;
    ArrayStore initial;
    compiler::Placement placement;
};

SimSetup
makeSimSetup()
{
    SimSetup s;
    s.hw = adg::buildSoftbrain();
    constexpr int64_t n = 32;
    s.k.name = "vadd";
    s.k.params["n"] = n;
    s.k.arrays = {{"a", n, 8, false, false},
                  {"b", n, 8, false, false},
                  {"c", n, 8, false, false}};
    s.k.body = {makeLoop(
        0, param("n"),
        {makeStore("c", iterVar(0),
                   binary(OpCode::Add, load("a", iterVar(0)),
                          load("b", iterVar(0))))},
        true)};
    ArrayStore st(s.k);
    for (int64_t i = 0; i < n; ++i) {
        st.data("a")[i] = static_cast<Value>(i);
        st.data("b")[i] = static_cast<Value>(i * 3);
    }
    s.initial = st;
    auto features = compiler::HwFeatures::fromAdg(s.hw);
    s.placement = compiler::Placement::autoLayout(s.k, features);
    auto lowered =
        compiler::lowerKernel(s.k, s.placement, features, {}, 1);
    EXPECT_TRUE(lowered.ok) << lowered.error;
    s.prog = lowered.version.program;
    s.sched = mapper::scheduleProgram(s.prog, s.hw,
                                      {.maxIters = 400, .seed = 13});
    EXPECT_TRUE(s.sched.cost.legal());
    return s;
}

/** Run @p prog in both modes on fresh images; assert identity. */
void
runAbortCase(const SimSetup &s, const dfg::DecoupledProgram &prog,
             const sim::SimOptions &base, StatusCode expectCode,
             const std::string &label)
{
    auto denseImg = sim::MemImage::build(s.k, s.initial, s.placement);
    auto compiledImg = sim::MemImage::build(s.k, s.initial, s.placement);

    sim::SimOptions denseOpts = base;
    denseOpts.engine = sim::Engine::Dense;
    auto denseRes =
        sim::simulate(prog, s.sched, s.hw, denseImg, denseOpts);

    sim::SimOptions compiledOpts = base;
    compiledOpts.engine = compiledEngine(base);
    auto compiledRes =
        sim::simulate(prog, s.sched, s.hw, compiledImg, compiledOpts);

    EXPECT_EQ(compiledRes.status.code(), expectCode) << label;
    expectIdentical(denseRes, compiledRes, denseImg, compiledImg, label);
}

TEST(SimCompiled, DeadlockAbortIdentical)
{
    auto s = makeSimSetup();
    // Region 0 waits on itself: a true deadlock. The compiled engine
    // must notice it on exactly the same cycle, with the same
    // diagnostic.
    dfg::DecoupledProgram broken = s.prog;
    ASSERT_FALSE(broken.regions.empty());
    broken.regions[0].dependsOn.push_back(0);
    sim::SimOptions opts;
    opts.maxCycles = 50'000'000;
    opts.progressWindow = 2'000;
    runAbortCase(s, broken, opts, StatusCode::Deadlock, "deadlock");
}

TEST(SimCompiled, CycleLimitAbortIdentical)
{
    auto s = makeSimSetup();
    // A healthy program with a budget too small to finish: both modes
    // must exhaust the same limit with the same partial stats. The
    // replay tier's chunk sizing must clamp at the budget, never
    // overshoot it.
    sim::SimOptions opts;
    opts.maxCycles = 64;
    opts.progressWindow = 0;
    runAbortCase(s, s.prog, opts, StatusCode::ResourceExhausted,
                 "cycle limit");
}

TEST(SimCompiled, MidSteadyStateCycleLimitIdentical)
{
    // A budget that lands inside mm's steady state: the replay tier is
    // armed and mid-flight when the limit hits, so the abort must cut
    // a replay chunk short at exactly the right cycle.
    const auto &w = workloads::workload("mm");
    adg::Adg hw = buildTarget(w.fig10Target);
    sim::SimOptions base;
    base.maxCycles = 100'000;
    base.progressWindow = 0;
    EXPECT_TRUE(runBothModes(w, hw, 400, "mm mid-steady cycle limit",
                             base));
}

TEST(SimCompiled, ExpiredDeadlineAbortIdentical)
{
    auto s = makeSimSetup();
    dfg::DecoupledProgram broken = s.prog;
    broken.regions[0].dependsOn.push_back(0);
    sim::SimOptions opts;
    opts.maxCycles = 50'000'000;
    opts.progressWindow = 0;
    // Already expired: both modes notice at the first poll (cycle 0),
    // so even this wall-clock abort is deterministic and comparable.
    opts.deadline = Deadline::afterMs(0);
    runAbortCase(s, broken, opts, StatusCode::DeadlineExceeded,
                 "expired deadline");
}

// ---------------------------------------------------------------------
// The checkAgainst = Sparse cross-check
// ---------------------------------------------------------------------

TEST(SimCompiled, CheckCompiledModePassesOnHealthyRun)
{
    auto s = makeSimSetup();
    auto img = sim::MemImage::build(s.k, s.initial, s.placement);
    sim::SimOptions opts;
    opts.engine = sim::Engine::Compiled;
    opts.checkAgainst = sim::Engine::Sparse;
    auto res = sim::simulate(s.prog, s.sched, s.hw, img, opts);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.status.ok());
    // The returned image is the compiled run's; it must hold the
    // result.
    ArrayStore out = s.initial;
    img.extract(s.k, s.placement, out);
    for (int64_t i = 0; i < 32; ++i)
        EXPECT_EQ(out.data("c")[i], static_cast<Value>(i + i * 3));
}

TEST(SimCompiled, CheckCompiledCoversAbortPaths)
{
    auto s = makeSimSetup();
    dfg::DecoupledProgram broken = s.prog;
    broken.regions[0].dependsOn.push_back(0);
    auto img = sim::MemImage::build(s.k, s.initial, s.placement);
    sim::SimOptions opts;
    opts.progressWindow = 2'000;
    opts.engine = sim::Engine::Compiled;
    opts.checkAgainst = sim::Engine::Sparse;
    auto res = sim::simulate(broken, s.sched, s.hw, img, opts);
    // Divergence would surface as Internal; agreement keeps the real
    // abort reason.
    EXPECT_EQ(res.status.code(), StatusCode::Deadlock) << res.error;
}

} // namespace
} // namespace dsa

