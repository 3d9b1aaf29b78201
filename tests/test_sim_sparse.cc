/**
 * @file
 * Sparse-vs-dense simulator equivalence: the event-driven fast path
 * (sim::Engine::Sparse and the engines built on it) must produce a bit-identical SimResult and a
 * byte-identical MemImage to the dense oracle loop on every workload,
 * on randomly mutated accelerators, and on every abort path (cycle
 * limit, deadlock watchdog, wall-clock deadline). These tests are the
 * contract that lets the fast path default on.
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
expectIdentical(const sim::SimResult &dense, const sim::SimResult &sparse,
                const sim::MemImage &denseMem,
                const sim::MemImage &sparseMem, const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(dense.ok, sparse.ok);
    EXPECT_EQ(dense.status.code(), sparse.status.code());
    EXPECT_EQ(dense.error, sparse.error);
    EXPECT_EQ(dense.cycles, sparse.cycles);
    ASSERT_EQ(dense.regions.size(), sparse.regions.size());
    for (size_t r = 0; r < dense.regions.size(); ++r) {
        SCOPED_TRACE("region " + std::to_string(r));
        EXPECT_EQ(dense.regions[r].fires, sparse.regions[r].fires);
        EXPECT_EQ(dense.regions[r].endCycle, sparse.regions[r].endCycle);
        EXPECT_EQ(dense.regions[r].complete, sparse.regions[r].complete);
        EXPECT_EQ(dense.regions[r].state, sparse.regions[r].state);
    }
    EXPECT_EQ(dense.peFires, sparse.peFires);
    EXPECT_EQ(dense.memBytes, sparse.memBytes);
    EXPECT_EQ(denseMem.main.bytes(), sparseMem.main.bytes());
    EXPECT_EQ(denseMem.spad.bytes(), sparseMem.spad.bytes());
}

/** The event-driven side of each comparison: the default engine, or
 *  Sparse when DSA_SIM_ENGINE pins the default to Dense. */
sim::Engine
fastEngine(const sim::SimOptions &base)
{
    return std::max(base.engine, sim::Engine::Sparse);
}

/**
 * Compile + schedule @p w on @p hw, then simulate the same scheduled
 * program twice — dense oracle and sparse fast path — on independent
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
    auto sparseImg =
        sim::MemImage::build(w.kernel, golden.initial, placement);

    sim::SimOptions denseOpts = base;
    denseOpts.engine = sim::Engine::Dense;
    auto denseRes = sim::simulate(prog, sched, hw, denseImg, denseOpts);

    sim::SimOptions sparseOpts = base;
    sparseOpts.engine = fastEngine(base);
    auto sparseRes =
        sim::simulate(prog, sched, hw, sparseImg, sparseOpts);

    expectIdentical(denseRes, sparseRes, denseImg, sparseImg, label);

    // When the run succeeded, it must also still be *correct* — the
    // sparse image validates against the golden interpreter.
    if (sparseRes.ok) {
        ArrayStore out = golden.initial;
        sparseImg.extract(w.kernel, placement, out);
        EXPECT_EQ(workloads::checkOutputs(w, golden.final, out), "")
            << label;
    }
    return true;
}

// ---------------------------------------------------------------------
// Every registered workload, on its Fig. 10 target accelerator
// ---------------------------------------------------------------------

TEST(SimSparse, BitIdenticalOnAllWorkloads)
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

TEST(SimSparse, BitIdenticalOnDseSeedFabric)
{
    // The DSE seed fabric is what Explorer::run evaluates candidates
    // against — the configuration whose simulator time this fast path
    // exists to cut.
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

// ---------------------------------------------------------------------
// Randomized ADG mutations (property-test style, seeded)
// ---------------------------------------------------------------------

TEST(SimSparse, BitIdenticalOnMutatedAdgs)
{
    dse::DseOptions dopts;
    dopts.seed = 17;
    dse::Explorer ex(workloads::suiteWorkloads("PolyBench"), dopts);
    Rng rng(20260806);
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
    auto sparseImg = sim::MemImage::build(s.k, s.initial, s.placement);

    sim::SimOptions denseOpts = base;
    denseOpts.engine = sim::Engine::Dense;
    auto denseRes =
        sim::simulate(prog, s.sched, s.hw, denseImg, denseOpts);

    sim::SimOptions sparseOpts = base;
    sparseOpts.engine = fastEngine(base);
    auto sparseRes =
        sim::simulate(prog, s.sched, s.hw, sparseImg, sparseOpts);

    EXPECT_EQ(sparseRes.status.code(), expectCode) << label;
    expectIdentical(denseRes, sparseRes, denseImg, sparseImg, label);
}

TEST(SimSparse, DeadlockAbortIdentical)
{
    auto s = makeSimSetup();
    // Region 0 waits on itself: a true deadlock. The sparse loop must
    // notice it on exactly the same cycle, with the same diagnostic.
    dfg::DecoupledProgram broken = s.prog;
    ASSERT_FALSE(broken.regions.empty());
    broken.regions[0].dependsOn.push_back(0);
    sim::SimOptions opts;
    opts.maxCycles = 50'000'000;
    opts.progressWindow = 2'000;
    runAbortCase(s, broken, opts, StatusCode::Deadlock, "deadlock");
}

TEST(SimSparse, DeadlockAbortIdenticalWithOddWindow)
{
    // A window that is not a multiple of any internal cadence, to
    // catch off-by-one errors in the jump clamping.
    auto s = makeSimSetup();
    dfg::DecoupledProgram broken = s.prog;
    broken.regions[0].dependsOn.push_back(0);
    sim::SimOptions opts;
    opts.maxCycles = 50'000'000;
    opts.progressWindow = 1'237;
    runAbortCase(s, broken, opts, StatusCode::Deadlock, "odd window");
}

TEST(SimSparse, CycleLimitAbortIdentical)
{
    auto s = makeSimSetup();
    // A healthy program with a budget too small to finish: both modes
    // must exhaust the same limit with the same partial stats.
    sim::SimOptions opts;
    opts.maxCycles = 64;
    opts.progressWindow = 0;
    runAbortCase(s, s.prog, opts, StatusCode::ResourceExhausted,
                 "cycle limit");
}

TEST(SimSparse, DeadlockedCycleLimitAbortIdentical)
{
    auto s = makeSimSetup();
    // Watchdog off + deadlocked program: the dense loop burns every
    // cycle to the limit; the sparse loop must jump there and report
    // the same exhaustion at the same cycle.
    dfg::DecoupledProgram broken = s.prog;
    broken.regions[0].dependsOn.push_back(0);
    sim::SimOptions opts;
    opts.maxCycles = 100'000;
    opts.progressWindow = 0;
    runAbortCase(s, broken, opts, StatusCode::ResourceExhausted,
                 "deadlocked cycle limit");
}

TEST(SimSparse, ExpiredDeadlineAbortIdentical)
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
// The checkAgainst = Dense cross-check
// ---------------------------------------------------------------------

TEST(SimSparse, CheckSparseModePassesOnHealthyRun)
{
    auto s = makeSimSetup();
    auto img = sim::MemImage::build(s.k, s.initial, s.placement);
    sim::SimOptions opts;
    opts.engine = sim::Engine::Sparse;
    opts.checkAgainst = sim::Engine::Dense;
    auto res = sim::simulate(s.prog, s.sched, s.hw, img, opts);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.status.ok());
    // The returned image is the sparse run's; it must hold the result.
    ArrayStore out = s.initial;
    img.extract(s.k, s.placement, out);
    for (int64_t i = 0; i < 32; ++i)
        EXPECT_EQ(out.data("c")[i], static_cast<Value>(i + i * 3));
}

TEST(SimSparse, CheckSparseCoversAbortPaths)
{
    auto s = makeSimSetup();
    dfg::DecoupledProgram broken = s.prog;
    broken.regions[0].dependsOn.push_back(0);
    auto img = sim::MemImage::build(s.k, s.initial, s.placement);
    sim::SimOptions opts;
    opts.progressWindow = 2'000;
    opts.engine = sim::Engine::Sparse;
    opts.checkAgainst = sim::Engine::Dense;
    auto res = sim::simulate(broken, s.sched, s.hw, img, opts);
    // Divergence would surface as Internal; agreement keeps the real
    // abort reason.
    EXPECT_EQ(res.status.code(), StatusCode::Deadlock) << res.error;
}

} // namespace
} // namespace dsa
