/**
 * @file
 * JIT-tier simulator tests: the runtime-code-generation engine
 * (sim::Engine::Jit — the armed period program lowered to C++, compiled
 * in process into a shared object, replay chunks executed natively)
 * must produce a bit-identical SimResult and byte-identical MemImage to
 * the dense oracle on every workload, and must *degrade*
 * bit-identically — to the interpreted replay tier — on every failure
 * path: no compiler on the host, an injected compile or dlopen fault.
 * Together with test_sim_sparse.cc and test_sim_compiled.cc these pin
 * the whole oracle chain dense -> sparse -> compiled -> jit.
 *
 * The kernel registry is process-wide, so a case that needs a compile
 * to happen inside it (the native-run and TMPDIR check, and the two
 * fault-injection cases) runs in a process of its own: each has its
 * own ctest entry, and the main entry filters them out. This binary
 * defines its own main() because the DSE worker-pool case re-execs it
 * as a worker.
 *
 * Tests that need a real compile auto-skip (not fail) when the host
 * has no working C++ compiler; the degrade-path tests still run there,
 * because graceful degradation is exactly what a compiler-less host
 * must exhibit.
 */

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "adg/prebuilt.h"
#include "base/fault.h"
#include "compiler/compile.h"
#include "dse/explorer.h"
#include "dse/worker_pool.h"
#include "mapper/scheduler.h"
#include "sim/jit/jit_runtime.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace dsa {
namespace {

/** True when the host can actually invoke a C++ compiler; tests that
 *  require a successful compile skip (not fail) without one. */
bool
haveCompiler()
{
    return sim::jit::JitRuntime::instance().hasCompiler();
}

#define SKIP_WITHOUT_COMPILER()                                         \
    do {                                                                \
        if (!haveCompiler())                                            \
            GTEST_SKIP() << "no working C++ compiler on this host";     \
    } while (0)

std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> out;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (dirent *e = ::readdir(d)) {
            std::string n = e->d_name;
            if (n != "." && n != "..")
                out.push_back(n);
        }
        ::closedir(d);
    }
    return out;
}

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
 *  (memory). Engine-mix counters are deliberately excluded: *which*
 *  tier executed a cycle is the one thing allowed to differ. */
void
expectIdentical(const sim::SimResult &dense, const sim::SimResult &jit,
                const sim::MemImage &denseMem,
                const sim::MemImage &jitMem, const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(dense.ok, jit.ok);
    EXPECT_EQ(dense.status.code(), jit.status.code());
    EXPECT_EQ(dense.error, jit.error);
    EXPECT_EQ(dense.cycles, jit.cycles);
    ASSERT_EQ(dense.regions.size(), jit.regions.size());
    for (size_t r = 0; r < dense.regions.size(); ++r) {
        SCOPED_TRACE("region " + std::to_string(r));
        EXPECT_EQ(dense.regions[r].fires, jit.regions[r].fires);
        EXPECT_EQ(dense.regions[r].endCycle, jit.regions[r].endCycle);
        EXPECT_EQ(dense.regions[r].complete, jit.regions[r].complete);
        EXPECT_EQ(dense.regions[r].state, jit.regions[r].state);
    }
    EXPECT_EQ(dense.peFires, jit.peFires);
    EXPECT_EQ(dense.memBytes, jit.memBytes);
    EXPECT_EQ(denseMem.main.bytes(), jitMem.main.bytes());
    EXPECT_EQ(denseMem.spad.bytes(), jitMem.spad.bytes());
}

/** A compiled+scheduled workload, ready to simulate repeatedly. */
struct SimSetup
{
    const workloads::Workload *w = nullptr;
    workloads::GoldenRun golden;
    compiler::Placement placement;
    dfg::DecoupledProgram prog;
    mapper::Schedule sched;
    adg::Adg hw;
    bool ready = false;
};

SimSetup
prepare(const workloads::Workload &w, adg::Adg hw, int schedIters)
{
    SimSetup s;
    s.w = &w;
    s.hw = std::move(hw);
    s.golden = workloads::runGolden(w);
    auto features = compiler::HwFeatures::fromAdg(s.hw);
    s.placement = compiler::Placement::autoLayout(w.kernel, features);
    auto lowered =
        compiler::lowerKernel(w.kernel, s.placement, features, {}, 1);
    if (!lowered.ok)
        return s;
    s.prog = lowered.version.program;
    s.sched = mapper::scheduleProgram(s.prog, s.hw,
                                      {.maxIters = schedIters, .seed = 7});
    s.ready = s.sched.cost.legal();
    return s;
}

/** One simulation of @p s with @p opts on a fresh memory image. */
sim::SimResult
runOnce(const SimSetup &s, const sim::SimOptions &opts,
        sim::MemImage &img)
{
    img = sim::MemImage::build(s.w->kernel, s.golden.initial,
                               s.placement);
    return sim::simulate(s.prog, s.sched, s.hw, img, opts);
}

/** Jit-engine options: compile eagerly, no cross-check (the tests
 *  compare engines themselves). */
sim::SimOptions
jitOpts(sim::SimOptions base = {})
{
    base.engine = sim::Engine::Jit;
    base.checkAgainst.reset();
    base.jitHotCycles = 0; // compile immediately, not at a threshold
    return base;
}

sim::SimOptions
denseOpts(sim::SimOptions base = {})
{
    base.engine = sim::Engine::Dense;
    base.checkAgainst.reset();
    return base;
}

/**
 * Simulate @p w on @p hw dense and jit on independent images and
 * assert bit/byte identity (plus golden-output correctness).
 * @return false when the workload could not be lowered or scheduled.
 */
bool
runDenseVsJit(const workloads::Workload &w, const adg::Adg &hw,
              int schedIters, const std::string &label,
              sim::SimOptions base = {}, sim::SimResult *jitOut = nullptr)
{
    auto s = prepare(w, hw, schedIters);
    if (!s.ready)
        return false;
    sim::MemImage denseImg, jitImg;
    auto denseRes = runOnce(s, denseOpts(base), denseImg);
    auto jitRes = runOnce(s, jitOpts(base), jitImg);
    expectIdentical(denseRes, jitRes, denseImg, jitImg, label);
    if (jitRes.ok) {
        ir::ArrayStore out = s.golden.initial;
        jitImg.extract(w.kernel, s.placement, out);
        EXPECT_EQ(workloads::checkOutputs(w, s.golden.final, out), "")
            << label;
    }
    if (jitOut)
        *jitOut = jitRes;
    return true;
}

// ---------------------------------------------------------------------
// Equivalence: every workload on its Fig. 10 target
// ---------------------------------------------------------------------

TEST(SimJit, BitIdenticalOnAllWorkloads)
{
    // Runs with or without a host compiler: without one, every run
    // degrades to interpreted replay and must *still* be identical.
    sim::SimOptions base;
    base.maxCycles = 50'000'000;
    int covered = 0;
    for (const auto &w : workloads::allWorkloads()) {
        if (runDenseVsJit(w, buildTarget(w.fig10Target), 400,
                          w.name + " on " + w.fig10Target, base))
            ++covered;
    }
    EXPECT_GE(covered, 15);
    auto st = sim::jit::JitRuntime::instance().stats();
    EXPECT_GT(st.requests, 0);
}

TEST(SimJit, SteadyStateKernelActuallyRunsNative)
{
    // mm spends the bulk of its wall cycles in period replay; with a
    // working compiler those replay chunks must execute natively. If
    // cyclesJit collapses the tier silently degraded and this test —
    // not a benchmark regression — should be what catches it. Runs in
    // a process of its own, so the kernel is compiled here.
    SKIP_WITHOUT_COMPILER();
    std::string tmp = ::testing::TempDir() + "sim_jit_tmpdir_XXXXXX";
    ASSERT_NE(::mkdtemp(tmp.data()), nullptr);
    const char *oldTmp = std::getenv("TMPDIR");
    const std::string restore = oldTmp ? oldTmp : "";
    ::setenv("TMPDIR", tmp.c_str(), 1);

    const auto &w = workloads::workload("mm");
    auto before = sim::jit::JitRuntime::instance().stats();
    sim::SimResult jitRes;
    bool ran = runDenseVsJit(w, buildTarget(w.fig10Target), 400,
                             "mm native", {}, &jitRes);
    auto delta = sim::jit::JitRuntime::instance().stats() - before;
    if (oldTmp)
        ::setenv("TMPDIR", restore.c_str(), 1);
    else
        ::unsetenv("TMPDIR");

    ASSERT_TRUE(ran);
    ASSERT_TRUE(jitRes.ok) << jitRes.error;
    EXPECT_GT(jitRes.cyclesJit, 0);
    EXPECT_LE(jitRes.cyclesJit, jitRes.cyclesReplayed);
    EXPECT_GT(jitRes.cyclesJit, jitRes.cycles * 6 / 10);
    // The compile worked in TMPDIR and left nothing behind: the private
    // directory with its source and object is deleted once loaded.
    EXPECT_GE(delta.compiles, 1);
    for (const std::string &n : listDir(tmp))
        ADD_FAILURE() << "compile left " << n << " in TMPDIR";
    EXPECT_EQ(::rmdir(tmp.c_str()), 0);
}

TEST(SimJit, CheckJitCrossCheckPassesOnFig10Targets)
{
    // The in-simulator cross-check (checkAgainst = Compiled) replays
    // the run on a shadow image with the jit tier disabled and demands
    // byte identity; here it must pass across the Fig. 10 targets.
    sim::SimOptions base;
    base.maxCycles = 50'000'000;
    int covered = 0;
    for (const char *name : {"mm", "fir", "crs", "histogram"}) {
        const auto &w = workloads::workload(name);
        auto s = prepare(w, buildTarget(w.fig10Target), 400);
        if (!s.ready)
            continue;
        auto opts = jitOpts(base);
        opts.checkAgainst = sim::Engine::Compiled;
        sim::MemImage img;
        auto res = runOnce(s, opts, img);
        EXPECT_TRUE(res.ok) << w.name << ": " << res.error;
        ++covered;
    }
    EXPECT_GE(covered, 3);
}

TEST(SimJit, EveryCheckedEnginePairMatchesUncheckedRun)
{
    // checkAgainst runs the reference engine on a shadow image; with
    // every engine pair agreeing, a checked run must be ok and return
    // exactly what the unchecked engine returns on its own.
    const sim::Engine engines[] = {sim::Engine::Dense, sim::Engine::Sparse,
                                   sim::Engine::Compiled,
                                   sim::Engine::Jit};
    for (const char *name : {"mm", "fir"}) {
        const auto &w = workloads::workload(name);
        auto s = prepare(w, buildTarget(w.fig10Target), 400);
        ASSERT_TRUE(s.ready) << name;
        for (sim::Engine e : engines) {
            auto opts = jitOpts();
            opts.engine = e;
            sim::MemImage plainImg;
            auto plain = runOnce(s, opts, plainImg);
            ASSERT_TRUE(plain.ok) << name << ": " << plain.error;
            for (sim::Engine ref : engines) {
                std::string label = std::string(name) + " " +
                                    sim::engineName(e) + " checked against " +
                                    sim::engineName(ref);
                opts.checkAgainst = ref;
                sim::MemImage checkedImg;
                auto checked = runOnce(s, opts, checkedImg);
                EXPECT_TRUE(checked.ok) << label << ": " << checked.error;
                expectIdentical(plain, checked, plainImg, checkedImg, label);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Warm registry: repeat runs in one process must never recompile
// ---------------------------------------------------------------------

TEST(SimJit, WarmCacheZeroRecompiles)
{
    SKIP_WITHOUT_COMPILER();
    const auto &w = workloads::workload("mm");
    auto s = prepare(w, buildTarget(w.fig10Target), 400);
    ASSERT_TRUE(s.ready);

    sim::MemImage first;
    auto firstRes = runOnce(s, jitOpts(), first);
    ASSERT_TRUE(firstRes.ok) << firstRes.error;
    auto cold = sim::jit::JitRuntime::instance().stats();

    sim::MemImage second;
    auto secondRes = runOnce(s, jitOpts(), second);
    auto warm = sim::jit::JitRuntime::instance().stats() - cold;

    // Bit-identical, and the warm run compiled nothing: every acquire
    // was a memory hit on the already-loaded kernel.
    expectIdentical(firstRes, secondRes, first, second, "warm rerun");
    EXPECT_EQ(warm.compiles, 0);
    EXPECT_EQ(warm.compileFailures, 0);
    EXPECT_GT(warm.memHits, 0);
}

// ---------------------------------------------------------------------
// Fault injection: every native-path failure degrades bit-identically
// ---------------------------------------------------------------------

TEST(SimJit, CompileFaultDegradesBitIdentically)
{
    // Fires before the compiler is even probed, so this runs (and
    // matters) on compiler-less hosts too. Runs in a process of its
    // own: a kernel compiled earlier would never reach the fault site.
    auto before = sim::jit::JitRuntime::instance().stats();
    fault::configure("jit.compile.fail:1");
    sim::SimResult jitRes;
    EXPECT_TRUE(runDenseVsJit(workloads::workload("mm"),
                              adg::buildDseInitial(), 400,
                              "compile fault", {}, &jitRes));
    fault::reset();
    auto delta = sim::jit::JitRuntime::instance().stats() - before;
    EXPECT_GE(delta.compileFailures, 1);
    EXPECT_EQ(delta.compiles, 0);
    EXPECT_EQ(jitRes.cyclesJit, 0); // interpreted replay carried the run
}

TEST(SimJit, DlopenFaultDegradesBitIdentically)
{
    // Runs in a process of its own, like the compile fault above.
    SKIP_WITHOUT_COMPILER();
    auto before = sim::jit::JitRuntime::instance().stats();
    fault::configure("jit.dlopen.fail:1");
    sim::SimResult jitRes;
    EXPECT_TRUE(runDenseVsJit(workloads::workload("mm"),
                              adg::buildDseInitial(), 400,
                              "dlopen fault", {}, &jitRes));
    fault::reset();
    auto delta = sim::jit::JitRuntime::instance().stats() - before;
    EXPECT_GE(delta.dlopenFailures, 1);
    EXPECT_EQ(jitRes.cyclesJit, 0);
}

TEST(SimJit, StructuredDiagnosticsOnFailedAcquire)
{
    // Unit-level: a failed kernel parks with a structured diagnostic
    // that diagnostic() serves (what --sim-stats and the WARN log
    // surface); the source below would compile fine — the injected
    // fault is the only failure.
    const std::string src = "extern \"C\" void dsa_jit_kernel() {}\n";
    auto &rt = sim::jit::JitRuntime::instance();
    const uint64_t key = sim::jit::JitRuntime::keyOf(src);
    fault::configure("jit.compile.fail:1");
    EXPECT_EQ(rt.acquire(key, src, true), nullptr);
    fault::reset();
    std::string diag = rt.diagnostic(key);
    EXPECT_NE(diag.find("fault-injected"), std::string::npos) << diag;
    // Terminal: later acquires return the parked failure without
    // retrying the compiler (no new compile, no crash).
    auto before = rt.stats();
    EXPECT_EQ(rt.acquire(key, src, true), nullptr);
    EXPECT_EQ((rt.stats() - before).compiles, 0);
}

// ---------------------------------------------------------------------
// DSE: serial and worker-pool runs agree; validation runs natively
// ---------------------------------------------------------------------

dse::DseResult
runJitDse(int workers)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    dse::DseOptions o;
    o.maxIters = 12;
    o.noImproveExit = 12;
    o.infeasibleExit = 40;
    o.schedIters = 20;
    o.initSchedIters = 300;
    o.unrollFactors = {1, 4};
    o.seed = 3;
    o.workers = workers;
    o.simValidateBest = true;
    dse::Explorer ex(set, o);
    return ex.run(adg::buildDseInitial());
}

TEST(SimJit, DseWorkersMatchSerialAndValidationRunsNative)
{
    auto serial = runJitDse(0);
    ASSERT_TRUE(serial.status.ok()) << serial.status.toString();
    EXPECT_GT(serial.jitStats.requests, 0);
    // --validate-sim's jit runs compile eagerly, so with a compiler
    // they execute native kernels, not interpreted replay.
    if (haveCompiler()) {
        EXPECT_GT(serial.jitStats.memHits, 0);
    }

    // Same exploration with a worker pool: identical history, identical
    // best, and — its kernels already registered in this process — its
    // validating run served natively with zero further compiles
    // (DseResult::jitStats is a per-run delta).
    auto par = runJitDse(2);
    ASSERT_TRUE(par.status.ok()) << par.status.toString();
    ASSERT_EQ(serial.history.size(), par.history.size());
    for (size_t i = 0; i < serial.history.size(); ++i) {
        EXPECT_EQ(serial.history[i].iter, par.history[i].iter);
        EXPECT_EQ(serial.history[i].accepted, par.history[i].accepted);
        EXPECT_DOUBLE_EQ(serial.history[i].objective,
                         par.history[i].objective);
    }
    EXPECT_EQ(serial.best.toText(), par.best.toText());
    EXPECT_DOUBLE_EQ(serial.bestObjective, par.bestObjective);
    EXPECT_EQ(par.jitStats.compiles, 0);
    if (haveCompiler()) {
        EXPECT_GT(par.jitStats.memHits, 0);
    }
}

} // namespace
} // namespace dsa

int
main(int argc, char **argv)
{
    // The DSE worker-pool case re-execs this binary as its worker.
    if (argc >= 2 && std::string(argv[1]) == "__dse-worker")
        return dsa::dse::workerMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
