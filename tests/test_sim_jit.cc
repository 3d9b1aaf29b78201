/**
 * @file
 * JIT-tier simulator tests: the runtime-code-generation engine
 * (sim::Engine::Jit — the armed period program lowered to C++, compiled
 * into a fingerprint-manifested shared object, replay chunks executed
 * natively) must produce a bit-identical SimResult and byte-identical
 * MemImage to the dense oracle on every workload, and must *degrade*
 * bit-identically — to the interpreted replay tier — on every failure
 * path: no compiler on the host, an injected compile/dlopen fault, a
 * corrupt cached object, a torn manifest. Together with
 * test_sim_sparse.cc and test_sim_compiled.cc these pin the whole
 * oracle chain dense -> sparse -> compiled -> jit.
 *
 * The on-disk object cache is exercised at three levels: unit tests of
 * probeObject and the compile claim (quarantine, checksums, a live
 * holder refusing a second claim, a killed holder blocking no
 * compile), in-process warm-cache runs (zero recompiles, the stats
 * prove it), and real two-process races — this binary defines its own
 * main() and re-execs itself with the `__jit-sim-run` argv marker so
 * two independent processes can fight over one cache directory.
 *
 * Tests that need a real compile auto-skip (not fail) when the host
 * has no working C++ compiler; the degrade-path tests still run there,
 * because graceful degradation is exactly what a compiler-less host
 * must exhibit.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "adg/prebuilt.h"
#include "base/deadline.h"
#include "base/fault.h"
#include "base/files.h"
#include "base/hashing.h"
#include "base/subprocess.h"
#include "compiler/compile.h"
#include "dse/explorer.h"
#include "dse/worker_pool.h"
#include "mapper/scheduler.h"
#include "sim/jit/jit_cache.h"
#include "sim/jit/jit_runtime.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace dsa {

int jitSimChildMain(const std::string &cacheDir);

namespace {

/** True when the host can actually invoke a C++ compiler; tests that
 *  require a successful compile skip (not fail) without one. */
bool
haveCompiler()
{
    return !sim::jit::JitRuntime::instance().compilerId().empty();
}

#define SKIP_WITHOUT_COMPILER()                                         \
    do {                                                                \
        if (!haveCompiler())                                            \
            GTEST_SKIP() << "no working C++ compiler on this host";     \
    } while (0)

/** Fresh cache directory under the test working directory. */
std::string
freshDir(const std::string &tag)
{
    std::string dir = "jitcache_" + tag + "_" +
                      std::to_string(static_cast<long>(::getpid()));
    EXPECT_TRUE(makeDirs(dir).ok());
    return dir;
}

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

void
rmTree(const std::string &dir)
{
    for (const std::string &n : listDir(dir))
        std::remove((dir + "/" + n).c_str());
    ::rmdir(dir.c_str());
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** The single published object key in @p dir ("" when none). */
std::string
publishedKey(const std::string &dir)
{
    for (const std::string &n : listDir(dir)) {
        if (n.rfind("obj-", 0) == 0 &&
            n.size() > 7 && n.substr(n.size() - 3) == ".so")
            return n.substr(4, n.size() - 7);
    }
    return "";
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

/** Jit-engine options: compile eagerly into @p cacheDir, no
 *  cross-check (the tests compare engines themselves). */
sim::SimOptions
jitOpts(const std::string &cacheDir, sim::SimOptions base = {})
{
    base.engine = sim::Engine::Jit;
    base.checkAgainst.reset();
    base.jitCacheDir = cacheDir;
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
              const std::string &cacheDir, sim::SimOptions base = {},
              sim::SimResult *jitOut = nullptr)
{
    auto s = prepare(w, hw, schedIters);
    if (!s.ready)
        return false;
    sim::MemImage denseImg, jitImg;
    auto denseRes = runOnce(s, denseOpts(base), denseImg);
    auto jitRes = runOnce(s, jitOpts(cacheDir, base), jitImg);
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
    std::string dir = freshDir("all");
    sim::SimOptions base;
    base.maxCycles = 50'000'000;
    int covered = 0;
    for (const auto &w : workloads::allWorkloads()) {
        if (runDenseVsJit(w, buildTarget(w.fig10Target), 400,
                          w.name + " on " + w.fig10Target, dir, base))
            ++covered;
    }
    EXPECT_GE(covered, 15);
    auto st = sim::jit::JitRuntime::instance().stats();
    EXPECT_GT(st.requests, 0);
    rmTree(dir);
}

TEST(SimJit, SteadyStateKernelActuallyRunsNative)
{
    // mm spends the bulk of its wall cycles in period replay; with a
    // working compiler those replay chunks must execute natively. If
    // cyclesJit collapses the tier silently degraded and this test —
    // not a benchmark regression — should be what catches it.
    SKIP_WITHOUT_COMPILER();
    std::string dir = freshDir("native");
    const auto &w = workloads::workload("mm");
    sim::SimResult jitRes;
    ASSERT_TRUE(runDenseVsJit(w, buildTarget(w.fig10Target), 400,
                              "mm native", dir, {}, &jitRes));
    ASSERT_TRUE(jitRes.ok) << jitRes.error;
    EXPECT_GT(jitRes.cyclesJit, 0);
    EXPECT_LE(jitRes.cyclesJit, jitRes.cyclesReplayed);
    EXPECT_GT(jitRes.cyclesJit, jitRes.cycles * 6 / 10);
    // Exactly one published object + manifest, no litter: the lock,
    // source, and tmp files must all be gone.
    int so = 0, meta = 0, other = 0;
    for (const std::string &n : listDir(dir)) {
        if (n.rfind("obj-", 0) == 0 && n.substr(n.size() - 3) == ".so")
            ++so;
        else if (n.rfind("obj-", 0) == 0 &&
                 n.size() > 5 && n.substr(n.size() - 5) == ".meta")
            ++meta;
        else
            ++other;
    }
    EXPECT_GE(so, 1);
    EXPECT_EQ(so, meta);
    EXPECT_EQ(other, 0);
    rmTree(dir);
}

TEST(SimJit, CheckJitCrossCheckPassesOnFig10Targets)
{
    // The in-simulator cross-check (checkAgainst = Compiled) replays
    // the run on a shadow image with the jit tier disabled and demands
    // byte identity; here it must pass across the Fig. 10 targets.
    std::string dir = freshDir("check");
    sim::SimOptions base;
    base.maxCycles = 50'000'000;
    int covered = 0;
    for (const char *name : {"mm", "fir", "crs", "histogram"}) {
        const auto &w = workloads::workload(name);
        auto s = prepare(w, buildTarget(w.fig10Target), 400);
        if (!s.ready)
            continue;
        auto opts = jitOpts(dir, base);
        opts.checkAgainst = sim::Engine::Compiled;
        sim::MemImage img;
        auto res = runOnce(s, opts, img);
        EXPECT_TRUE(res.ok) << w.name << ": " << res.error;
        ++covered;
    }
    EXPECT_GE(covered, 3);
    rmTree(dir);
}

TEST(SimJit, EveryCheckedEnginePairMatchesUncheckedRun)
{
    // checkAgainst runs the reference engine on a shadow image; with
    // every engine pair agreeing, a checked run must be ok and return
    // exactly what the unchecked engine returns on its own.
    const sim::Engine engines[] = {sim::Engine::Dense, sim::Engine::Sparse,
                                   sim::Engine::Compiled,
                                   sim::Engine::Jit};
    std::string dir = freshDir("pairs");
    for (const char *name : {"mm", "fir"}) {
        const auto &w = workloads::workload(name);
        auto s = prepare(w, buildTarget(w.fig10Target), 400);
        ASSERT_TRUE(s.ready) << name;
        for (sim::Engine e : engines) {
            auto opts = jitOpts(dir);
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
    rmTree(dir);
}

// ---------------------------------------------------------------------
// Warm cache: repeat runs must never recompile
// ---------------------------------------------------------------------

TEST(SimJit, WarmCacheZeroRecompiles)
{
    SKIP_WITHOUT_COMPILER();
    std::string dir = freshDir("warm");
    const auto &w = workloads::workload("mm");
    auto s = prepare(w, buildTarget(w.fig10Target), 400);
    ASSERT_TRUE(s.ready);

    sim::MemImage first;
    auto firstRes = runOnce(s, jitOpts(dir), first);
    ASSERT_TRUE(firstRes.ok) << firstRes.error;
    auto cold = sim::jit::JitRuntime::instance().stats();

    sim::MemImage second;
    auto secondRes = runOnce(s, jitOpts(dir), second);
    auto warm = sim::jit::JitRuntime::instance().stats() - cold;

    // Bit-identical, and the warm run compiled nothing: every acquire
    // was a memory hit on the already-loaded kernel.
    expectIdentical(firstRes, secondRes, first, second, "warm rerun");
    EXPECT_EQ(warm.compiles, 0);
    EXPECT_EQ(warm.compileFailures, 0);
    EXPECT_GT(warm.memHits, 0);
    rmTree(dir);
}

// ---------------------------------------------------------------------
// Fault injection: every native-path failure degrades bit-identically
// ---------------------------------------------------------------------

TEST(SimJit, CompileFaultDegradesBitIdentically)
{
    // Fires before the compiler is even probed, so this runs (and
    // matters) on compiler-less hosts too.
    std::string dir = freshDir("cfault");
    auto before = sim::jit::JitRuntime::instance().stats();
    fault::configure("jit.compile.fail:1");
    sim::SimResult jitRes;
    EXPECT_TRUE(runDenseVsJit(workloads::workload("mm"),
                              adg::buildDseInitial(), 400,
                              "compile fault", dir, {}, &jitRes));
    fault::reset();
    auto delta = sim::jit::JitRuntime::instance().stats() - before;
    EXPECT_GE(delta.compileFailures, 1);
    EXPECT_EQ(delta.compiles, 0);
    EXPECT_EQ(jitRes.cyclesJit, 0); // interpreted replay carried the run
    rmTree(dir);
}

TEST(SimJit, DlopenFaultDegradesBitIdentically)
{
    SKIP_WITHOUT_COMPILER();
    std::string dir = freshDir("dfault");
    auto before = sim::jit::JitRuntime::instance().stats();
    fault::configure("jit.dlopen.fail:1");
    sim::SimResult jitRes;
    EXPECT_TRUE(runDenseVsJit(workloads::workload("mm"),
                              adg::buildDseInitial(), 400,
                              "dlopen fault", dir, {}, &jitRes));
    fault::reset();
    auto delta = sim::jit::JitRuntime::instance().stats() - before;
    EXPECT_GE(delta.dlopenFailures, 1);
    EXPECT_EQ(jitRes.cyclesJit, 0);
    rmTree(dir);
}

TEST(SimJit, StructuredDiagnosticsOnFailedAcquire)
{
    // Unit-level: a failed kernel parks with a structured diagnostic
    // that diagnostic() serves (what --sim-stats and the WARN log
    // surface); the source below would compile fine — the injected
    // fault is the only failure.
    std::string dir = freshDir("diag");
    const std::string src = "extern \"C\" void dsa_jit_kernel() {}\n";
    auto &rt = sim::jit::JitRuntime::instance();
    std::string key = sim::jit::JitRuntime::makeKey(src, rt.compilerId(),
                                                    /*optionsHash=*/7);
    fault::configure("jit.compile.fail:1");
    const auto fp = [] { return std::string("fp-test"); };
    EXPECT_EQ(rt.acquire(dir, key, src, fp, true), nullptr);
    fault::reset();
    std::string diag = rt.diagnostic(dir, key);
    EXPECT_NE(diag.find("fault-injected"), std::string::npos) << diag;
    // Terminal: later acquires return the parked failure without
    // retrying the compiler (no new compile, no crash).
    auto before = rt.stats();
    EXPECT_EQ(rt.acquire(dir, key, src, fp, true), nullptr);
    EXPECT_EQ((rt.stats() - before).compiles, 0);
    rmTree(dir);
}

// ---------------------------------------------------------------------
// Cache integrity: corrupt objects / torn manifests are quarantined
// ---------------------------------------------------------------------

/** Publish one real mm kernel object into @p dir and return its key. */
std::string
publishRealObject(const std::string &dir)
{
    auto s = prepare(workloads::workload("mm"), adg::buildDseInitial(),
                     400);
    EXPECT_TRUE(s.ready);
    sim::MemImage img;
    auto res = runOnce(s, jitOpts(dir), img);
    EXPECT_TRUE(res.ok) << res.error;
    return publishedKey(dir);
}

TEST(SimJit, CorruptObjectIsQuarantinedNotServed)
{
    SKIP_WITHOUT_COMPILER();
    std::string dirA = freshDir("pubA");
    std::string key = publishRealObject(dirA);
    ASSERT_FALSE(key.empty());

    // A *different* cache dir with the same entry, object bytes
    // flipped mid-file (fresh dir => fresh in-memory entry, so the
    // runtime really does re-probe the disk).
    std::string dirB = freshDir("corrupt");
    std::string so = readAll(sim::jit::objectPath(dirA, key));
    ASSERT_FALSE(so.empty());
    so[so.size() / 2] ^= 0x40;
    writeAll(sim::jit::objectPath(dirB, key), so);
    writeAll(sim::jit::metaPath(dirB, key),
             readAll(sim::jit::metaPath(dirA, key)));

    sim::jit::JitStats st;
    std::string soPath, diag;
    auto pr = sim::jit::probeObject(dirB, key, st, &soPath, &diag);
    EXPECT_EQ(pr, sim::jit::ProbeResult::Quarantined);
    EXPECT_EQ(st.quarantined, 1);
    EXPECT_NE(diag.find("checksum"), std::string::npos) << diag;

    // Quarantined means renamed aside: the next probe is a clean Miss
    // (never re-served), and the corpse is kept for autopsy.
    sim::jit::JitStats st2;
    EXPECT_EQ(sim::jit::probeObject(dirB, key, st2, &soPath, &diag),
              sim::jit::ProbeResult::Miss);
    bool quarKept = false;
    for (const std::string &n : listDir(dirB))
        quarKept = quarKept || n.rfind("quar-", 0) == 0;
    EXPECT_TRUE(quarKept);
    rmTree(dirA);
    rmTree(dirB);
}

TEST(SimJit, TornManifestIsQuarantinedNotServed)
{
    SKIP_WITHOUT_COMPILER();
    std::string dirA = freshDir("pubT");
    std::string key = publishRealObject(dirA);
    ASSERT_FALSE(key.empty());

    std::string dirB = freshDir("torn");
    writeAll(sim::jit::objectPath(dirB, key),
             readAll(sim::jit::objectPath(dirA, key)));
    std::string meta = readAll(sim::jit::metaPath(dirA, key));
    writeAll(sim::jit::metaPath(dirB, key),
             meta.substr(0, meta.size() / 2)); // torn mid-write

    sim::jit::JitStats st;
    std::string soPath, diag;
    EXPECT_EQ(sim::jit::probeObject(dirB, key, st, &soPath, &diag),
              sim::jit::ProbeResult::Quarantined);
    EXPECT_EQ(st.quarantined, 1);
    sim::jit::JitStats st2;
    EXPECT_EQ(sim::jit::probeObject(dirB, key, st2, &soPath, &diag),
              sim::jit::ProbeResult::Miss);
    rmTree(dirA);
    rmTree(dirB);
}

TEST(SimJit, InjectedCorruptionFaultQuarantinesThenRecompiles)
{
    // The jit.object.corrupt site through the whole machine path: the
    // first probe quarantines a (bit-perfect!) cached object, the
    // runtime recompiles, and the simulation is still bit-identical.
    SKIP_WITHOUT_COMPILER();
    std::string dirA = freshDir("pubF");
    std::string key = publishRealObject(dirA);
    ASSERT_FALSE(key.empty());

    std::string dirB = freshDir("faultp");
    writeAll(sim::jit::objectPath(dirB, key),
             readAll(sim::jit::objectPath(dirA, key)));
    writeAll(sim::jit::metaPath(dirB, key),
             readAll(sim::jit::metaPath(dirA, key)));

    auto before = sim::jit::JitRuntime::instance().stats();
    fault::configure("jit.object.corrupt:1");
    sim::SimResult jitRes;
    EXPECT_TRUE(runDenseVsJit(workloads::workload("mm"),
                              adg::buildDseInitial(), 400,
                              "corrupt-fault probe", dirB, {}, &jitRes));
    fault::reset();
    auto delta = sim::jit::JitRuntime::instance().stats() - before;
    EXPECT_GE(delta.quarantined, 1);
    EXPECT_GE(delta.compiles, 1); // quarantine cost warmth, not the run
    EXPECT_GT(jitRes.cyclesJit, 0);
    rmTree(dirA);
    rmTree(dirB);
}

// ---------------------------------------------------------------------
// The compile claim: one live holder, released when its holder dies
// ---------------------------------------------------------------------

TEST(SimJit, CompileLockIsExclusive)
{
    std::string dir = freshDir("lock");
    std::string claim = sim::jit::lockPath(dir, "deadbeef");
    FileLock a, b;
    auto first = a.tryLock(claim);
    ASSERT_TRUE(first.ok() && *first) << first.status().toString();
    auto second = b.tryLock(claim);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_FALSE(*second); // live holder: lose
    a.unlock();
    EXPECT_NE(::access(claim.c_str(), F_OK), 0); // no claim left behind
    auto third = b.tryLock(claim);
    EXPECT_TRUE(third.ok() && *third);
    b.unlock();
    rmTree(dir);
}

TEST(SimJit, StaleLockFromDeadOwnerIsBroken)
{
    SKIP_WITHOUT_COMPILER();
    std::string dirA = freshDir("pubS");
    std::string key = publishRealObject(dirA);
    ASSERT_FALSE(key.empty());

    // A compiler killed while holding the claim for that very key in a
    // fresh cache dir: its lock file stays behind, its lock does not.
    std::string dirB = freshDir("stale");
    std::string claim = sim::jit::lockPath(dirB, key);
    pid_t dead = ::fork();
    ASSERT_GE(dead, 0);
    if (dead == 0) {
        FileLock held;
        if (held.tryLock(claim).ok() && held.held())
            ::raise(SIGKILL);
        ::_exit(1);
    }
    int ws = 0;
    ASSERT_EQ(::waitpid(dead, &ws, 0), dead);
    ASSERT_TRUE(WIFSIGNALED(ws)) << "child never held the claim";
    ASSERT_EQ(::access(claim.c_str(), F_OK), 0);

    // The runtime takes the claim at once and compiles: no wait for a
    // holder that will never publish.
    auto before = sim::jit::JitRuntime::instance().stats();
    sim::SimResult jitRes;
    EXPECT_TRUE(runDenseVsJit(workloads::workload("mm"),
                              adg::buildDseInitial(), 400, "stale claim",
                              dirB, {}, &jitRes));
    auto delta = sim::jit::JitRuntime::instance().stats() - before;
    EXPECT_EQ(delta.compiles, 1);
    EXPECT_EQ(delta.lockWaits, 0);
    EXPECT_GT(jitRes.cyclesJit, 0);
    EXPECT_NE(::access(claim.c_str(), F_OK), 0);
    rmTree(dirA);
    rmTree(dirB);
}

// ---------------------------------------------------------------------
// Two real processes race on one cache directory
// ---------------------------------------------------------------------

/** Spawn `self __jit-sim-run <dir>` and return its reply frame. */
std::unique_ptr<Subprocess>
spawnChild(const std::string &dir)
{
    Subprocess::Options so;
    so.argv = {Subprocess::selfExe(), "__jit-sim-run", dir};
    auto sp = Subprocess::spawn(std::move(so));
    EXPECT_TRUE(sp.ok()) << sp.status().toString();
    return sp.ok() ? std::move(sp.value()) : nullptr;
}

struct ChildReport
{
    bool ok = false;
    int64_t cycles = 0, cyclesJit = 0;
    int64_t compiles = 0, diskHits = 0, memHits = 0, quarantined = 0;
    uint64_t memHash = 0;
};

ChildReport
awaitChild(Subprocess &sp)
{
    ChildReport r;
    auto frame = sp.readFrame(Deadline::afterMs(120'000));
    EXPECT_TRUE(frame.ok()) << frame.status().toString();
    if (frame.ok()) {
        std::istringstream in(frame.value());
        in >> r.ok >> r.cycles >> r.cyclesJit >> r.compiles >>
            r.diskHits >> r.memHits >> r.quarantined >> r.memHash;
    }
    auto ex = sp.wait(Deadline::afterMs(30'000));
    EXPECT_TRUE(ex.exited && ex.code == 0) << ex.describe();
    return r;
}

TEST(SimJit, TwoProcessRaceOneWinnerOneReuse)
{
    SKIP_WITHOUT_COMPILER();
    std::string dir = freshDir("race");

    // Both children simulate the same kernel against the same cache
    // dir concurrently. Whatever the interleaving — one publishes
    // before the other probes, or they collide on the compile claim —
    // exactly one compile happens and both runs agree bit-for-bit.
    auto c1 = spawnChild(dir);
    auto c2 = spawnChild(dir);
    ASSERT_TRUE(c1 && c2);
    ChildReport r1 = awaitChild(*c1);
    ChildReport r2 = awaitChild(*c2);

    EXPECT_TRUE(r1.ok);
    EXPECT_TRUE(r2.ok);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.memHash, r2.memHash);
    EXPECT_GT(r1.cyclesJit + r2.cyclesJit, 0);
    EXPECT_EQ(r1.compiles + r2.compiles, 1);
    EXPECT_EQ(r1.quarantined + r2.quarantined, 0);

    // The directory holds exactly one complete published entry and no
    // torn manifest: a cold probe in this process validates it.
    std::string key = publishedKey(dir);
    ASSERT_FALSE(key.empty());
    sim::jit::JitStats st;
    std::string soPath, diag;
    EXPECT_EQ(sim::jit::probeObject(dir, key, st, &soPath, &diag),
              sim::jit::ProbeResult::Hit)
        << diag;
    for (const std::string &n : listDir(dir)) {
        EXPECT_EQ(n.find(".lock"), std::string::npos) << n;
        EXPECT_NE(n.rfind("obj-", 0), std::string::npos) << n;
    }

    // A third, later process finds the warm cache: zero compiles, one
    // disk hit, same bits — the cross-process warm-start guarantee.
    auto c3 = spawnChild(dir);
    ASSERT_TRUE(c3);
    ChildReport r3 = awaitChild(*c3);
    EXPECT_TRUE(r3.ok);
    EXPECT_EQ(r3.compiles, 0);
    EXPECT_GE(r3.diskHits, 1);
    EXPECT_EQ(r3.cycles, r1.cycles);
    EXPECT_EQ(r3.memHash, r1.memHash);
    rmTree(dir);
}

// ---------------------------------------------------------------------
// DSE: worker pools share the object cache; stats prove warm starts
// ---------------------------------------------------------------------

dse::DseResult
runJitDse(int workers, const std::string &cacheDir)
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
    o.sim.jitCacheDir = cacheDir;
    dse::Explorer ex(set, o);
    return ex.run(adg::buildDseInitial());
}

TEST(SimJit, DseWorkersShareCacheBitIdentically)
{
    SKIP_WITHOUT_COMPILER();
    std::string dir = freshDir("dse");
    auto serial = runJitDse(0, dir);
    ASSERT_TRUE(serial.status.ok()) << serial.status.toString();
    EXPECT_GT(serial.jitStats.requests, 0);

    // Same exploration with a worker pool against the same cache dir:
    // identical history, identical best, and — the cache being warm —
    // zero further compiles (DseResult::jitStats is a per-run delta).
    auto par = runJitDse(2, dir);
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
    EXPECT_GT(par.jitStats.memHits + par.jitStats.diskHits, 0);
    rmTree(dir);
}

} // namespace

/** `__jit-sim-run <cacheDir>`: simulate mm on the DSE seed fabric with
 *  the jit tier against @p cacheDir, frame back one line of stats, and
 *  exit 0. Run as a subprocess by the cache-race tests. */
int
jitSimChildMain(const std::string &cacheDir)
{
    const auto &w = workloads::workload("mm");
    auto golden = workloads::runGolden(w);
    adg::Adg hw = adg::buildDseInitial();
    auto features = compiler::HwFeatures::fromAdg(hw);
    auto placement = compiler::Placement::autoLayout(w.kernel, features);
    auto lowered =
        compiler::lowerKernel(w.kernel, placement, features, {}, 1);
    if (!lowered.ok)
        return 2;
    auto sched = mapper::scheduleProgram(lowered.version.program, hw,
                                         {.maxIters = 400, .seed = 7});
    if (!sched.cost.legal())
        return 2;
    auto img = sim::MemImage::build(w.kernel, golden.initial, placement);

    sim::SimOptions opts = jitOpts(cacheDir);
    auto res =
        sim::simulate(lowered.version.program, sched, hw, img, opts);

    auto st = sim::jit::JitRuntime::instance().stats();
    uint64_t h = xxhash64(img.main.bytes().data(),
                          img.main.bytes().size(), /*seed=*/0);
    h = hashCombine(h, xxhash64(img.spad.bytes().data(),
                                img.spad.bytes().size(), /*seed=*/0));
    std::ostringstream out;
    out << (res.ok ? 1 : 0) << ' ' << res.cycles << ' ' << res.cyclesJit
        << ' ' << st.compiles << ' ' << st.diskHits << ' ' << st.memHits
        << ' ' << st.quarantined << ' ' << h;
    return writeFrameFd(1, out.str()).ok() ? 0 : 3;
}

} // namespace dsa

int
main(int argc, char **argv)
{
    // Deterministic tests: every acquire blocks until the kernel is
    // terminal (compiled+loaded or parked Failed), so "did the native
    // path run" is a property of the options, never of timing. Must be
    // set before the first simulation — the runtime reads it once.
    ::setenv("DSA_SIM_JIT_SYNC", "1", 1);
    if (argc >= 3 && std::string(argv[1]) == "__jit-sim-run")
        return dsa::jitSimChildMain(argv[2]);
    // The DSE worker-pool suite re-execs this binary as its worker.
    if (argc >= 2 && std::string(argv[1]) == "__dse-worker")
        return dsa::dse::workerMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
