/**
 * @file
 * Fault-injection tests for the crash-safety layer: structured Status
 * propagation out of worker threads, cooperative watchdogs in the
 * scheduler and simulator, simulator deadlock diagnostics, DSE
 * checkpoint/resume (including bit-identical equivalence with an
 * uninterrupted run and clean rejection of corrupt checkpoint files),
 * the deterministic fault-injection registry, the shared on-disk
 * eval-cache store (torn/corrupt segments, compaction leases), and
 * crash-isolated multi-process DSE (worker SIGKILL, stalled pipes,
 * coordinator kill -9 + resume — all bit-identical to --workers 0).
 *
 * This binary defines its own main(): the multi-process suites re-exec
 * it with the `__dse-worker` / `__dse-halt-run` argv markers.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
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
#include "base/json.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/subprocess.h"
#include "compiler/compile.h"
#include "dse/cache_store.h"
#include "dse/checkpoint.h"
#include "dse/explorer.h"
#include "dse/worker_pool.h"
#include "mapper/scheduler.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace dsa {
namespace {

using namespace dsa::ir;

/** Unique-ish temp file in the test working directory. */
std::string
tmpPath(const std::string &tag)
{
    return "robustness_" + tag + ".ckpt.json";
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------------
// Status / Result plumbing
// ---------------------------------------------------------------------

TEST(Status, CodesAndToString)
{
    Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.toString(), "ok");
    Status dl = Status::deadlock("stuck");
    EXPECT_FALSE(dl.ok());
    EXPECT_EQ(dl.code(), StatusCode::Deadlock);
    EXPECT_NE(dl.toString().find("stuck"), std::string::npos);
}

TEST(Status, FromCurrentExceptionPreservesPayload)
{
    try {
        throw StatusException(Status::dataLoss("truncated"));
    } catch (...) {
        Status s = Status::fromCurrentException();
        EXPECT_EQ(s.code(), StatusCode::DataLoss);
        EXPECT_EQ(s.message(), "truncated");
    }
    try {
        throw std::runtime_error("boom");
    } catch (...) {
        Status s = Status::fromCurrentException();
        EXPECT_EQ(s.code(), StatusCode::Internal);
        EXPECT_NE(s.message().find("boom"), std::string::npos);
    }
}

TEST(Status, SuggestNameProposesNearMiss)
{
    std::string s = suggestName("sofbrain", {"softbrain", "maeri", "spu"});
    EXPECT_NE(s.find("softbrain"), std::string::npos);
    EXPECT_NE(s.find("valid:"), std::string::npos);
}

// ---------------------------------------------------------------------
// JSON exactness (the checkpoint substrate)
// ---------------------------------------------------------------------

TEST(Json, DoublesRoundTripBitExact)
{
    double vals[] = {0.1, 1.0 / 3.0, 6.763421159278947e-2, 1e300,
                     -2.2250738585072014e-308};
    for (double v : vals) {
        json::Value doc = json::Value::object();
        doc.set("x", json::Value::number(v));
        auto parsed = json::parse(doc.dump());
        ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
        double back = parsed.value().find("x")->asDouble();
        EXPECT_EQ(v, back);  // exact, not approximate
    }
}

TEST(Json, ParseErrorsAreStructured)
{
    for (const char *bad :
         {"", "{", "{\"a\":}", "[1,2", "{\"a\":1 \"b\":2}", "nul"}) {
        auto parsed = json::parse(bad);
        EXPECT_FALSE(parsed.ok()) << bad;
        EXPECT_EQ(parsed.status().code(), StatusCode::DataLoss);
        EXPECT_NE(parsed.status().message().find("offset"),
                  std::string::npos);
    }
}

TEST(Rng, StateRoundTripContinuesStream)
{
    Rng a(42);
    (void)a.uniformInt(0, 1000);
    (void)a.uniformReal();
    std::string saved = a.saveState();
    Rng b(7);
    ASSERT_TRUE(b.loadState(saved));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.uniformInt(0, 1 << 30), b.uniformInt(0, 1 << 30));
    EXPECT_FALSE(b.loadState("not an engine state"));
}

// ---------------------------------------------------------------------
// Scheduler watchdog
// ---------------------------------------------------------------------

struct LoweredWorkload
{
    adg::Adg hw;
    dfg::DecoupledProgram prog;
};

LoweredWorkload
lowerMm()
{
    LoweredWorkload lw;
    lw.hw = adg::buildSoftbrain();
    auto features = compiler::HwFeatures::fromAdg(lw.hw);
    const auto &w = workloads::workload("mm");
    auto placement = compiler::Placement::autoLayout(w.kernel, features);
    auto lowered =
        compiler::lowerKernel(w.kernel, placement, features, {}, 1);
    EXPECT_TRUE(lowered.ok) << lowered.error;
    lw.prog = lowered.version.program;
    return lw;
}

TEST(SchedulerDeadline, ExpiredDeadlineStopsRunWithStatus)
{
    auto lw = lowerMm();
    mapper::SchedOptions so;
    so.maxIters = 100000;
    so.deadline = Deadline::afterMs(0);  // already expired
    mapper::SpatialScheduler sched(lw.prog, lw.hw, so);
    (void)sched.run();
    EXPECT_EQ(sched.lastRunStatus().code(), StatusCode::DeadlineExceeded);
    EXPECT_NE(sched.lastRunStatus().message().find("timed out"),
              std::string::npos);
}

TEST(SchedulerDeadline, UnlimitedDeadlineLeavesResultsUnchanged)
{
    auto lw = lowerMm();
    mapper::SchedOptions so;
    so.maxIters = 300;
    so.seed = 11;
    mapper::SpatialScheduler a(lw.prog, lw.hw, so);
    auto sa = a.run();
    EXPECT_TRUE(a.lastRunStatus().ok());
    so.deadline = Deadline::afterMs(10LL * 60 * 1000);  // far future
    mapper::SpatialScheduler b(lw.prog, lw.hw, so);
    auto sb = b.run();
    // A non-binding watchdog must not perturb the search trace.
    EXPECT_EQ(sa.cost.scalar(), sb.cost.scalar());
}

// ---------------------------------------------------------------------
// Simulator deadlock detection + partial stats
// ---------------------------------------------------------------------

/** Elementwise-add kernel lowered + scheduled on softbrain. */
struct SimSetup
{
    adg::Adg hw;
    KernelSource k;
    dfg::DecoupledProgram prog;
    mapper::Schedule sched;
    std::unique_ptr<sim::MemImage> img;
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
    auto features = compiler::HwFeatures::fromAdg(s.hw);
    auto placement = compiler::Placement::autoLayout(s.k, features);
    auto lowered =
        compiler::lowerKernel(s.k, placement, features, {}, 1);
    EXPECT_TRUE(lowered.ok) << lowered.error;
    s.prog = lowered.version.program;
    s.sched = mapper::scheduleProgram(s.prog, s.hw,
                                      {.maxIters = 400, .seed = 13});
    EXPECT_TRUE(s.sched.cost.legal());
    s.img = std::make_unique<sim::MemImage>(
        sim::MemImage::build(s.k, st, placement));
    return s;
}

TEST(SimDeadlock, SelfDependencyDetectedWithDiagnostic)
{
    auto s = makeSimSetup();
    // Inject an impossible dependence: region 0 waits on itself, so it
    // can never leave WaitDep — a true deadlock the cycle loop would
    // otherwise spin on until maxCycles.
    dfg::DecoupledProgram broken = s.prog;
    ASSERT_FALSE(broken.regions.empty());
    broken.regions[0].dependsOn.push_back(0);
    sim::SimOptions opts;
    opts.maxCycles = 50'000'000;
    opts.progressWindow = 2'000;  // tight window; nothing ever moves
    auto res = sim::simulate(broken, s.sched, s.hw, *s.img, opts);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.status.code(), StatusCode::Deadlock);
    // The diagnostic names the stalled region, its lifecycle state, and
    // what it is waiting on.
    EXPECT_NE(res.error.find("simulation deadlock"), std::string::npos);
    EXPECT_NE(res.error.find("region 0"), std::string::npos);
    EXPECT_NE(res.error.find("wait-dep"), std::string::npos);
    EXPECT_NE(res.error.find("waits-on{0}"), std::string::npos);
    // Detection fires within the progress window, not at maxCycles.
    EXPECT_LT(res.cycles, 100'000);
}

TEST(SimDeadlock, PartialStatsPopulatedOnAbort)
{
    auto s = makeSimSetup();
    dfg::DecoupledProgram broken = s.prog;
    broken.regions[0].dependsOn.push_back(0);
    sim::SimOptions opts;
    opts.progressWindow = 2'000;
    auto res = sim::simulate(broken, s.sched, s.hw, *s.img, opts);
    ASSERT_FALSE(res.ok);
    ASSERT_EQ(res.regions.size(), broken.regions.size());
    EXPECT_FALSE(res.regions[0].complete);
    EXPECT_EQ(res.regions[0].state, "wait-dep");
    EXPECT_EQ(res.regions[0].fires, 0);
    EXPECT_EQ(res.regions[0].endCycle, res.cycles);
}

TEST(SimDeadlock, HealthySimUnaffectedByWatchdog)
{
    auto s = makeSimSetup();
    sim::SimOptions watched;
    watched.progressWindow = 50'000;
    watched.deadline = Deadline::afterMs(10LL * 60 * 1000);
    auto res = sim::simulate(s.prog, s.sched, s.hw, *s.img, watched);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.status.ok());
    ASSERT_FALSE(res.regions.empty());
    EXPECT_TRUE(res.regions[0].complete);
    EXPECT_EQ(res.regions[0].state, "complete");
}

TEST(SimDeadlock, WallClockBudgetAborts)
{
    auto s = makeSimSetup();
    dfg::DecoupledProgram broken = s.prog;
    broken.regions[0].dependsOn.push_back(0);
    sim::SimOptions opts;
    opts.progressWindow = 0;  // deadlock check off: wall clock only
    opts.maxCycles = 50'000'000;
    opts.deadline = Deadline::afterMs(0);
    auto res = sim::simulate(broken, s.sched, s.hw, *s.img, opts);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_LT(res.cycles, 50'000'000);
}

// ---------------------------------------------------------------------
// DSE fault injection
// ---------------------------------------------------------------------

dse::DseOptions
tinyDse()
{
    dse::DseOptions o;
    o.maxIters = 24;
    o.noImproveExit = 24;
    o.infeasibleExit = 40;
    o.schedIters = 20;
    o.initSchedIters = 300;
    o.unrollFactors = {1, 4};
    o.seed = 3;
    return o;
}

TEST(DseFaults, WorkerExceptionAtInitialEvalFailsCleanly)
{
    auto opts = tinyDse();
    opts.evalFaultHook = [](int, int) {
        throw std::runtime_error("injected worker fault");
    };
    dse::Explorer ex(workloads::suiteWorkloads("PolyBench"), opts);
    auto res = ex.run(adg::buildDseInitial());
    EXPECT_EQ(res.stopReason, "error");
    EXPECT_EQ(res.status.code(), StatusCode::Internal);
    EXPECT_NE(res.status.message().find("injected worker fault"),
              std::string::npos);
}

TEST(DseFaults, MidRunWorkerExceptionsRecordedAsInfeasible)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    auto opts = tinyDse();
    size_t tasksPerEval = set.size() * opts.unrollFactors.size();
    // Let the two seed evaluations pass, then fail every task.
    auto calls = std::make_shared<std::atomic<size_t>>(0);
    opts.evalFaultHook = [calls, tasksPerEval](int, int) {
        if (calls->fetch_add(1) >= 2 * tasksPerEval)
            throw StatusException(Status::internal("mid-run fault"));
    };
    dse::Explorer ex(set, opts);
    auto res = ex.run(adg::buildDseInitial());
    // The run survives: the seed records exist, every faulted candidate
    // counts as infeasible, and the first cause is reported.
    EXPECT_GE(res.history.size(), 2u);
    EXPECT_GT(res.evalFailures, 0);
    EXPECT_EQ(res.status.code(), StatusCode::Internal);
    EXPECT_NE(res.stopReason, "error");
    EXPECT_GT(res.bestObjective, 0.0);
}

TEST(DseFaults, CandidateTimeCapSurfacesAsDeadlineExceeded)
{
    auto opts = tinyDse();
    opts.initSchedIters = 2'000'000;  // would run for minutes...
    opts.candidateTimeMs = 1;         // ...but is capped per candidate
    dse::Explorer ex(workloads::suiteWorkloads("PolyBench"), opts);
    auto res = ex.run(adg::buildDseInitial());
    // The initial evaluation itself times out: clean error, no hang.
    EXPECT_EQ(res.stopReason, "error");
    EXPECT_EQ(res.status.code(), StatusCode::DeadlineExceeded);
}

TEST(DseFaults, WallBudgetStopsRunCleanly)
{
    auto opts = tinyDse();
    opts.maxIters = 100000;
    opts.noImproveExit = 100000;
    opts.wallBudgetMs = 1;  // expires before the first mutation step
    dse::Explorer ex(workloads::suiteWorkloads("PolyBench"), opts);
    auto res = ex.run(adg::buildDseInitial());
    EXPECT_EQ(res.stopReason, "wall-clock");
    EXPECT_TRUE(res.status.ok());
    // The two seed evaluations, plus at most the one step that may
    // already be in flight when the budget expires (checked at loop
    // top) — nowhere near the 100000-iteration configured horizon.
    EXPECT_GE(res.history.size(), 2u);
    EXPECT_LE(res.history.size(), 4u);
    EXPECT_GT(res.bestObjective, 0.0);
}

// ---------------------------------------------------------------------
// Checkpoint files: round trip + corruption
// ---------------------------------------------------------------------

TEST(Checkpoint, SaveLoadRoundTripIsExact)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    auto opts = tinyDse();
    opts.checkpointPath = tmpPath("roundtrip");
    opts.checkpointEvery = 1;
    dse::Explorer ex(set, opts);
    auto res = ex.run(adg::buildDseInitial());
    ASSERT_GT(res.checkpointsWritten, 0);

    auto loaded = dse::loadCheckpoint(opts.checkpointPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const dse::DseCheckpoint &ck = loaded.value();
    ASSERT_EQ(ck.workloadNames.size(), set.size());
    EXPECT_EQ(ck.workloadNames.front(), set.front()->name);
    EXPECT_EQ(ck.options.maxIters, opts.maxIters);
    EXPECT_EQ(ck.options.seed, opts.seed);
    EXPECT_EQ(ck.state.result.best.toText(), res.best.toText());
    // Serializing the loaded checkpoint again reproduces the file
    // byte-for-byte: every double and int64 survived exactly.
    std::string again =
        dse::checkpointToJson(ck.workloadNames, ck.options, ck.state)
            .dump() +
        "\n";
    EXPECT_EQ(readAll(opts.checkpointPath), again);
    std::remove(opts.checkpointPath.c_str());
}

TEST(Checkpoint, CorruptFilesRejectedWithCleanStatus)
{
    auto missing = dse::loadCheckpoint("no_such_checkpoint.json");
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::NotFound);

    std::string path = tmpPath("corrupt");
    auto writeFile = [&](const std::string &text) {
        std::ofstream out(path, std::ios::trunc);
        out << text;
    };

    writeFile("{\"format\": \"dsagen-dse-che");  // truncated mid-token
    auto truncated = dse::loadCheckpoint(path);
    EXPECT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), StatusCode::DataLoss);

    writeFile("{\"format\": \"something-else\", \"version\": 1}");
    auto wrongFormat = dse::loadCheckpoint(path);
    EXPECT_FALSE(wrongFormat.ok());
    EXPECT_EQ(wrongFormat.status().code(), StatusCode::InvalidArgument);

    writeFile("{\"format\": \"dsagen-dse-checkpoint\", \"version\": 99}");
    auto wrongVersion = dse::loadCheckpoint(path);
    EXPECT_FALSE(wrongVersion.ok());
    EXPECT_EQ(wrongVersion.status().code(), StatusCode::InvalidArgument);

    // Files from builds before version 2 (which still embedded the
    // eval cache) are refused, naming both versions.
    writeFile("{\"format\": \"dsagen-dse-checkpoint\", \"version\": 1, "
              "\"workloads\": [\"mm\"], \"options\": {}, \"state\": {}}");
    auto versionOne = dse::loadCheckpoint(path);
    EXPECT_FALSE(versionOne.ok());
    EXPECT_EQ(versionOne.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(versionOne.status().message().find("version 1"),
              std::string::npos);
    EXPECT_NE(versionOne.status().message().find("version 2"),
              std::string::npos);

    writeFile("{\"format\": \"dsagen-dse-checkpoint\", \"version\": 2, "
              "\"workloads\": [\"mm\"], \"options\": {}, \"state\": {}}");
    auto missingFields = dse::loadCheckpoint(path);
    EXPECT_FALSE(missingFields.ok());
    EXPECT_EQ(missingFields.status().code(), StatusCode::DataLoss);
    EXPECT_NE(missingFields.status().message().find("missing field"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Checkpoint, MalformedDesignTextLoadsAsDataLoss)
{
    // Checkpoints embed designs as ADG text: a mangled one must come
    // back as DataLoss naming the bad line, never abort the process.
    dse::DseRunState state;
    json::Value doc = dse::checkpointToJson({"mm"}, tinyDse(), state);
    ASSERT_TRUE(dse::checkpointFromJson(doc).ok());
    json::Value st = *doc.find("state");
    st.set("current", json::Value::str("adg v1\nnode 0 pe bogus\n"));
    doc.set("state", std::move(st));
    auto loaded = dse::checkpointFromJson(doc);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::DataLoss);
    EXPECT_NE(loaded.status().message().find("node 0 pe bogus"),
              std::string::npos)
        << loaded.status().toString();
}

TEST(Checkpoint, ParetoStateWithoutFrontIsDataLoss)
{
    // Pareto runs always write their front; one without it is corrupt,
    // not a run to restart with an empty archive.
    auto opts = tinyDse();
    opts.pareto = true;
    auto loaded = dse::checkpointFromJson(
        dse::checkpointToJson({"mm"}, opts, dse::DseRunState{}));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::DataLoss);
    EXPECT_NE(loaded.status().message().find("missing field 'front'"),
              std::string::npos)
        << loaded.status().toString();
}

// ---------------------------------------------------------------------
// The acceptance test: crash mid-run, resume, get identical results
// ---------------------------------------------------------------------

void
expectSameHistory(const dse::DseResult &a, const dse::DseResult &b)
{
    ASSERT_EQ(a.history.size(), b.history.size());
    for (size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].iter, b.history[i].iter);
        EXPECT_EQ(a.history[i].accepted, b.history[i].accepted);
        EXPECT_DOUBLE_EQ(a.history[i].areaMm2, b.history[i].areaMm2);
        EXPECT_DOUBLE_EQ(a.history[i].powerMw, b.history[i].powerMw);
        EXPECT_DOUBLE_EQ(a.history[i].perf, b.history[i].perf);
        EXPECT_DOUBLE_EQ(a.history[i].objective, b.history[i].objective);
    }
}

TEST(CheckpointResume, CrashedRunResumesBitIdentically)
{
    auto set = workloads::suiteWorkloads("PolyBench");

    // Reference: the uninterrupted run (checkpointing on, same cadence,
    // so the checkpoint writes themselves cannot be a behavior fork).
    auto refOpts = tinyDse();
    refOpts.checkpointPath = tmpPath("ref");
    refOpts.checkpointEvery = 1;
    dse::Explorer ref(set, refOpts);
    auto refRes = ref.run(adg::buildDseInitial());
    // At least one periodic (acceptance-triggered) write plus the final
    // one; otherwise the crash below would have nothing to recover.
    ASSERT_GT(refRes.checkpointsWritten, 1);

    // "Crash" after the first checkpoint write: the run returns with
    // only the first checkpoint on disk — exactly the state a kill -9
    // at that moment would leave behind.
    auto crashOpts = refOpts;
    crashOpts.checkpointPath = tmpPath("crash");
    crashOpts.haltAfterCheckpoints = 1;
    dse::Explorer crashed(set, crashOpts);
    auto crashRes = crashed.run(adg::buildDseInitial());
    EXPECT_EQ(crashRes.stopReason, "halted");
    EXPECT_LT(crashRes.history.size(), refRes.history.size());

    // Resume from the survivor file with a *fresh* Explorer (no state
    // outlives the "crash" except the checkpoint itself).
    auto loaded = dse::loadCheckpoint(crashOpts.checkpointPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    dse::DseCheckpoint ck = std::move(loaded.value());
    ck.options.haltAfterCheckpoints = 0;  // test knob; not serialized
    dse::Explorer resumed(set, ck.options);
    auto resRes = resumed.resume(std::move(ck.state));

    // Bit-identical to the uninterrupted run: same trace, same design,
    // same objective bits, same stop reason, same checkpoint count.
    expectSameHistory(refRes, resRes);
    EXPECT_EQ(refRes.best.toText(), resRes.best.toText());
    EXPECT_DOUBLE_EQ(refRes.bestObjective, resRes.bestObjective);
    EXPECT_DOUBLE_EQ(refRes.bestPerf, resRes.bestPerf);
    EXPECT_EQ(refRes.stopReason, resRes.stopReason);
    EXPECT_EQ(refRes.checkpointsWritten, resRes.checkpointsWritten);

    // And the final checkpoints of both runs are byte-identical up to
    // the recorded checkpointPath option itself.
    std::string a = readAll(refOpts.checkpointPath);
    std::string b = readAll(crashOpts.checkpointPath);
    size_t pa = a.find(tmpPath("ref"));
    size_t pb = b.find(tmpPath("crash"));
    ASSERT_NE(pa, std::string::npos);
    ASSERT_NE(pb, std::string::npos);
    a.replace(pa, tmpPath("ref").size(), "X");
    b.replace(pb, tmpPath("crash").size(), "X");
    EXPECT_EQ(a, b);
    std::remove(refOpts.checkpointPath.c_str());
    std::remove(crashOpts.checkpointPath.c_str());
}

TEST(CheckpointResume, ThreadCountMayChangeAcrossResume)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    auto refOpts = tinyDse();
    refOpts.checkpointPath = tmpPath("threads_ref");
    refOpts.checkpointEvery = 1;
    dse::Explorer ref(set, refOpts);
    auto refRes = ref.run(adg::buildDseInitial());

    auto crashOpts = refOpts;
    crashOpts.checkpointPath = tmpPath("threads_crash");
    crashOpts.haltAfterCheckpoints = 1;
    dse::Explorer crashed(set, crashOpts);
    (void)crashed.run(adg::buildDseInitial());

    auto loaded = dse::loadCheckpoint(crashOpts.checkpointPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    dse::DseCheckpoint ck = std::move(loaded.value());
    ck.options.haltAfterCheckpoints = 0;
    ck.options.threads = 4;  // resume parallel; the trace is invariant
    dse::Explorer resumed(set, ck.options);
    auto resRes = resumed.resume(std::move(ck.state));
    expectSameHistory(refRes, resRes);
    EXPECT_EQ(refRes.best.toText(), resRes.best.toText());
    std::remove(refOpts.checkpointPath.c_str());
    std::remove(crashOpts.checkpointPath.c_str());
}

// ---------------------------------------------------------------------
// Fault-injection registry
// ---------------------------------------------------------------------

TEST(FaultInjection, FiresExactlyOnceAtNthOccurrence)
{
    fault::reset();
    fault::configure("test.site:3");
    EXPECT_TRUE(fault::armed());
    EXPECT_FALSE(fault::shouldFire("test.site")); // 1st
    EXPECT_FALSE(fault::shouldFire("test.site")); // 2nd
    EXPECT_TRUE(fault::shouldFire("test.site"));  // 3rd: armed for this one
    EXPECT_FALSE(fault::shouldFire("test.site")); // at most once per process
    EXPECT_EQ(fault::occurrences("test.site"), 4u);
    EXPECT_FALSE(fault::shouldFire("unarmed.site"));
    fault::reset();
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::shouldFire("test.site"));
}

TEST(FaultInjection, MalformedSpecEntriesAreSkipped)
{
    fault::reset();
    fault::configure("nocolon,empty:,zeroth:0,ok.site:2,");
    EXPECT_TRUE(fault::armed());
    EXPECT_FALSE(fault::shouldFire("nocolon"));
    EXPECT_FALSE(fault::shouldFire("empty"));
    EXPECT_FALSE(fault::shouldFire("zeroth"));
    EXPECT_FALSE(fault::shouldFire("ok.site"));
    EXPECT_TRUE(fault::shouldFire("ok.site"));
    fault::reset();
}

// ---------------------------------------------------------------------
// Checkpoint durability: a torn save must not lose the prior file
// ---------------------------------------------------------------------

TEST(Checkpoint, TornSaveFailsCleanlyAndKeepsPriorFile)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    auto opts = tinyDse();
    opts.checkpointPath = tmpPath("tear");
    opts.checkpointEvery = 1;
    dse::Explorer ex(set, opts);
    auto res = ex.run(adg::buildDseInitial());
    ASSERT_GT(res.checkpointsWritten, 0);
    std::string before = readAll(opts.checkpointPath);
    ASSERT_FALSE(before.empty());
    auto loaded = dse::loadCheckpoint(opts.checkpointPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const dse::DseCheckpoint &ck = loaded.value();

    // Simulated power loss mid-save: the write tears before the
    // rename, so the overwrite must fail *without* touching the
    // existing checkpoint.
    fault::reset();
    fault::configure("checkpoint.tear:1");
    Status s = dse::saveCheckpoint(ck.workloadNames, ck.options, ck.state,
                                   opts.checkpointPath);
    fault::reset();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::DataLoss);
    EXPECT_EQ(readAll(opts.checkpointPath), before);
    EXPECT_TRUE(dse::loadCheckpoint(opts.checkpointPath).ok());
    // The torn temp file is on disk (half the bytes) and is itself
    // rejected cleanly — it can never be mistaken for a checkpoint.
    auto torn = dse::loadCheckpoint(opts.checkpointPath + ".tmp");
    EXPECT_FALSE(torn.ok());
    std::remove((opts.checkpointPath + ".tmp").c_str());
    std::remove(opts.checkpointPath.c_str());
}

// ---------------------------------------------------------------------
// Shared eval-cache store: segments, corruption, leases
// ---------------------------------------------------------------------

/** Remove a flat directory and everything in it. */
void
rmTree(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (dirent *e = ::readdir(d)) {
            std::string n = e->d_name;
            if (n != "." && n != "..")
                std::remove((dir + "/" + n).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

/** Sorted segment file names in a store directory. */
std::vector<std::string>
segFiles(const std::string &dir)
{
    std::vector<std::string> out;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (dirent *e = ::readdir(d)) {
            std::string n = e->d_name;
            if (n.size() > 5 && n.substr(n.size() - 5) == ".dsec")
                out.push_back(n);
        }
        ::closedir(d);
    }
    std::sort(out.begin(), out.end());
    return out;
}

dse::EvalKey
synthKey(uint64_t n)
{
    dse::EvalKey k;
    k.structural.hi = 0x9e3779b97f4a7c15ull * (n + 1);
    k.structural.lo = 0xc2b2ae3d27d4eb4full * (n + 1);
    k.labeling = 0x165667b19e3779f9ull * (n + 1);
    k.context = 0x27d4eb2f165667c5ull * (n + 1);
    return k;
}

dse::EvalCacheEntry
synthEntry(uint64_t n)
{
    dse::EvalCacheEntry e;
    e.objective = 1.0 + static_cast<double>(n);
    e.perf = 2.0 + static_cast<double>(n);
    e.tasks.resize(1);
    e.tasks[0].lowered = true;
    e.tasks[0].legal = false; // no schedule payload needed
    e.tasks[0].cycles = 100.0 + static_cast<double>(n);
    return e;
}

TEST(CacheStore, AppendLoadRoundTrip)
{
    std::string dir = "robustness_store_rt";
    rmTree(dir);
    {
        dse::CacheStore store(dir);
        ASSERT_TRUE(store.open().ok());
        for (uint64_t i = 0; i < 3; ++i)
            ASSERT_TRUE(store.append(synthKey(i), synthEntry(i)).ok());
        store.flush();
        EXPECT_EQ(store.stats().appends, 3u);
        EXPECT_EQ(segFiles(dir).size(), 1u); // one segment per writer
    }
    dse::CacheStore reader(dir);
    ASSERT_TRUE(reader.open().ok());
    dse::EvalCache cache;
    ASSERT_TRUE(reader.loadInto(cache).ok());
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(reader.stats().segmentsLoaded, 1u);
    EXPECT_EQ(reader.stats().recordsLoaded, 3u);
    EXPECT_EQ(reader.stats().recordsQuarantined, 0u);
    auto hit = cache.find(synthKey(1));
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->objective, 2.0);
    EXPECT_DOUBLE_EQ(hit->perf, 3.0);
    ASSERT_EQ(hit->tasks.size(), 1u);
    EXPECT_TRUE(hit->tasks[0].lowered);
    EXPECT_FALSE(hit->tasks[0].legal);
    EXPECT_DOUBLE_EQ(hit->tasks[0].cycles, 101.0);
    rmTree(dir);
}

TEST(CacheStore, FlippedByteQuarantinesOnlyThatRecord)
{
    std::string dir = "robustness_store_flip";
    rmTree(dir);
    {
        dse::CacheStore store(dir);
        ASSERT_TRUE(store.open().ok());
        for (uint64_t i = 0; i < 3; ++i)
            ASSERT_TRUE(store.append(synthKey(i), synthEntry(i)).ok());
    }
    auto segs = segFiles(dir);
    ASSERT_EQ(segs.size(), 1u);
    std::string path = dir + "/" + segs[0];
    std::string bytes = readAll(path);
    // Flip one payload byte inside the *second* record (just past its
    // 16-byte magic+len+checksum header).
    size_t second = bytes.find("DSEC", 4);
    ASSERT_NE(second, std::string::npos);
    bytes[second + 16 + 5] ^= 0x40;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    dse::CacheStore reader(dir);
    ASSERT_TRUE(reader.open().ok());
    dse::EvalCache cache;
    ASSERT_TRUE(reader.loadInto(cache).ok()); // corruption is never fatal
    EXPECT_EQ(reader.stats().recordsQuarantined, 1u);
    EXPECT_EQ(reader.stats().recordsLoaded, 2u);
    EXPECT_NE(cache.find(synthKey(0)), nullptr);
    EXPECT_EQ(cache.find(synthKey(1)), nullptr); // the corrupt one
    EXPECT_NE(cache.find(synthKey(2)), nullptr); // resync recovered it
    rmTree(dir);
}

TEST(CacheStore, TruncatedTailQuarantinesOnlyLastRecord)
{
    std::string dir = "robustness_store_trunc";
    rmTree(dir);
    {
        dse::CacheStore store(dir);
        ASSERT_TRUE(store.open().ok());
        for (uint64_t i = 0; i < 3; ++i)
            ASSERT_TRUE(store.append(synthKey(i), synthEntry(i)).ok());
    }
    auto segs = segFiles(dir);
    ASSERT_EQ(segs.size(), 1u);
    std::string path = dir + "/" + segs[0];
    std::string bytes = readAll(path);
    ASSERT_GT(bytes.size(), 8u);
    { // a writer killed mid-append: the tail record is torn
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() - 8);
    }
    dse::CacheStore reader(dir);
    dse::EvalCache cache;
    ASSERT_TRUE(reader.open().ok());
    ASSERT_TRUE(reader.loadInto(cache).ok());
    EXPECT_EQ(reader.stats().recordsQuarantined, 1u);
    EXPECT_EQ(reader.stats().recordsLoaded, 2u);
    EXPECT_NE(cache.find(synthKey(0)), nullptr);
    EXPECT_NE(cache.find(synthKey(1)), nullptr);
    EXPECT_EQ(cache.find(synthKey(2)), nullptr);
    rmTree(dir);
}

TEST(CacheStore, StaleLeaseOfDeadOwnerIsTakenOver)
{
    std::string dir = "robustness_store_lease";
    rmTree(dir);
    dse::CacheStore store(dir);
    ASSERT_TRUE(store.open().ok());
    // Two segments (flush closes one; the next append opens another),
    // so there is actually something to merge.
    ASSERT_TRUE(store.append(synthKey(0), synthEntry(0)).ok());
    store.flush();
    ASSERT_TRUE(store.append(synthKey(1), synthEntry(1)).ok());
    store.flush();
    ASSERT_EQ(segFiles(dir).size(), 2u);

    // A compactor killed while holding the lease: the lease file stays
    // behind, but the kernel released the lock with the process.
    std::string lease = dir + "/compact.lease";
    pid_t dead = ::fork();
    ASSERT_GE(dead, 0);
    if (dead == 0) {
        FileLock held;
        if (held.tryLock(lease).ok() && held.held())
            ::raise(SIGKILL);
        ::_exit(1);
    }
    int ws = 0;
    ASSERT_EQ(::waitpid(dead, &ws, 0), dead);
    ASSERT_TRUE(WIFSIGNALED(ws)) << "child never held the lease";
    ASSERT_EQ(::access(lease.c_str(), F_OK), 0);

    auto compacted = store.compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status().toString();
    EXPECT_TRUE(*compacted);
    EXPECT_EQ(store.stats().compactions, 1u);
    EXPECT_NE(::access(lease.c_str(), F_OK), 0); // released by unlink
    EXPECT_EQ(segFiles(dir).size(), 1u); // merged into one segment

    dse::CacheStore reader(dir);
    dse::EvalCache cache;
    ASSERT_TRUE(reader.open().ok());
    ASSERT_TRUE(reader.loadInto(cache).ok());
    EXPECT_EQ(cache.size(), 2u); // nothing lost in the merge
    rmTree(dir);
}

TEST(CacheStore, LiveLeaseRefusesCompactionWithoutError)
{
    std::string dir = "robustness_store_livelease";
    rmTree(dir);
    dse::CacheStore store(dir);
    ASSERT_TRUE(store.open().ok());
    ASSERT_TRUE(store.append(synthKey(0), synthEntry(0)).ok());
    store.flush();
    ASSERT_TRUE(store.append(synthKey(1), synthEntry(1)).ok());
    store.flush();
    FileLock held; // the lease held by a live holder (us)
    auto got = held.tryLock(dir + "/compact.lease");
    ASSERT_TRUE(got.ok() && *got) << got.status().toString();
    auto compacted = store.compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status().toString();
    EXPECT_FALSE(*compacted); // declined, not an error
    EXPECT_EQ(store.stats().compactions, 0u);
    EXPECT_EQ(segFiles(dir).size(), 2u); // nothing merged or unlinked
    held.unlock();
    rmTree(dir);
}

TEST(CacheStoreDse, CorruptSegmentsQuarantinedTraceUnchanged)
{
    std::string dir = "robustness_store_dse";
    rmTree(dir);
    auto set = workloads::suiteWorkloads("PolyBench");
    auto opts = tinyDse();
    dse::Explorer ref(set, opts);
    auto refRes = ref.run(adg::buildDseInitial());

    // Populate the store; the store itself must be trace-neutral.
    auto storeOpts = opts;
    storeOpts.cacheStoreDir = dir;
    dse::Explorer writer(set, storeOpts);
    auto writeRes = writer.run(adg::buildDseInitial());
    expectSameHistory(refRes, writeRes);
    EXPECT_GT(writeRes.cacheStats.storeAppends, 0u);
    ASSERT_FALSE(segFiles(dir).empty());

    // Bit-rot every segment, then rerun against the damaged store: the
    // corruption is quarantined and costs only warmth, never results.
    for (const std::string &name : segFiles(dir)) {
        std::string path = dir + "/" + name;
        std::string bytes = readAll(path);
        ASSERT_FALSE(bytes.empty());
        bytes[bytes.size() / 2] ^= 0x40;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    dse::Explorer reread(set, storeOpts);
    auto rereadRes = reread.run(adg::buildDseInitial());
    expectSameHistory(refRes, rereadRes);
    EXPECT_EQ(refRes.best.toText(), rereadRes.best.toText());
    EXPECT_DOUBLE_EQ(refRes.bestObjective, rereadRes.bestObjective);
    EXPECT_GE(rereadRes.cacheStats.storeQuarantined, 1u);
    rmTree(dir);
}

// ---------------------------------------------------------------------
// Multi-process DSE: bit-identity under crashes, stalls, and kill -9
// ---------------------------------------------------------------------

dse::DseResult
runPoolDse(int workers, const std::vector<std::string> &workerEnv,
           int64_t timeoutMs, int maxIters, int batch)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    auto opts = tinyDse();
    opts.maxIters = maxIters;
    opts.noImproveExit = maxIters;
    opts.candidateBatch = batch;
    opts.workers = workers;
    opts.workerEnv = workerEnv;
    opts.workerRequestTimeoutMs = timeoutMs;
    dse::Explorer ex(set, opts);
    return ex.run(adg::buildDseInitial());
}

TEST(MultiProcessDse, WorkersMatchSerialBitIdentically)
{
    auto serial = runPoolDse(0, {}, 0, 24, 4);
    EXPECT_EQ(serial.workerStats.spawned, 0u);
    for (int n : {1, 2, 4}) {
        SCOPED_TRACE("workers=" + std::to_string(n));
        auto par = runPoolDse(n, {}, 0, 24, 4);
        expectSameHistory(serial, par);
        EXPECT_EQ(serial.best.toText(), par.best.toText());
        EXPECT_DOUBLE_EQ(serial.bestObjective, par.bestObjective);
        EXPECT_DOUBLE_EQ(serial.bestPerf, par.bestPerf);
        EXPECT_EQ(serial.stopReason, par.stopReason);
        EXPECT_TRUE(par.status.ok()) << par.status.toString();
        EXPECT_GE(par.workerStats.spawned, static_cast<uint64_t>(n));
        EXPECT_GT(par.workerStats.dispatched, 0u);
        EXPECT_EQ(par.workerStats.deaths, 0u);
        EXPECT_EQ(par.workerStats.degraded, 0u);
    }
}

TEST(MultiProcessDse, WorkerSigkillMidBatchRecoversBitIdentically)
{
    auto serial = runPoolDse(0, {}, 0, 12, 4);
    // Every worker process SIGKILLs itself at its 3rd candidate
    // evaluation — including restarted ones (fresh processes re-parse
    // the env), so the recovery ladder is exercised end to end.
    auto par = runPoolDse(2, {"DSA_FAULT=worker.eval.kill:3"}, 0, 12, 4);
    expectSameHistory(serial, par);
    EXPECT_EQ(serial.best.toText(), par.best.toText());
    EXPECT_DOUBLE_EQ(serial.bestObjective, par.bestObjective);
    EXPECT_EQ(serial.stopReason, par.stopReason);
    EXPECT_GT(par.workerStats.deaths, 0u);
    EXPECT_GT(par.workerStats.redispatched + par.workerStats.degraded, 0u);
}

TEST(MultiProcessDse, StaleRequestOnRespawnedSlotIsRedispatchedNotAwaited)
{
    // Regression: a shard request is in flight on slot W when W dies
    // before replying, and an *earlier* shard's recovery ladder
    // restarts slot W. The respawned process never received the
    // request, so awaiting its reply with the unlimited default
    // timeout hung the coordinator forever (and with a finite timeout
    // SIGKILLed the innocent restarted worker). The per-slot
    // generation check must instead report the shard lost so the
    // ladder redispatches it.
    //
    // Every worker process dies at its 3rd evaluated candidate
    // (restarted processes re-arm), and the batch sequence walks the
    // pool deterministically into that state. Batches 1+2 (one
    // candidate per shard) bring both workers to two evals. Batch 3
    // (one candidate) kills worker 0 on receipt, then the redispatch
    // kills worker 1 too, and the ladder restarts slot 0 — leaving
    // slot 1 dead and slot 0 fresh at one eval. Batch 4 (two
    // two-candidate shards of a design no live worker has cached)
    // queues both shards on slot 0, which evaluates the first
    // candidate of shard 0 — slow, a real uncached evaluation, so
    // shard 1's request is queued on its pipe long before — then hits
    // its 3rd-eval fault mid-request, and shard 0's recovery respawns
    // slot 0. Shard 1 is now awaiting a request the new process never
    // saw.
    auto set = workloads::suiteWorkloads("PolyBench");
    dse::WorkerPoolOptions po;
    po.workers = 2;
    po.dse = tinyDse();
    for (const workloads::Workload *w : set)
        po.workloadNames.push_back(w->name);
    po.extraEnv = {"DSA_FAULT=worker.eval.kill:3"};
    dse::WorkerPool pool(po);
    ASSERT_TRUE(pool.start().ok());

    adg::Adg warm = adg::buildDseInitial();
    adg::Adg cold = adg::buildDseInitial(4, 4); // distinct fingerprint
    dse::ScheduleCache scheds;
    int fallbacks = 0;
    auto inProcess = [&](size_t) {
        ++fallbacks;
        return dse::WorkerEvalOutcome{
            Status::internal("degraded in test"), nullptr};
    };
    const std::vector<std::vector<const adg::Adg *>> batches = {
        {&warm, &warm},
        {&warm, &warm},
        {&warm},
        {&cold, &cold, &cold, &cold},
    };
    for (const auto &cands : batches) {
        SCOPED_TRACE("batch=" + std::to_string(cands.size()));
        auto out = pool.evaluateBatch(cands, scheds, po.dse.useRepair,
                                      inProcess);
        ASSERT_EQ(out.size(), cands.size());
        for (const dse::WorkerEvalOutcome &o : out) {
            EXPECT_TRUE(o.status.ok()) << o.status.toString();
            EXPECT_NE(o.entry, nullptr);
        }
    }
    // Every shard recovered through redispatch/restart, never by
    // degrading — proof the stale request was detected and retried
    // rather than awaited (the await would never return).
    EXPECT_EQ(fallbacks, 0);
    EXPECT_EQ(pool.stats().degraded, 0u);
    EXPECT_GT(pool.stats().deaths, 0u);
    EXPECT_GT(pool.stats().restarts, 0u);
    EXPECT_GT(pool.stats().redispatched, 0u);
}

TEST(MultiProcessDse, StalledWorkerTimesOutAndRecoversBitIdentically)
{
    auto serial = runPoolDse(0, {}, 0, 8, 4);
    // Each worker's first eval reply stalls 5 s; the 300 ms response
    // watchdog must fire and walk the ladder instead of wedging.
    auto par =
        runPoolDse(2, {"DSA_FAULT=worker.pipe.stall:1"}, 300, 8, 4);
    expectSameHistory(serial, par);
    EXPECT_EQ(serial.best.toText(), par.best.toText());
    EXPECT_EQ(serial.stopReason, par.stopReason);
    EXPECT_GT(par.workerStats.timeouts, 0u);
}

TEST(MultiProcessDse, CoordinatorKillAndResumeBitIdentical)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    auto refOpts = tinyDse();
    refOpts.checkpointPath = tmpPath("coord_ref");
    refOpts.checkpointEvery = 1;
    dse::Explorer ref(set, refOpts);
    auto refRes = ref.run(adg::buildDseInitial());
    ASSERT_GT(refRes.checkpointsWritten, 1);

    // Re-exec this binary as a checkpointing run and kill -9 it (for
    // real — the armed fault SIGKILLs the child) mid-exploration.
    std::string victimPath = tmpPath("coord_victim");
    std::remove(victimPath.c_str());
    Subprocess::Options so;
    so.argv = {Subprocess::selfExe(), "__dse-halt-run", victimPath};
    so.extraEnv = {"DSA_FAULT=dse.step.kill:16"};
    auto spawned = Subprocess::spawn(std::move(so));
    ASSERT_TRUE(spawned.ok()) << spawned.status().toString();
    std::unique_ptr<Subprocess> child = std::move(spawned.value());
    auto ended = child->wait(Deadline::afterMs(10LL * 60 * 1000));
    ASSERT_TRUE(ended.signaled) << ended.describe();
    EXPECT_EQ(ended.sig, SIGKILL);

    // Resume from whatever the victim left on disk; the continuation
    // must replay onto the uninterrupted run's exact trace.
    auto loaded = dse::loadCheckpoint(victimPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    dse::DseCheckpoint ck = std::move(loaded.value());
    dse::Explorer resumed(set, ck.options);
    auto resRes = resumed.resume(std::move(ck.state));
    expectSameHistory(refRes, resRes);
    EXPECT_EQ(refRes.best.toText(), resRes.best.toText());
    EXPECT_DOUBLE_EQ(refRes.bestObjective, resRes.bestObjective);
    EXPECT_EQ(refRes.stopReason, resRes.stopReason);
    std::remove(refOpts.checkpointPath.c_str());
    std::remove(victimPath.c_str());
}

} // namespace

/**
 * Child side of CoordinatorKillAndResumeBitIdentical: run the same
 * checkpointing DSE the reference ran; the DSA_FAULT armed in our
 * environment by the parent SIGKILLs us at the chosen step.
 */
int
haltRunChildMain(const std::string &ckptPath)
{
    ::dup2(2, 1); // chatter must not block on the parent's pipe
    auto set = workloads::suiteWorkloads("PolyBench");
    auto opts = tinyDse();
    opts.checkpointPath = ckptPath;
    opts.checkpointEvery = 1;
    dse::Explorer ex(set, opts);
    auto res = ex.run(adg::buildDseInitial());
    return res.status.ok() ? 0 : 1;
}

} // namespace dsa

int
main(int argc, char **argv)
{
    // Self-exec entry points for the multi-process suites: this binary
    // doubles as the DSE worker subprocess and as the kill -9 victim.
    if (argc >= 2 && std::string(argv[1]) == "__dse-worker")
        return dsa::dse::workerMain();
    if (argc >= 3 && std::string(argv[1]) == "__dse-halt-run")
        return dsa::haltRunChildMain(argv[2]);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
