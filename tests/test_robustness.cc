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
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
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
#include "base/json.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/subprocess.h"
#include "compiler/compile.h"
#include "dse/cache_store.h"
#include "dse/checkpoint.h"
#include "dse/entry_codec.h"
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
    return "robustness_" + tag + ".ckpt";
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

TEST(Status, SuggestNameSuffixFollowsTheNameDirectly)
{
    // The suffix brings its own separator; callers add none.
    try {
        (void)adg::schedulingFromName("statik");
        ADD_FAILURE() << "an unknown scheduling was accepted";
    } catch (const StatusException &e) {
        EXPECT_EQ(e.status().message(),
                  "unknown scheduling 'statik'; did you mean 'static'? "
                  "(valid: static, dynamic)");
    }
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
    // Only the exact text saveState() writes loads: a checkpoint's RNG
    // field decodes to the bytes that encode it.
    for (const std::string &inexact :
         {saved + " 12345 junk", saved + " ", " " + saved, "0" + saved}) {
        EXPECT_FALSE(b.loadState(inexact)) << inexact.substr(0, 24);
    }
    // A refused load leaves the stream where it was.
    EXPECT_EQ(a.uniformInt(0, 1 << 30), b.uniformInt(0, 1 << 30));
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

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TEST(Checkpoint, SaveLoadRoundTripIsExact)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    for (bool pareto : {false, true}) {
        SCOPED_TRACE(pareto ? "pareto" : "scalar");
        auto opts = tinyDse();
        opts.pareto = pareto;
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
        EXPECT_EQ(ck.state.front.size(), pareto ? res.front.size() : 0u);
        // Saving the loaded checkpoint again reproduces the file
        // byte-for-byte: every double and int64 survived exactly.
        std::string again = tmpPath("roundtrip_again");
        ASSERT_TRUE(dse::saveCheckpoint(ck.workloadNames, ck.options,
                                        ck.state, again)
                        .ok());
        EXPECT_EQ(readAll(again), readAll(opts.checkpointPath));
        std::remove(again.c_str());
        std::remove(opts.checkpointPath.c_str());
    }
}

TEST(Checkpoint, CorruptFilesRejectedWithCleanStatus)
{
    auto missing = dse::loadCheckpoint("no_such_checkpoint.ckpt");
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::NotFound);

    std::string path = tmpPath("corrupt");
    ASSERT_TRUE(
        dse::saveCheckpoint({"mm"}, tinyDse(), dse::DseRunState{}, path).ok());
    const std::string good = readAll(path);
    ASSERT_TRUE(dse::loadCheckpoint(path).ok());
    auto load = [&](const std::string &bytes) {
        writeBytes(path, bytes);
        return dse::loadCheckpoint(path);
    };

    for (size_t cut : {size_t(0), size_t(3), size_t(5), good.size() / 2,
                       good.size() - 1}) {
        auto truncated = load(good.substr(0, cut));
        EXPECT_FALSE(truncated.ok()) << cut;
        EXPECT_EQ(truncated.status().code(), StatusCode::DataLoss)
            << truncated.status().toString();
    }

    auto wrongFormat = load("DSE2" + good.substr(4));
    EXPECT_FALSE(wrongFormat.ok());
    EXPECT_EQ(wrongFormat.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(wrongFormat.status().message().find("not a DSE checkpoint"),
              std::string::npos);

    // Another version of the binary format, and the JSON files of
    // versions 1 to 3 from older builds, are refused naming both
    // versions.
    const std::string current = "version " + std::to_string(
                                                 dse::kCheckpointVersion);
    for (int other : {3, 5, 99}) {
        std::string bytes = good;
        bytes[4] = static_cast<char>(other);
        auto refused = load(bytes);
        EXPECT_FALSE(refused.ok());
        EXPECT_EQ(refused.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(refused.status().message().find(
                      "version " + std::to_string(other)),
                  std::string::npos)
            << refused.status().toString();
        EXPECT_NE(refused.status().message().find(current), std::string::npos);
    }
    for (int old : {1, 2, 3}) {
        auto refused =
            load("{\"format\": \"dsagen-dse-checkpoint\", \"version\": " +
                 std::to_string(old) +
                 ", \"workloads\": [\"mm\"], \"options\": {}, "
                 "\"state\": {}}\n");
        EXPECT_FALSE(refused.ok());
        EXPECT_EQ(refused.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(refused.status().message().find("version 3"),
                  std::string::npos)
            << refused.status().toString();
        EXPECT_NE(refused.status().message().find(current), std::string::npos);
    }

    auto trailing = load(good + '\0');
    EXPECT_FALSE(trailing.ok());
    EXPECT_EQ(trailing.status().code(), StatusCode::DataLoss);
    std::remove(path.c_str());
}

/** A default run state whose Pareto front holds one point, so the
 *  front's encoding is part of what a test covers. */
dse::DseRunState
stateWithFront(const dse::DseOptions &opts)
{
    dse::DseRunState state;
    state.front = dse::ParetoFront(opts.areaBudgetMm2, opts.powerBudgetMw,
                                   opts.paretoFrontSize);
    dse::ParetoPoint p;
    p.perf = 1.5;
    p.areaMm2 = 2.0;
    p.powerMw = 300.0;
    p.objective = 0.5625;
    p.iter = 7;
    state.front.add(std::move(p));
    return state;
}

TEST(Checkpoint, MalformedDesignTextLoadsAsDataLoss)
{
    // Checkpoints embed designs as ADG text: a mangled one must come
    // back as DataLoss naming the bad line, never abort the process.
    dse::DseRunState state;
    std::string good = state.current.toText();
    std::string bad = "adg v1\nnode 0 pe bogus\n";
    ASSERT_LT(good.size(), 0x80u); // both lengths are one-byte counts
    std::string bytes = dse::encodeCheckpoint({"mm"}, tinyDse(), state);
    ASSERT_TRUE(dse::decodeCheckpoint(bytes).ok());
    size_t at = bytes.find(static_cast<char>(good.size()) + good);
    ASSERT_NE(at, std::string::npos);
    bytes.replace(at, 1 + good.size(), static_cast<char>(bad.size()) + bad);
    auto loaded = dse::decodeCheckpoint(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::DataLoss);
    EXPECT_NE(loaded.status().message().find("node 0 pe bogus"),
              std::string::npos)
        << loaded.status().toString();
}

TEST(Checkpoint, ParetoStateWithoutValidFrontIsDataLoss)
{
    // Pareto runs always write their front; one without it is corrupt,
    // not a run to restart with an empty archive.
    auto opts = tinyDse();
    opts.pareto = true;
    auto empty = dse::decodeCheckpoint(
        dse::encodeCheckpoint({"mm"}, opts, dse::DseRunState{}));
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), StatusCode::DataLoss);
    EXPECT_NE(empty.status().message().find("pareto front header"),
              std::string::npos)
        << empty.status().toString();

    // A Pareto record cut where a scalar one ends has no front at all.
    dse::DseRunState state = stateWithFront(opts);
    std::string withFront = dse::encodeCheckpoint({"mm"}, opts, state);
    ASSERT_TRUE(dse::decodeCheckpoint(withFront).ok());
    std::string scalar = dse::encodeCheckpoint({"mm"}, tinyDse(), state);
    auto cut = dse::decodeCheckpoint(withFront.substr(0, scalar.size()));
    ASSERT_FALSE(cut.ok());
    EXPECT_EQ(cut.status().code(), StatusCode::DataLoss);

    // A NaN reference point is refused, not handed to the ParetoFront
    // constructor's assertion. The front's reference area is the last
    // copy of the area budget's bits in the record.
    auto bitsOf = [](double v) {
        std::string b(8, '\0');
        auto u = std::bit_cast<uint64_t>(v);
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<char>(u >> (8 * i));
        return b;
    };
    size_t ref = withFront.rfind(bitsOf(opts.areaBudgetMm2));
    ASSERT_NE(ref, std::string::npos);
    withFront.replace(ref, 8, bitsOf(std::nan("")));
    auto nan = dse::decodeCheckpoint(withFront);
    ASSERT_FALSE(nan.ok());
    EXPECT_NE(nan.status().message().find("pareto front header"),
              std::string::npos)
        << nan.status().toString();
}

/**
 * Whether @p bytes, a corrupted copy of the checkpoint file @p good,
 * load; a refusal must be DataLoss or InvalidArgument. A copy whose
 * file header ("DSCK" and the version byte) is intact is decoded in
 * memory, as loadCheckpoint decodes the rest of such a file; the
 * others are written to @p path and go through loadCheckpoint itself.
 */
bool
corruptCheckpointLoads(const std::string &path, const std::string &good,
                       const std::string &bytes)
{
    const size_t header = 5;
    bool intact = bytes.size() > header &&
                  bytes.compare(0, header, good, 0, header) == 0;
    if (!intact)
        writeBytes(path, bytes);
    auto r = intact
        ? dse::decodeCheckpoint(std::string_view(bytes).substr(header))
        : dse::loadCheckpoint(path);
    if (!r.ok()) {
        EXPECT_TRUE(r.status().code() == StatusCode::DataLoss ||
                    r.status().code() == StatusCode::InvalidArgument)
            << r.status().toString();
    }
    return r.ok();
}

TEST(Checkpoint, TruncationsAndByteFlipsLoadOrAreRefused)
{
    // Every prefix and every one-byte flip (all bits, the low bit, the
    // high bit) of a small Pareto checkpoint loads or is refused with
    // DataLoss or InvalidArgument; none crashes.
    auto opts = tinyDse();
    opts.pareto = true;
    std::string path = tmpPath("sweep");
    ASSERT_TRUE(
        dse::saveCheckpoint({"mm"}, opts, stateWithFront(opts), path).ok());
    const std::string good = readAll(path);
    auto loads = [&](const std::string &bytes) {
        return corruptCheckpointLoads(path, good, bytes);
    };
    for (size_t n = 0; n < good.size(); ++n)
        EXPECT_FALSE(loads(good.substr(0, n))) << n;
    size_t loaded = 0;
    std::string flipped = good;
    for (size_t i = 0; i < good.size(); ++i) {
        for (unsigned mask : {0xffu, 0x01u, 0x80u}) {
            flipped[i] = static_cast<char>(good[i] ^ mask);
            loaded += loads(flipped);
        }
        flipped[i] = good[i];
    }
    // Doubles and the RNG's digits take most flips.
    EXPECT_GT(loaded, 0u);
    std::remove(path.c_str());
}

/** The DseOptions fields a checkpoint and an init frame carry. */
#define DSE_SERIALIZED_OPTIONS(X)                                          \
    X(maxIters) X(noImproveExit) X(infeasibleExit) X(seed) X(schedIters)   \
    X(initSchedIters) X(useRepair) X(areaBudgetMm2) X(powerBudgetMw)       \
    X(unrollFactors) X(threads) X(candidateBatch) X(schedChains)           \
    X(checkpointPath) X(checkpointEvery) X(wallBudgetMs)                   \
    X(candidateTimeMs) X(memoize) X(dedupBatch) X(checkCostOracle)         \
    X(pareto) X(paretoFrontSize) X(structuredMoves)                        \
    X(powerObjectiveWeight) X(workers) X(cacheStoreDir)                    \
    X(workerRequestTimeoutMs)

#define COUNT_FIELD(f) +1
static_assert(0 DSE_SERIALIZED_OPTIONS(COUNT_FIELD) == 27);
#undef COUNT_FIELD

/** Every serialized option set to a value that is not its default. */
dse::DseOptions
everyOptionSet()
{
    dse::DseOptions o;
    o.maxIters = 11;
    o.noImproveExit = 12;
    o.infeasibleExit = 13;
    o.seed = 0xfedcba9876543210ull;
    o.schedIters = 14;
    o.initSchedIters = 15;
    o.useRepair = false;
    o.areaBudgetMm2 = 3.25;
    o.powerBudgetMw = 900.5;
    o.unrollFactors = {2, 8, 16};
    o.threads = 3;
    o.candidateBatch = 5;
    o.schedChains = 4;
    o.checkpointPath = "run.ckpt";
    o.checkpointEvery = 6;
    o.wallBudgetMs = -7; // int64s keep their sign bits too
    o.candidateTimeMs = int64_t(1) << 40;
    o.memoize = false;
    o.dedupBatch = false;
    o.checkCostOracle = true;
    o.pareto = true;
    o.paretoFrontSize = 9;
    o.structuredMoves = false;
    o.powerObjectiveWeight = 0.1;
    o.workers = 2;
    o.cacheStoreDir = "store.d";
    o.workerRequestTimeoutMs = 12345;
    return o;
}

void
expectSameOptions(const dse::DseOptions &a, const dse::DseOptions &b)
{
#define EXPECT_FIELD_EQ(f) EXPECT_EQ(a.f, b.f) << #f;
    DSE_SERIALIZED_OPTIONS(EXPECT_FIELD_EQ)
#undef EXPECT_FIELD_EQ
}

TEST(DseOptionsRecord, UnrollFactorsBelowOneAreDataLoss)
{
    // The explorer cannot run a version below unroll 1 (0 divides by
    // zero, a negative factor fails an assertion), so a checkpoint or
    // an init frame that holds one is corrupt, and says which factor.
    for (int bad : {0, -2}) {
        SCOPED_TRACE(bad);
        dse::DseOptions opts = tinyDse();
        opts.unrollFactors = {1, bad};
        const std::string named = "unroll factor " + std::to_string(bad);

        std::string path = tmpPath("unroll");
        ASSERT_TRUE(
            dse::saveCheckpoint({"mm"}, opts, dse::DseRunState{}, path).ok());
        auto ck = dse::loadCheckpoint(path);
        std::remove(path.c_str());
        ASSERT_FALSE(ck.ok());
        EXPECT_EQ(ck.status().code(), StatusCode::DataLoss);
        EXPECT_NE(ck.status().message().find(named), std::string::npos)
            << ck.status().toString();

        dse::WorkerFrame init;
        init.type = dse::FrameType::Init;
        init.workloads = {"mm"};
        init.options = opts;
        auto frame = dse::decodeFrame(dse::encodeFrame(init));
        ASSERT_FALSE(frame.ok());
        EXPECT_EQ(frame.status().code(), StatusCode::DataLoss);
        EXPECT_NE(frame.status().message().find(named), std::string::npos)
            << frame.status().toString();
    }
}

TEST(DseOptionsRecord, EveryFieldSurvivesCheckpointAndInitFrame)
{
    const dse::DseOptions set = everyOptionSet();
    const dse::DseOptions defaults;
#define EXPECT_FIELD_NE(f) EXPECT_NE(set.f, defaults.f) << #f;
    DSE_SERIALIZED_OPTIONS(EXPECT_FIELD_NE)
#undef EXPECT_FIELD_NE

    std::string path = tmpPath("options");
    ASSERT_TRUE(
        dse::saveCheckpoint({"mm"}, set, stateWithFront(set), path).ok());
    auto ck = dse::loadCheckpoint(path);
    ASSERT_TRUE(ck.ok()) << ck.status().toString();
    expectSameOptions(ck.value().options, set);
    std::remove(path.c_str());

    dse::WorkerFrame init;
    init.type = dse::FrameType::Init;
    init.workloads = {"mm"};
    init.options = set;
    auto frame = dse::decodeFrame(dse::encodeFrame(init));
    ASSERT_TRUE(frame.ok()) << frame.status().toString();
    expectSameOptions(frame.value().options, set);
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
    // the recorded checkpointPath option itself: its text and the
    // one-byte count in front of it.
    std::string a = readAll(refOpts.checkpointPath);
    std::string b = readAll(crashOpts.checkpointPath);
    size_t pa = a.find(tmpPath("ref"));
    size_t pb = b.find(tmpPath("crash"));
    ASSERT_NE(pa, std::string::npos);
    ASSERT_NE(pb, std::string::npos);
    a.replace(pa - 1, 1 + tmpPath("ref").size(), "X");
    b.replace(pb - 1, 1 + tmpPath("crash").size(), "X");
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
    size_t second = bytes.find("DSE2", 4);
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

TEST(CacheStore, SegmentTruncationsAndByteFlipsLoadOnlyWrittenRecords)
{
    // Every prefix and every one-byte flip (all bits, the low bit, the
    // high bit) of a three-record segment: loadInto never fails or
    // crashes, and every record it loads is one that was written.
    std::string dir = "robustness_store_sweep";
    rmTree(dir);
    std::vector<std::string> written;
    {
        dse::CacheStore store(dir);
        ASSERT_TRUE(store.open().ok());
        for (uint64_t i = 0; i < 3; ++i) {
            ASSERT_TRUE(store.append(synthKey(i), synthEntry(i)).ok());
            written.push_back(dse::encodeEvalEntry(synthKey(i),
                                                   synthEntry(i)));
        }
    }
    auto segs = segFiles(dir);
    ASSERT_EQ(segs.size(), 1u);
    const std::string path = dir + "/" + segs[0];
    const std::string good = readAll(path);
    size_t recordsSeen = 0;
    auto loadOnlyWritten = [&](const std::string &bytes) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << bytes;
        }
        dse::CacheStore reader(dir);
        dse::EvalCache cache;
        ASSERT_TRUE(reader.open().ok());
        ASSERT_TRUE(reader.loadInto(cache).ok());
        size_t found = 0;
        for (uint64_t i = 0; i < 3; ++i) {
            if (auto hit = cache.find(synthKey(i))) {
                ++found;
                EXPECT_EQ(dse::encodeEvalEntry(synthKey(i), *hit),
                          written[i]);
            }
        }
        // Nothing was loaded under a key that was not written.
        EXPECT_EQ(cache.size(), found);
        recordsSeen += found;
    };
    // Each corrupt region logs a warning; keep the test log readable.
    testing::internal::CaptureStderr();
    for (size_t n = 0; n <= good.size(); ++n)
        loadOnlyWritten(good.substr(0, n));
    std::string flipped = good;
    for (size_t i = 0; i < good.size(); ++i) {
        for (unsigned mask : {0xffu, 0x01u, 0x80u}) {
            flipped[i] = static_cast<char>(good[i] ^ mask);
            loadOnlyWritten(flipped);
        }
        flipped[i] = good[i];
    }
    testing::internal::GetCapturedStderr();
    EXPECT_GT(recordsSeen, 0u);
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

TEST(CacheStore, JsonPayloadSegmentFromOlderBuildIsQuarantinedAndRetired)
{
    // Builds before the binary codec wrote each record as the magic
    // "DSEC", the payload length, its xxhash64 and a JSON document. A
    // store they left behind must load as one quarantined region per
    // file and no records, and compaction must retire the file.
    std::string dir = "robustness_store_json";
    rmTree(dir);
    {
        dse::CacheStore store(dir);
        ASSERT_TRUE(store.open().ok());
        ASSERT_TRUE(store.append(synthKey(0), synthEntry(0)).ok());
    }
    pid_t dead = ::fork(); // the older build's writer, long gone
    ASSERT_GE(dead, 0);
    if (dead == 0)
        ::_exit(0);
    int ws = 0;
    ASSERT_EQ(::waitpid(dead, &ws, 0), dead);
    std::string legacy;
    for (int n = 0; n < 2; ++n) {
        std::string payload =
            "{\"fpHi\":\"" + std::to_string(n + 11) +
            "\",\"fpLo\":\"2\",\"lab\":\"3\",\"ctx\":\"4\",\"objective\":1,"
            "\"perf\":2,\"cost\":[0.5,100],\"tasks\":[{\"lowered\":true,"
            "\"legal\":false,\"cycles\":100}]}";
        uint64_t sum = xxhash64(payload.data(), payload.size(),
                                0x647361636163ull);
        legacy += "DSEC";
        for (int i = 0; i < 4; ++i)
            legacy.push_back(static_cast<char>(payload.size() >> (8 * i)));
        for (int i = 0; i < 8; ++i)
            legacy.push_back(static_cast<char>(sum >> (8 * i)));
        legacy += payload;
    }
    std::string legacyName = "seg-" + std::to_string(dead) + "-0.dsec";
    {
        std::ofstream out(dir + "/" + legacyName, std::ios::binary);
        out << legacy;
    }
    ASSERT_EQ(segFiles(dir).size(), 2u);

    dse::CacheStore reader(dir);
    ASSERT_TRUE(reader.open().ok());
    dse::EvalCache cache;
    ASSERT_TRUE(reader.loadInto(cache).ok());
    EXPECT_EQ(reader.stats().segmentsLoaded, 2u);
    EXPECT_EQ(reader.stats().recordsQuarantined, 1u);
    EXPECT_EQ(reader.stats().recordsLoaded, 1u);
    EXPECT_NE(cache.find(synthKey(0)), nullptr);

    auto compacted = reader.compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status().toString();
    EXPECT_TRUE(*compacted);
    // The compaction's rescan drops the region the load already
    // counted; it does not count (or log) it again.
    EXPECT_EQ(reader.stats().recordsQuarantined, 1u);
    auto segs = segFiles(dir);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_NE(segs[0], legacyName);
    dse::CacheStore after(dir);
    ASSERT_TRUE(after.open().ok());
    dse::EvalCache fresh;
    ASSERT_TRUE(after.loadInto(fresh).ok());
    EXPECT_EQ(after.stats().recordsQuarantined, 0u);
    EXPECT_EQ(after.stats().recordsLoaded, 1u);
    rmTree(dir);
}

// ---------------------------------------------------------------------
// Binary entry codec: every corruption decodes or is DataLoss (store
// records and worker frames carry these bytes)
// ---------------------------------------------------------------------

/** A real MachSuite evaluation with schedules, and the repair cache it
 *  leaves behind. */
struct RealEval
{
    dse::EvalKey key;
    std::shared_ptr<const dse::EvalCacheEntry> entry;
    dse::ScheduleCache schedules;
};

const RealEval &
realMachSuiteEval()
{
    static const RealEval real = [] {
        RealEval r;
        dse::Explorer ex(workloads::suiteWorkloads("MachSuite"), tinyDse());
        adg::Adg g = adg::buildDseInitial();
        r.key = ex.makeEvalKey(g, r.schedules, true);
        dse::WorkerEvalOutcome out = ex.evaluateDesign(g, r.schedules, true);
        EXPECT_TRUE(out.status.ok()) << out.status.toString();
        r.entry = out.entry;
        if (r.entry)
            ex.replayEvalEntry(*r.entry, r.schedules);
        return r;
    }();
    return real;
}

/**
 * Decode every truncation of @p bytes and every copy with one byte
 * flipped (all bits, the low bit, the high bit). A truncation must be
 * DataLoss; a flip must be DataLoss or decode to a value that encodes
 * back to exactly the flipped bytes. Returns how many flips decoded.
 */
template <typename Decode, typename Reencode>
size_t
sweepCorruptions(const std::string &bytes, Decode decode, Reencode reencode)
{
    auto whole = decode(bytes);
    EXPECT_TRUE(whole.ok()) << whole.status().toString();
    if (whole.ok()) {
        EXPECT_EQ(reencode(whole.value()), bytes);
    }
    for (size_t n = 0; n < bytes.size(); ++n) {
        auto r = decode(std::string_view(bytes).substr(0, n));
        EXPECT_FALSE(r.ok()) << "prefix of " << n << " bytes decoded";
        if (!r.ok()) {
            EXPECT_EQ(r.status().code(), StatusCode::DataLoss)
                << r.status().toString();
        }
    }
    size_t decoded = 0;
    std::string flipped = bytes;
    for (size_t i = 0; i < bytes.size(); ++i) {
        for (unsigned mask : {0xffu, 0x01u, 0x80u}) {
            flipped[i] = static_cast<char>(bytes[i] ^ mask);
            auto r = decode(flipped);
            if (r.ok()) {
                ++decoded;
                EXPECT_EQ(reencode(r.value()), flipped)
                    << "byte " << i << " ^ " << mask;
            } else {
                EXPECT_EQ(r.status().code(), StatusCode::DataLoss)
                    << r.status().toString();
            }
        }
        flipped[i] = bytes[i];
    }
    return decoded;
}

TEST(EntryCodec, EntryTruncationsAndByteFlipsDecodeOrAreDataLoss)
{
    const RealEval &real = realMachSuiteEval();
    ASSERT_NE(real.entry, nullptr);
    size_t legal = 0;
    for (const dse::EvalTaskOutcome &t : real.entry->tasks)
        legal += t.legal && !t.sched.regions.empty();
    ASSERT_GT(legal, 0u); // schedules are part of the sweep
    std::string bytes = dse::encodeEvalEntry(real.key, *real.entry);
    size_t decoded = sweepCorruptions(
        bytes, [](std::string_view b) { return dse::decodeEvalEntry(b); },
        [](const dse::EvalStoreRecord &rec) {
            return dse::encodeEvalEntry(rec.key, *rec.entry);
        });
    // Doubles and hashes take any bits, so some flips must decode.
    EXPECT_GT(decoded, 0u);
}

TEST(EntryCodec, ScheduleCacheTruncationsAndByteFlipsDecodeOrAreDataLoss)
{
    const RealEval &real = realMachSuiteEval();
    ASSERT_FALSE(real.schedules.empty());
    std::string bytes = dse::encodeScheduleCache(real.schedules);
    sweepCorruptions(
        bytes,
        [](std::string_view b) { return dse::decodeScheduleCache(b); },
        [](const dse::ScheduleCache &c) {
            return dse::encodeScheduleCache(c);
        });
}

/** The message of decoding @p bytes with @p decode, which must fail
 *  with DataLoss ("" when it decoded). */
template <typename Decode>
std::string
dataLossMessage(Decode decode, std::string_view bytes)
{
    auto r = decode(bytes);
    EXPECT_FALSE(r.ok());
    if (r.ok())
        return "";
    EXPECT_EQ(r.status().code(), StatusCode::DataLoss);
    return r.status().message();
}

TEST(EntryCodec, CraftedPayloadsAreDataLoss)
{
    auto entryLoss = [](std::string_view b) {
        return dataLossMessage(
            [](std::string_view x) { return dse::decodeEvalEntry(x); }, b);
    };
    auto cacheLoss = [](std::string_view b) {
        return dataLossMessage(
            [](std::string_view x) { return dse::decodeScheduleCache(x); },
            b);
    };
    const auto npos = std::string::npos;
    std::string entry = dse::encodeEvalEntry(synthKey(0), synthEntry(0));
    ASSERT_TRUE(dse::decodeEvalEntry(entry).ok());
    // The key (32 bytes) and four doubles (32 bytes) precede the task
    // count.
    std::string head = entry.substr(0, 64);

    EXPECT_NE(entryLoss("").find("truncated"), npos);
    // A count far beyond the input fails before anything is sized.
    EXPECT_NE(entryLoss(head + std::string(9, '\xff') + '\x01')
                  .find("exceeds"),
              npos); // 2^64-1 tasks
    EXPECT_NE(entryLoss(head + std::string(10, '\xff') + '\x01')
                  .find("overflows"),
              npos);
    EXPECT_NE(entryLoss(head + std::string("\x80\x00", 2)).find("non-minimal"),
              npos);
    EXPECT_NE(entryLoss(head + std::string("\x01\x04", 2) +
                        std::string(8, '\0'))
                  .find("undefined bits"),
              npos); // task flag bit 2
    EXPECT_NE(entryLoss(entry + '\0').find("trailing"), npos);

    // Repair-cache versions must strictly ascend and fit 32 bits.
    EXPECT_NE(cacheLoss(std::string("\x02\x02\x02\x00\x00\x02\x00", 7))
                  .find("out of order"),
              npos); // (1,1) then (0,1)
    EXPECT_NE(cacheLoss(std::string("\x02\x02\x02\x00\x02\x02\x00", 7))
                  .find("out of order"),
              npos); // (1,1) twice
    EXPECT_NE(cacheLoss(std::string("\x01\x80\x80\x80\x80\x40\x02\x00", 8))
                  .find("32 bits"),
              npos); // kernel 2^33
    // hasLegal with no schedule behind it.
    EXPECT_NE(cacheLoss(std::string("\x01\x00\x02\x01", 4)).find("truncated"),
              npos);
}

// ---------------------------------------------------------------------
// Worker-pipe frames: the same strict codec, every frame type swept
// ---------------------------------------------------------------------

/** One frame of each type, with every field of its layout filled. */
std::vector<dse::WorkerFrame>
frameOfEachType()
{
    std::vector<dse::WorkerFrame> frames(6);
    frames[0].type = dse::FrameType::Init;
    frames[0].workloads = {"mm", "crs"};
    frames[0].options = tinyDse();
    frames[1].type = dse::FrameType::Ready;
    frames[2].type = dse::FrameType::Error;
    frames[2].message = "not-found: worker: no workload 'x'";
    frames[3].type = dse::FrameType::Eval;
    frames[3].id = 7;
    frames[3].repair = true;
    frames[3].schedules = realMachSuiteEval().schedules;
    // The frame carries ADG text as opaque bytes; Adg::fromText
    // parses it after the frame has decoded.
    frames[3].cands = {"candidate 0", ""};
    frames[4].type = dse::FrameType::Result;
    frames[4].id = 7;
    frames[4].outcomes = {
        {Status(),
         {synthKey(1), std::make_shared<dse::EvalCacheEntry>(synthEntry(1))}},
        {Status::deadlineExceeded("candidate time cap"), {}},
    };
    frames[5].type = dse::FrameType::Shutdown;
    return frames;
}

TEST(WorkerFrame, TruncationsAndByteFlipsDecodeOrAreDataLoss)
{
    for (const dse::WorkerFrame &f : frameOfEachType()) {
        SCOPED_TRACE("frame type " + std::to_string(static_cast<int>(f.type)));
        sweepCorruptions(
            dse::encodeFrame(f),
            [](std::string_view b) { return dse::decodeFrame(b); },
            [](const dse::WorkerFrame &g) { return dse::encodeFrame(g); });
    }
}

TEST(WorkerFrame, RoundTripKeepsEveryField)
{
    auto frames = frameOfEachType();
    auto init = dse::decodeFrame(dse::encodeFrame(frames[0]));
    ASSERT_TRUE(init.ok()) << init.status().toString();
    EXPECT_EQ(init.value().workloads, frames[0].workloads);
    expectSameOptions(init.value().options, frames[0].options);

    auto eval = dse::decodeFrame(dse::encodeFrame(frames[3]));
    ASSERT_TRUE(eval.ok()) << eval.status().toString();
    EXPECT_EQ(eval.value().id, 7u);
    EXPECT_TRUE(eval.value().repair);
    EXPECT_EQ(eval.value().cands, frames[3].cands);
    EXPECT_EQ(dse::hashScheduleCache(eval.value().schedules),
              dse::hashScheduleCache(frames[3].schedules));

    auto result = dse::decodeFrame(dse::encodeFrame(frames[4]));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const auto &outs = result.value().outcomes;
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_TRUE(outs[0].status.ok());
    EXPECT_TRUE(outs[0].record.key == synthKey(1));
    ASSERT_NE(outs[0].record.entry, nullptr);
    EXPECT_EQ(outs[0].record.entry->objective, synthEntry(1).objective);
    EXPECT_EQ(outs[1].status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(outs[1].status.message(), "candidate time cap");
    EXPECT_EQ(outs[1].record.entry, nullptr);
}

TEST(WorkerFrame, CraftedFramesAreDataLoss)
{
    auto loss = [](const std::string &b) {
        return dataLossMessage(
            [](std::string_view x) { return dse::decodeFrame(x); }, b);
    };
    const auto npos = std::string::npos;
    const std::string id(8, '\0');
    EXPECT_NE(loss("").find("truncated"), npos);
    EXPECT_NE(loss(std::string(1, '\0')).find("unknown frame type"), npos);
    EXPECT_NE(loss("\x07").find("unknown frame type"), npos);
    EXPECT_NE(loss("\x06\x06").find("trailing"), npos); // shutdown + 1
    // An eval frame whose repair flag sets bit 1.
    EXPECT_NE(loss("\x04" + id + "\x02" + std::string(2, '\0'))
                  .find("undefined bits"),
              npos);
    // A result outcome whose status code is past the last one.
    EXPECT_NE(loss("\x05" + id + "\x01\x09" + std::string(1, '\0'))
                  .find("unknown status code"),
              npos);
    // Two outcomes announced, the bytes for one at most.
    EXPECT_NE(loss("\x05" + id + "\x02\x01" + std::string(1, '\0'))
                  .find("exceeds"),
              npos);
}

// ---------------------------------------------------------------------
// The codec's byte layout, pinned. Hand-built values, not scheduler
// output, so no scheduler change can move the hashes. Within each
// record, no two fields of one type hold the same value, so a walk
// that writes two fields in swapped order changes a hash.
// ---------------------------------------------------------------------

/** A schedule with two regions, every kind of route and -1 ids. */
mapper::Schedule
handBuiltSchedule()
{
    mapper::Schedule s;
    s.regions.resize(2);
    mapper::RegionSchedule &a = s.regions[0];
    a.vertexMap = {3, -1, 5};
    a.streamMap = {7, 8};
    a.vertexTime = {0, 2, 4, 6};
    a.routes[{2, 1}] = {11, 12, 13};
    a.routes[{4, 0}] = {};
    a.recurrenceRoutes[1] = {21, 22};
    s.regions[1].serialized = true;
    s.regions[1].vertexMap = {-1};
    s.forwardRoutes[0] = {31};
    s.forwardRoutes[3] = {32, 33};
    s.cost = {.unplaced = 1, .overuse = 2, .violations = 3, .maxIi = 4,
              .recurrenceLatency = 5, .wirelength = 6};
    return s;
}

/** Tasks lowered but not legal, legal with a schedule, and neither. */
dse::EvalCacheEntry
handBuiltEntry()
{
    dse::EvalCacheEntry e;
    e.objective = 0.75;
    e.perf = 1.25;
    e.cost = {2.5, 350.0};
    e.tasks.resize(3);
    e.tasks[0].lowered = true;
    e.tasks[0].cycles = 900;
    e.tasks[1] = {true, true, 400, handBuiltSchedule()};
    return e;
}

/** A legal version and an attempted-but-illegal marker. */
dse::ScheduleCache
handBuiltCache()
{
    dse::ScheduleCache c;
    c[{0, 4}] = {handBuiltSchedule(), true};
    c[{2, 1}].hasLegal = false;
    return c;
}

/** One frame of each type, the init frame with every option set. */
std::vector<dse::WorkerFrame>
handBuiltFrames()
{
    std::vector<dse::WorkerFrame> frames(6);
    frames[0].type = dse::FrameType::Init;
    frames[0].workloads = {"mm", "crs"};
    frames[0].options = everyOptionSet();
    frames[1].type = dse::FrameType::Ready;
    frames[2].type = dse::FrameType::Error;
    frames[2].message = "not-found: worker: no workload 'x'";
    frames[3].type = dse::FrameType::Eval;
    frames[3].id = 7;
    frames[3].repair = true;
    frames[3].schedules = handBuiltCache();
    frames[3].cands = {"candidate 0", ""};
    frames[4].type = dse::FrameType::Result;
    frames[4].id = 9;
    frames[4].outcomes = {
        {Status(),
         {synthKey(5),
          std::make_shared<dse::EvalCacheEntry>(handBuiltEntry())}},
        {Status::deadlineExceeded("candidate time cap"), {}},
    };
    frames[5].type = dse::FrameType::Shutdown;
    return frames;
}

/** A Pareto run state on default ADGs with every field set. */
dse::DseRunState
handBuiltState(const dse::DseOptions &opts)
{
    dse::DseRunState st;
    st.curObj = 0.625;
    st.iter = 17;
    st.noImprove = 3;
    st.infeasibleStreak = 4;
    st.acceptedSinceCkpt = 5;
    st.rng = Rng(99);
    st.schedules = handBuiltCache();
    dse::DseResult &r = st.result;
    r.bestObjective = 1.5;
    r.bestPerf = 2.25;
    r.bestCost = {3.5, 450.0};
    r.initialObjective = 0.5;
    r.initialCost = {4.5, 550.0};
    r.history = {{2, 1.1, 120.0, 1.3, 1.4, true, 60.5},
                 {3, 1.6, 130.0, 1.7, 1.8, false, 61.5}};
    r.evalFailures = 6;
    r.checkpointsWritten = 7;
    r.stopReason = "wall-clock";
    r.status = Status::deadlineExceeded("candidate time cap");
    st.front = dse::ParetoFront(opts.areaBudgetMm2, opts.powerBudgetMw,
                                opts.paretoFrontSize);
    st.front.add({adg::Adg(), 1.5, 2.0, 300.0, 0.5625, 7});
    st.front.add({adg::Adg(), 2.5, 3.0, 200.0, 0.75, 8});
    return st;
}

std::string
hashHex(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      xxhash64(bytes.data(), bytes.size())));
    return buf;
}

TEST(EntryCodec, LayoutIsPinned)
{
    const dse::DseOptions opts = everyOptionSet();
    ASSERT_TRUE(opts.pareto);
    std::vector<std::pair<std::string, std::string>> encodings = {
        {"entry", dse::encodeEvalEntry(synthKey(5), handBuiltEntry())},
        {"cache", dse::encodeScheduleCache(handBuiltCache())},
        {"checkpoint",
         dse::encodeCheckpoint({"mm", "crs"}, opts, handBuiltState(opts))},
    };
    for (const dse::WorkerFrame &f : handBuiltFrames())
        encodings.emplace_back(
            "frame " + std::to_string(static_cast<int>(f.type)),
            dse::encodeFrame(f));
    // everyOptionSet() gives several flags one value: flip each alone.
    dse::WorkerFrame init = handBuiltFrames()[0];
    std::string flips;
    for (bool dse::DseOptions::*flag :
         {&dse::DseOptions::useRepair, &dse::DseOptions::memoize,
          &dse::DseOptions::dedupBatch, &dse::DseOptions::checkCostOracle,
          &dse::DseOptions::pareto, &dse::DseOptions::structuredMoves}) {
        init.options.*flag = !(opts.*flag);
        flips += dse::encodeFrame(init);
        init.options.*flag = opts.*flag;
    }
    encodings.emplace_back("option flags", flips);

    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"entry", "d9d5c872afa49318"},
        {"cache", "2d17510a3584d6a3"},
        {"checkpoint", "928353dd252bca1c"},
        {"frame 1", "70fccb98aa59a0ad"},
        {"frame 2", "4b79b8c95732b0e7"},
        {"frame 3", "030706c84a3fb737"},
        {"frame 4", "5c8a8785d26c81c4"},
        {"frame 5", "04e6af9905cd6016"},
        {"frame 6", "5896bb9a27ab7ba5"},
        {"option flags", "8dbfe81d0db13eef"},
    };
    ASSERT_EQ(encodings.size(), pinned.size());
    for (size_t i = 0; i < pinned.size(); ++i) {
        EXPECT_EQ(encodings[i].first, pinned[i].first);
        EXPECT_EQ(hashHex(encodings[i].second), pinned[i].second)
            << encodings[i].first;
    }
}

// ---------------------------------------------------------------------
// Seeded mutation sweep: beyond the one-byte flips above, multi-byte
// overwrites, insertions and deletions, drawn from a fixed seed in a
// fixed count, so every run checks the same inputs
// ---------------------------------------------------------------------

constexpr int kSeededMutations = 4000;

/** @p bytes with 1 to 8 bytes overwritten, inserted or deleted at a
 *  position drawn from @p rng. */
std::string
mutant(const std::string &bytes, Rng &rng)
{
    std::string m = bytes;
    auto len = static_cast<size_t>(rng.uniformInt(1, 8));
    auto at = static_cast<size_t>(rng.uniformInt(0, int64_t(m.size()) - 1));
    std::string fresh(len, '\0');
    for (char &c : fresh)
        c = static_cast<char>(rng.uniformInt(0, 255));
    switch (rng.uniformInt(0, 2)) {
    case 0:
        fresh.resize(std::min(len, m.size() - at));
        m.replace(at, fresh.size(), fresh);
        break;
    case 1:
        m.insert(at, fresh);
        break;
    default:
        m.erase(at, len);
        break;
    }
    return m;
}

/** kSeededMutations mutants of @p bytes from @p seed each decode to a
 *  value that encodes back to exactly the mutant, or are DataLoss. */
template <typename Decode, typename Reencode>
void
sweepSeededMutations(const std::string &bytes, uint64_t seed, Decode decode,
                     Reencode reencode)
{
    Rng rng(seed);
    for (int i = 0; i < kSeededMutations; ++i) {
        std::string m = mutant(bytes, rng);
        auto r = decode(m);
        if (r.ok()) {
            EXPECT_EQ(reencode(r.value()), m) << "mutant " << i;
        } else {
            EXPECT_EQ(r.status().code(), StatusCode::DataLoss)
                << "mutant " << i << ": " << r.status().toString();
        }
    }
}

TEST(EntryCodec, SeededMutationsDecodeOrAreRefused)
{
    const RealEval &real = realMachSuiteEval();
    ASSERT_NE(real.entry, nullptr);
    sweepSeededMutations(
        dse::encodeEvalEntry(real.key, *real.entry), 1,
        [](std::string_view b) { return dse::decodeEvalEntry(b); },
        [](const dse::EvalStoreRecord &rec) {
            return dse::encodeEvalEntry(rec.key, *rec.entry);
        });
    sweepSeededMutations(
        dse::encodeScheduleCache(real.schedules), 2,
        [](std::string_view b) { return dse::decodeScheduleCache(b); },
        [](const dse::ScheduleCache &c) {
            return dse::encodeScheduleCache(c);
        });
    for (const dse::WorkerFrame &f : frameOfEachType()) {
        SCOPED_TRACE("frame type " + std::to_string(static_cast<int>(f.type)));
        sweepSeededMutations(
            dse::encodeFrame(f), 10 + static_cast<uint64_t>(f.type),
            [](std::string_view b) { return dse::decodeFrame(b); },
            [](const dse::WorkerFrame &g) { return dse::encodeFrame(g); });
    }

    // A checkpoint holds text other parsers read, so a mutant that
    // loads need not save back to the same bytes.
    auto opts = tinyDse();
    opts.pareto = true;
    std::string path = tmpPath("seeded");
    ASSERT_TRUE(
        dse::saveCheckpoint({"mm"}, opts, stateWithFront(opts), path).ok());
    const std::string good = readAll(path);
    Rng rng(3);
    for (int i = 0; i < kSeededMutations; ++i)
        corruptCheckpointLoads(path, good, mutant(good, rng));
    std::remove(path.c_str());
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

TEST(CacheStoreDse, MisshapenEntryIsEvaluatedNotReplayed)
{
    // A well-formed record whose task count does not fit the
    // explorer's (kernel, unroll) grid: here, one task stored under
    // the initial evaluation's key. The run must refuse it, evaluate
    // that design in-process, and finish with the storeless history.
    std::string dir = "robustness_store_misshapen";
    rmTree(dir);
    auto set = workloads::suiteWorkloads("PolyBench");
    auto opts = tinyDse();
    dse::Explorer ref(set, opts);
    auto refRes = ref.run(adg::buildDseInitial());
    {
        dse::CacheStore store(dir);
        ASSERT_TRUE(store.open().ok());
        ASSERT_TRUE(store
                        .append(ref.makeEvalKey(adg::buildDseInitial(), {},
                                                false),
                                synthEntry(0))
                        .ok());
    }
    auto storeOpts = opts;
    storeOpts.cacheStoreDir = dir;
    dse::Explorer ex(set, storeOpts);
    auto res = ex.run(adg::buildDseInitial());
    EXPECT_TRUE(res.status.ok()) << res.status.toString();
    EXPECT_EQ(res.stopReason, refRes.stopReason);
    expectSameHistory(refRes, res);
    EXPECT_EQ(refRes.best.toText(), res.best.toText());
    EXPECT_EQ(res.cacheStats.storeLoaded, 1u);
    // The refused record is the one lookup that hit here and missed
    // in the storeless run.
    EXPECT_EQ(res.cacheStats.evalHits, refRes.cacheStats.evalHits + 1);
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

TEST(MultiProcessDse, CoordinatorIsTheStoresOnlyWriter)
{
    // Workers evaluate with no store: the coordinator appends every
    // fresh outcome, its workers' included, to its one segment, and
    // the next run loads exactly what it appended.
    std::string dir = "robustness_store_workers";
    rmTree(dir);
    auto set = workloads::suiteWorkloads("PolyBench");
    auto opts = tinyDse();
    opts.maxIters = 12;
    opts.noImproveExit = 12;
    opts.candidateBatch = 4;
    opts.workers = 2;
    opts.cacheStoreDir = dir;
    dse::Explorer first(set, opts);
    auto a = first.run(adg::buildDseInitial());
    ASSERT_TRUE(a.status.ok()) << a.status.toString();
    EXPECT_GT(a.workerStats.dispatched, 0u);
    EXPECT_EQ(segFiles(dir).size(), 1u);
    // More than the coordinator's own two initial evaluations.
    EXPECT_GT(a.cacheStats.storeAppends, 2u);

    dse::Explorer second(set, opts);
    auto b = second.run(adg::buildDseInitial());
    EXPECT_EQ(b.cacheStats.storeLoaded, a.cacheStats.storeAppends);
    EXPECT_EQ(b.cacheStats.evalMisses, 0u);
    expectSameHistory(a, b);
    rmTree(dir);
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

TEST(MultiProcessDse, MisfiledReplyKeyIsRefusedAndRecovered)
{
    auto serial = runPoolDse(0, {}, 0, 12, 4);
    // Every worker process files its first reply entry under a key
    // with one bit flipped, restarted ones included. The coordinator
    // must refuse those replies as protocol errors, never memoize or
    // append them, and recover through the ladder.
    auto par = runPoolDse(2, {"DSA_FAULT=worker.reply.key:1"}, 0, 12, 4);
    expectSameHistory(serial, par);
    EXPECT_EQ(serial.best.toText(), par.best.toText());
    EXPECT_DOUBLE_EQ(serial.bestObjective, par.bestObjective);
    EXPECT_EQ(serial.stopReason, par.stopReason);
    EXPECT_GT(par.workerStats.redispatched + par.workerStats.degraded, 0u);
}

TEST(MultiProcessDse, StaleRequestOnRespawnedSlotIsRedispatchedNotAwaited)
{
    // Regression, kept for its walk through deaths and restarts: a
    // ladder that queued a second shard behind a live one on the same
    // pipe could respawn that slot in an earlier shard's recovery and
    // then await the queued request, which the new process never saw.
    // That case can no longer arise: a worker has at most one request
    // outstanding, and each deferred shard is sent and awaited before
    // the next one is sent, so a slot is respawned only when nothing
    // is outstanding on it.
    //
    // Every worker process dies at its 3rd candidate (the fault
    // counts candidates, and restarted processes re-arm), and the
    // batch sequence walks the pool deterministically into that
    // state. Batches 1+2 (one candidate per shard) bring both workers
    // to two evals. Batch 3 (one candidate) kills worker 0 on
    // receipt, then the retry kills worker 1 too, and the ladder
    // restarts slot 0 — leaving slot 1 dead and slot 0 fresh at one
    // eval. Batch 4 (two two-candidate shards) sends shard 0 to slot
    // 0 and defers shard 1; slot 0 dies at its 3rd eval, mid-request.
    // Shard 0 then recovers on a restarted slot 0. Shard 1 goes next
    // to that same worker, which dies at its 3rd eval, and recovers on
    // a restarted slot 1.
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

TEST(MultiProcessDse, WorkerExitsNonZeroOnAFrameItCannotServe)
{
    // An undecodable frame, one of a type a worker never receives, and
    // an eval before init each end the worker with code 1, so a
    // coordinator with the default unlimited timeout sees EOF instead
    // of waiting for a reply that will never come.
    dse::WorkerFrame ready;
    ready.type = dse::FrameType::Ready;
    dse::WorkerFrame eval;
    eval.type = dse::FrameType::Eval;
    const std::vector<std::string> payloads = {
        "\x7f", std::string("\x04\x01", 2), dse::encodeFrame(ready),
        dse::encodeFrame(eval)};
    for (const std::string &payload : payloads) {
        SCOPED_TRACE("payload of " + std::to_string(payload.size()) +
                     " bytes");
        Subprocess::Options so;
        so.argv = {Subprocess::selfExe(), dse::kWorkerArg};
        auto spawned = Subprocess::spawn(std::move(so));
        ASSERT_TRUE(spawned.ok()) << spawned.status().toString();
        std::unique_ptr<Subprocess> child = std::move(spawned.value());
        ASSERT_TRUE(child->writeFrame(payload).ok());
        auto ended = child->wait(Deadline::afterMs(60000));
        EXPECT_TRUE(ended.exited) << ended.describe();
        EXPECT_EQ(ended.code, 1);
    }
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
