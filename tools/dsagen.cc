/**
 * @file
 * `dsagen` — command-line driver over the whole framework:
 *
 *   dsagen list-workloads               registered kernels
 *   dsagen list-targets                 prebuilt accelerators
 *   dsagen show-adg <target>            print an ADG (textual format)
 *   dsagen compile <workload> <target> [unroll]
 *                                       lower + print DFGs and the
 *                                       control program
 *   dsagen run <workload> <target> [unroll]
 *                                       full pipeline + utilization
 *                                       report + output validation
 *   dsagen dse <suite> [iters] [threads] [batch]
 *                                       explore (optionally in
 *                                       parallel), save the best
 *                                       design
 *   dsagen hwgen <target|file.adg> [out.v]
 *                                       config paths + Verilog
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "adg/prebuilt.h"
#include "base/files.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/table.h"
#include "base/thread_pool.h"
#include "compiler/codegen.h"
#include "compiler/compile.h"
#include "dfg/dfg_text.h"
#include "dse/checkpoint.h"
#include "dse/explorer.h"
#include "dse/worker_pool.h"
#include "hwgen/bitstream.h"
#include "hwgen/config_path.h"
#include "hwgen/verilog.h"
#include "mapper/landmarks.h"
#include "mapper/scheduler.h"
#include "model/host_model.h"
#include "model/perf_model.h"
#include "model/regression.h"
#include "sim/jit/jit_runtime.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace dsa;

namespace {

/**
 * Exit-code policy at the CLI boundary: configuration mistakes the
 * user can fix by editing the command line (bad names, missing files)
 * exit 2; runtime faults hit while doing the work (corrupt state,
 * timeouts, internal errors) exit 1.
 */
int
exitCodeFor(const Status &s)
{
    switch (s.code()) {
    case StatusCode::InvalidArgument:
    case StatusCode::NotFound:
        return 2;
    default:
        return 1;
    }
}

adg::Adg
loadTarget(const std::string &name)
{
    if (auto text = readFile(name); text.ok())
        return adg::Adg::fromText(*text);
    if (name == "softbrain")
        return adg::buildSoftbrain();
    if (name == "maeri")
        return adg::buildMaeri();
    if (name == "triggered")
        return adg::buildTriggered();
    if (name == "spu")
        return adg::buildSpu(5, 5);
    if (name == "revel")
        return adg::buildRevel();
    if (name == "dse_initial")
        return adg::buildDseInitial();
    if (name == "diannao")
        return adg::buildDianNaoLike();
    throw StatusException(Status::notFound(
        "unknown target '" + name + "' (and no such ADG file exists)" +
        suggestName(name, {"softbrain", "maeri", "triggered", "spu",
                           "revel", "dse_initial", "diannao"})));
}

/** Positional int argument @p what: all of @p v, at least @p lo. */
int
intPositional(const std::string &what, const std::string &v, int lo)
{
    auto n = parseNumber<int>(v);
    if (!n || *n < lo)
        throw StatusException(Status::invalidArgument(
            what + " needs an integer of at least " + std::to_string(lo) +
            ", got '" + v + "'"));
    return *n;
}

/** Write @p text to @p path durably; on failure print why and return 1. */
int
writeOutput(const std::string &path, const std::string &text,
            const char *what)
{
    if (Status s = writeFileAtomic(path, text); !s.ok()) {
        std::fprintf(stderr, "dsagen: %s\n", s.toString().c_str());
        return 1;
    }
    std::printf("%s %s\n", what, path.c_str());
    return 0;
}

int
cmdListWorkloads()
{
    Table t({"workload", "suite", "outputs", "fig10 target"});
    for (const auto &w : workloads::allWorkloads()) {
        std::string outs;
        for (const auto &o : w.outputs)
            outs += (outs.empty() ? "" : ",") + o;
        t.addRow({w.name, w.suite, outs, w.fig10Target});
    }
    t.print();
    return 0;
}

int
cmdListTargets()
{
    Table t({"target", "PEs", "dynamic", "shared", "switches",
             "indirect mem", "area (mm^2, est.)"});
    for (const char *name : {"softbrain", "maeri", "triggered", "spu",
                             "revel", "diannao", "dse_initial"}) {
        adg::Adg g = loadTarget(name);
        auto st = g.stats();
        bool indirect = false;
        for (adg::NodeId id : g.aliveNodes(adg::NodeKind::Memory))
            indirect |= g.node(id).mem().indirect;
        t.addRow({name, std::to_string(st.numPes),
                  std::to_string(st.numDynamicPes),
                  std::to_string(st.numSharedPes),
                  std::to_string(st.numSwitches),
                  indirect ? "yes" : "no",
                  Table::fmt(model::AreaPowerModel::instance()
                                 .fabric(g)
                                 .areaMm2,
                             3)});
    }
    t.print();
    return 0;
}

struct CompiledBundle
{
    adg::Adg hw;
    compiler::Placement placement{};
    dfg::DecoupledProgram prog;
    workloads::GoldenRun golden;
    const workloads::Workload *w = nullptr;
    bool ok = false;
};

CompiledBundle
compileBundle(const std::string &workload, const std::string &target,
              int unroll)
{
    CompiledBundle b;
    auto w = workloads::findWorkload(workload);
    if (!w.ok())
        throw StatusException(w.status());
    b.w = *w;
    b.hw = loadTarget(target);
    b.golden = workloads::runGolden(*b.w);
    auto features = compiler::HwFeatures::fromAdg(b.hw);
    b.placement = compiler::Placement::autoLayout(b.w->kernel, features);
    auto r = compiler::lowerKernel(b.w->kernel, b.placement, features, {},
                                   unroll);
    if (!r.ok) {
        std::fprintf(stderr, "lowering failed: %s\n", r.error.c_str());
        return b;
    }
    b.prog = r.version.program;
    b.ok = true;
    for (const auto &note : r.version.notes)
        std::printf("note: %s\n", note.c_str());
    return b;
}

int
cmdCompile(const std::string &workload, const std::string &target,
           int unroll)
{
    auto b = compileBundle(workload, target, unroll);
    if (!b.ok)
        return 1;
    for (const auto &reg : b.prog.regions) {
        std::printf("\n%s%s\n", dfg::regionToText(reg).c_str(),
                    reg.serialized ? "# (serialized on control core)\n"
                                   : "");
    }
    auto sched = mapper::scheduleProgram(b.prog, b.hw,
                                         {.maxIters = 1500, .seed = 7});
    std::printf("schedule: %s (overuse=%d, violations=%d, II=%d)\n",
                sched.cost.legal() ? "legal" : "ILLEGAL",
                sched.cost.overuse, sched.cost.violations,
                sched.cost.maxIi);
    compiler::CommandStats stats;
    std::printf("\n%s", compiler::emitControlProgram(b.prog, sched, b.hw,
                                                     &stats)
                            .c_str());
    std::printf("\n(%d config, %d stream, %d barrier commands)\n",
                stats.configCommands, stats.streamCommands,
                stats.barrierCommands);
    return sched.cost.legal() ? 0 : 1;
}

/** The JIT counters, one line (two when a build degraded), each line
 *  starting with @p indent; nothing when no kernel was requested. */
void
printJitStats(const sim::jit::JitStats &js, const char *indent)
{
    if (js.requests == 0)
        return;
    std::printf("%sjit kernels: %lld compiled (%.1f ms), %lld of %lld "
                "requests served natively\n",
                indent, static_cast<long long>(js.compiles), js.compileMs,
                static_cast<long long>(js.memHits),
                static_cast<long long>(js.requests));
    if (js.compileFailures + js.dlopenFailures > 0)
        std::printf("%sjit degrades: %lld compile failures, %lld dlopen "
                    "failures\n",
                    indent, static_cast<long long>(js.compileFailures),
                    static_cast<long long>(js.dlopenFailures));
}

int
cmdRun(const std::string &workload, const std::string &target, int unroll,
       const sim::SimOptions &simOpts, bool simStats)
{
    auto b = compileBundle(workload, target, unroll);
    if (!b.ok)
        return 1;
    auto sched = mapper::scheduleProgram(b.prog, b.hw,
                                         {.maxIters = 2500, .seed = 7});
    if (!sched.cost.legal()) {
        std::fprintf(stderr, "schedule illegal (overuse=%d viol=%d)\n",
                     sched.cost.overuse, sched.cost.violations);
        return 1;
    }
    auto est = model::estimatePerformance(b.prog, sched, b.hw);
    auto img = sim::MemImage::build(b.w->kernel, b.golden.initial,
                                    b.placement);
    auto res = sim::simulate(b.prog, sched, b.hw, img, simOpts);
    if (!res.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     res.error.c_str());
        return 1;
    }
    ir::ArrayStore out = b.golden.initial;
    img.extract(b.w->kernel, b.placement, out);
    std::string mismatch =
        workloads::checkOutputs(*b.w, b.golden.final, out);
    std::printf("estimated cycles: %.0f\n", est.cycles);
    std::printf("%s", sim::utilizationReport(res, b.hw).c_str());
    if (simStats) {
        int64_t total = res.cyclesCompiled + res.cyclesGeneric +
                        res.cyclesSkipped;
        auto pct = [&](int64_t n) {
            return total ? 100.0 * static_cast<double>(n) /
                               static_cast<double>(total)
                         : 0.0;
        };
        std::printf("\nengine breakdown (%lld wall cycles):\n",
                    static_cast<long long>(total));
        std::printf("  compiled steady-state: %12lld (%5.1f%%)\n",
                    static_cast<long long>(res.cyclesCompiled),
                    pct(res.cyclesCompiled));
        std::printf("    of which replayed:   %12lld (%5.1f%%)\n",
                    static_cast<long long>(res.cyclesReplayed),
                    pct(res.cyclesReplayed));
        std::printf("    of which jit-native: %12lld (%5.1f%%)\n",
                    static_cast<long long>(res.cyclesJit),
                    pct(res.cyclesJit));
        std::printf("  interpreted:           %12lld (%5.1f%%)\n",
                    static_cast<long long>(res.cyclesGeneric),
                    pct(res.cyclesGeneric));
        std::printf("  idle (skipped):        %12lld (%5.1f%%)\n",
                    static_cast<long long>(res.cyclesSkipped),
                    pct(res.cyclesSkipped));
        printJitStats(sim::jit::JitRuntime::instance().stats(), "  ");
    }
    double host = model::estimateHostCycles(b.golden.stats);
    std::printf("\nspeedup vs host model: %.2fx\n",
                host / static_cast<double>(res.cycles));
    std::printf("output check: %s\n",
                mismatch.empty() ? "PASS" : mismatch.c_str());
    return mismatch.empty() ? 0 : 1;
}

int
finishDse(const dse::DseResult &res, const std::string &savePath,
          bool schedStats = false)
{
    std::printf("objective %.3f -> %.3f (%.1fx), area %.3f -> %.3f "
                "mm^2, power %.1f -> %.1f mW\n",
                res.initialObjective, res.bestObjective,
                res.bestObjective / std::max(1e-9, res.initialObjective),
                res.initialCost.areaMm2, res.bestCost.areaMm2,
                res.initialCost.powerMw, res.bestCost.powerMw);
    std::printf("stopped: %s (%d eval failures", res.stopReason.c_str(),
                res.evalFailures);
    if (res.checkpointsWritten > 0)
        std::printf(", %d checkpoints", res.checkpointsWritten);
    std::printf(")\n");
    if (!res.status.ok())
        std::fprintf(stderr, "first evaluation error: %s\n",
                     res.status.toString().c_str());
    const dse::DseCacheStats &cs = res.cacheStats;
    if (cs.evalHits + cs.evalMisses + cs.placementHits + cs.placementMisses +
            cs.lowerHits + cs.lowerMisses + cs.costHits + cs.costMisses >
        0) {
        auto pct = [](uint64_t hits, uint64_t misses) {
            uint64_t total = hits + misses;
            return total ? 100.0 * static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
        };
        std::printf("eval cache: %llu hits / %llu misses (%.0f%%, %llu "
                    "entries)\n",
                    static_cast<unsigned long long>(cs.evalHits),
                    static_cast<unsigned long long>(cs.evalMisses),
                    pct(cs.evalHits, cs.evalMisses),
                    static_cast<unsigned long long>(cs.evalEntries));
        std::printf("compile cache: placement %llu/%llu hits, lowering "
                    "%llu/%llu hits\n",
                    static_cast<unsigned long long>(cs.placementHits),
                    static_cast<unsigned long long>(cs.placementHits +
                                                    cs.placementMisses),
                    static_cast<unsigned long long>(cs.lowerHits),
                    static_cast<unsigned long long>(cs.lowerHits +
                                                    cs.lowerMisses));
        std::printf("cost memo: %llu hits / %llu misses; batch duplicates "
                    "collapsed: %llu\n",
                    static_cast<unsigned long long>(cs.costHits),
                    static_cast<unsigned long long>(cs.costMisses),
                    static_cast<unsigned long long>(cs.dedupCollapsed));
    }
    if (cs.storeLoaded + cs.storeAppends + cs.storeSegments > 0)
        std::printf("cache store: %llu records loaded from %llu segments, "
                    "%llu appended, %llu quarantined\n",
                    static_cast<unsigned long long>(cs.storeLoaded),
                    static_cast<unsigned long long>(cs.storeSegments),
                    static_cast<unsigned long long>(cs.storeAppends),
                    static_cast<unsigned long long>(cs.storeQuarantined));
    const dse::WorkerPoolStats &ws = res.workerStats;
    if (ws.spawned > 0) {
        std::printf("workers: %llu spawned, %llu shards dispatched",
                    static_cast<unsigned long long>(ws.spawned),
                    static_cast<unsigned long long>(ws.dispatched));
        if (ws.deaths + ws.timeouts + ws.restarts + ws.redispatched +
                ws.degraded >
            0)
            std::printf(" (%llu deaths, %llu timeouts, %llu restarts, "
                        "%llu redispatched, %llu degraded in-process)",
                        static_cast<unsigned long long>(ws.deaths),
                        static_cast<unsigned long long>(ws.timeouts),
                        static_cast<unsigned long long>(ws.restarts),
                        static_cast<unsigned long long>(ws.redispatched),
                        static_cast<unsigned long long>(ws.degraded));
        std::printf("\n");
    }
    if (schedStats) {
        const mapper::SchedStats &ss = res.schedStats;
        std::printf("scheduler: %llu iterations over %llu chains, "
                    "%llu route calls\n",
                    static_cast<unsigned long long>(ss.iterations),
                    static_cast<unsigned long long>(ss.chainsRun),
                    static_cast<unsigned long long>(ss.routeCalls));
        std::printf("  route cache: %llu hits / %llu misses / %llu "
                    "stale; %llu A* + %llu dijkstra searches, %llu "
                    "nodes expanded\n",
                    static_cast<unsigned long long>(ss.cacheHits),
                    static_cast<unsigned long long>(ss.cacheMisses),
                    static_cast<unsigned long long>(ss.cacheStale),
                    static_cast<unsigned long long>(ss.astarSearches),
                    static_cast<unsigned long long>(ss.dijkstraSearches),
                    static_cast<unsigned long long>(ss.nodesExpanded));
        std::printf("  shared trees: %llu sssp builds / %llu hits, "
                    "%llu reverse builds / %llu hits; probe memo "
                    "%llu/%llu hits\n",
                    static_cast<unsigned long long>(ss.ssspBuilds),
                    static_cast<unsigned long long>(ss.ssspHits),
                    static_cast<unsigned long long>(ss.revBuilds),
                    static_cast<unsigned long long>(ss.revHits),
                    static_cast<unsigned long long>(ss.probeMemoHits),
                    static_cast<unsigned long long>(ss.probeMemoHits +
                                                    ss.probeMemoMisses));
        mapper::LandmarkCacheStats lc = mapper::landmarkCacheStats();
        std::printf("  landmark cache: %llu hits / %llu misses\n",
                    static_cast<unsigned long long>(lc.hits),
                    static_cast<unsigned long long>(lc.misses));
    }
    if (!res.front.empty()) {
        std::printf("pareto front (%zu points, hypervolume %.3f):\n",
                    res.front.size(), res.frontHypervolume);
        std::printf("  %8s %10s %10s %10s %6s\n", "perf", "area mm^2",
                    "power mW", "objective", "iter");
        for (const auto &p : res.front)
            std::printf("  %8.3f %10.4f %10.1f %10.3f %6d\n", p.perf,
                        p.areaMm2, p.powerMw, p.objective, p.iter);
    }
    if (!res.simSpeedups.empty()) {
        std::printf(
            "simulator validation on best design (dense==sparse=="
            "compiled==jit, wall-clock dense/jit, fastest run of "
            "each engine):\n");
        for (const auto &[name, sx] : res.simSpeedups)
            std::printf("  %-12s %.2fx\n", name.c_str(), sx);
    }
    printJitStats(res.jitStats, "");
    if (writeOutput(savePath, res.best.toText(), "design saved to") != 0)
        return 1;
    return res.stopReason == "error" ? 1 : 0;
}

int
cmdDse(int argc, char **argv)
{
    // Positional: <suite> [iters] [threads] [batch]. Flags may appear
    // anywhere after the command.
    std::vector<std::string> pos;
    std::string resumePath;
    dse::DseOptions flags;
    int threadsArg = -1;
    // Run settings that affect neither the RNG draws nor the
    // eval-context hash: multi-process transport, checkpointing, the
    // whole-run wall budget and the cache toggles. Like --threads they
    // apply to fresh and resumed runs alike, so each is tracked as
    // given or not (-1 / nullopt) and a resume overrides only what the
    // user asked for.
    int workersArg = -1;
    int64_t workerTimeoutArg = -1;
    std::optional<std::string> cacheStoreArg;
    std::optional<std::string> checkpointArg;
    int checkpointEveryArg = -1;
    std::optional<int64_t> wallBudgetArg;
    int memoizeArg = -1, dedupArg = -1, checkOracleArg = -1;
    // Flags that shape the search: fresh runs only. A resume refuses
    // them, since the checkpoint's values decide its RNG draws.
    std::vector<std::string> shapingFlags;
    bool schedStatsArg = false;
    static const std::vector<std::string> kFlags = {
        "--resume", "--checkpoint", "--checkpoint-every",
        "--wall-budget-ms", "--candidate-time-ms", "--threads",
        "--sched-chains", "--sched-stats", "--workers",
        "--worker-timeout-ms", "--cache-store", "--validate-sim",
        "--pareto", "--front-size", "--power-weight", "--no-structured",
        "--no-dedup", "--no-caches", "--check-cost-oracle"};
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw StatusException(
                    Status::invalidArgument("flag " + a + " needs a value"));
            return argv[++i];
        };
        auto badNumber = [&](const std::string &v) {
            return StatusException(Status::invalidArgument(
                "flag " + a + " needs a number, got '" + v + "'"));
        };
        auto intArg = [&]() -> int64_t {
            std::string v = value();
            auto n = parseNumber<int64_t>(v);
            if (!n)
                throw badNumber(v);
            return *n;
        };
        if (a == "--pareto" || a == "--front-size" ||
            a == "--power-weight" || a == "--no-structured" ||
            a == "--sched-chains" || a == "--candidate-time-ms")
            shapingFlags.push_back(a);
        if (a == "--resume") {
            resumePath = value();
        } else if (a == "--checkpoint") {
            checkpointArg = value();
        } else if (a == "--checkpoint-every") {
            checkpointEveryArg =
                std::max<int>(1, static_cast<int>(intArg()));
        } else if (a == "--wall-budget-ms") {
            wallBudgetArg = intArg();
        } else if (a == "--candidate-time-ms") {
            flags.candidateTimeMs = intArg();
        } else if (a == "--threads") {
            threadsArg = static_cast<int>(intArg());
        } else if (a == "--sched-chains") {
            flags.schedChains =
                std::max<int>(1, static_cast<int>(intArg()));
        } else if (a == "--sched-stats") {
            schedStatsArg = true;
        } else if (a == "--workers") {
            workersArg =
                std::max<int>(0, static_cast<int>(intArg()));
        } else if (a == "--worker-timeout-ms") {
            workerTimeoutArg = std::max<int64_t>(0, intArg());
        } else if (a == "--cache-store") {
            cacheStoreArg = value();
        } else if (a == "--validate-sim") {
            flags.simValidateBest = true;
        } else if (a == "--pareto") {
            flags.pareto = true;
        } else if (a == "--front-size") {
            flags.paretoFrontSize =
                std::max<int>(2, static_cast<int>(intArg()));
        } else if (a == "--power-weight") {
            std::string v = value();
            auto w = parseNumber<double>(v);
            if (!w)
                throw badNumber(v);
            flags.powerObjectiveWeight = *w;
        } else if (a == "--no-structured") {
            flags.structuredMoves = false;
        } else if (a == "--no-dedup") {
            dedupArg = 0;
        } else if (a == "--no-caches") {
            memoizeArg = dedupArg = 0;
        } else if (a == "--check-cost-oracle") {
            checkOracleArg = 1;
        } else if (!a.empty() && a[0] == '-' && !parseNumber<int64_t>(a)) {
            throw StatusException(Status::invalidArgument(
                "unknown dse flag '" + a + "'" + suggestName(a, kFlags)));
        } else {
            pos.push_back(a);
        }
    }
    // Only a memoizing run loads or appends a store, so the pair would
    // silently drop the store; refuse it on fresh and resumed runs.
    if (memoizeArg == 0 && cacheStoreArg)
        throw StatusException(Status::invalidArgument(
            "flags --no-caches and --cache-store conflict: a run without "
            "caches neither loads nor appends an eval-cache store"));
    auto applyRunFlags = [&](dse::DseOptions &o) {
        if (memoizeArg >= 0)
            o.memoize = memoizeArg != 0;
        if (dedupArg >= 0)
            o.dedupBatch = dedupArg != 0;
        if (checkOracleArg >= 0)
            o.checkCostOracle = checkOracleArg != 0;
        if (workersArg >= 0)
            o.workers = workersArg;
        if (workerTimeoutArg >= 0)
            o.workerRequestTimeoutMs = workerTimeoutArg;
        if (cacheStoreArg)
            o.cacheStoreDir = *cacheStoreArg;
        if (checkpointArg)
            o.checkpointPath = *checkpointArg;
        if (checkpointEveryArg >= 0)
            o.checkpointEvery = checkpointEveryArg;
        if (wallBudgetArg)
            o.wallBudgetMs = *wallBudgetArg;
    };
    applyRunFlags(flags);

    if (!resumePath.empty()) {
        // Continue a checkpointed run. The checkpoint restores the
        // options the run was started with (so the RNG draws line up);
        // only settings that never change results may be overridden.
        if (!pos.empty())
            throw StatusException(Status::invalidArgument(
                "dse --resume takes no suite or counts (got '" + pos[0] +
                "'); the checkpoint holds them"));
        if (!shapingFlags.empty())
            throw StatusException(Status::invalidArgument(
                "flag " + shapingFlags[0] +
                " shapes the search, so it cannot change on --resume "
                "(the checkpoint keeps its value)"));
        auto loaded = dse::loadCheckpoint(resumePath);
        if (!loaded.ok())
            throw StatusException(loaded.status());
        dse::DseCheckpoint ck = std::move(loaded.value());
        std::vector<const workloads::Workload *> set;
        for (const auto &n : ck.workloadNames) {
            auto w = workloads::findWorkload(n);
            if (!w.ok())
                throw StatusException(Status(
                    w.status().code(), "checkpoint '" + resumePath +
                                           "': " + w.status().message()));
            set.push_back(*w);
        }
        if (threadsArg > 0)
            ck.options.threads = threadsArg;
        // Like --threads, post-run validation never touches the RNG
        // stream, so it is safe to enable on a resumed run.
        if (flags.simValidateBest)
            ck.options.simValidateBest = true;
        applyRunFlags(ck.options);
        std::printf("resuming %s: iteration %d of %d, %d threads\n",
                    resumePath.c_str(), ck.state.iter,
                    ck.options.maxIters, ck.options.threads);
        dse::Explorer ex(set, ck.options);
        auto res = ex.resume(std::move(ck.state));
        return finishDse(res, resumePath + ".best.adg", schedStatsArg);
    }

    if (pos.empty()) {
        std::fprintf(stderr,
                     "dse needs a suite (or --resume <checkpoint>)\n");
        return 2;
    }
    const std::string &suite = pos[0];
    int iters = pos.size() > 1 ? intPositional("iters", pos[1], 1) : 200;
    int threads = pos.size() > 2 ? intPositional("threads", pos[2], 0) : 1;
    int batch = pos.size() > 3 ? intPositional("batch", pos[3], 1) : 1;
    if (pos.size() > 4)
        throw StatusException(Status::invalidArgument(
            "dse takes at most <suite> [iters] [threads] [batch], got '" +
            pos[4] + "'"));
    if (threadsArg > 0)
        threads = threadsArg;

    auto set = workloads::suiteWorkloads(suite);
    if (set.empty()) {
        std::vector<std::string> suites;
        for (const auto &w : workloads::allWorkloads())
            if (std::find(suites.begin(), suites.end(), w.suite) ==
                suites.end())
                suites.push_back(w.suite);
        std::fprintf(stderr, "unknown suite '%s'%s\n", suite.c_str(),
                     suggestName(suite, suites).c_str());
        return 2; // a configuration error, not a runtime fault
    }
    dse::DseOptions opts = flags;
    opts.maxIters = iters;
    opts.noImproveExit = iters;
    opts.schedIters = 40;
    opts.unrollFactors = {1, 4};
    opts.threads = threads > 0 ? threads : ThreadPool::hardwareThreads();
    opts.candidateBatch = batch;
    std::printf("exploring %s: %d iterations, %d threads, batch %d%s\n",
                suite.c_str(), iters, opts.threads, opts.candidateBatch,
                opts.pareto ? ", pareto" : "");
    if (!opts.checkpointPath.empty())
        std::printf("checkpointing to %s every %d accepted steps\n",
                    opts.checkpointPath.c_str(), opts.checkpointEvery);
    dse::Explorer ex(set, opts);
    auto res = ex.run(adg::buildDseInitial());
    return finishDse(res, "dsagen_" + suite + ".adg", schedStatsArg);
}

int
cmdHwgen(const std::string &target, const std::string &outPath)
{
    adg::Adg hw = loadTarget(target);
    auto paths = hwgen::generateConfigPaths(hw, 4, 300, 3);
    std::string problem = hwgen::validateConfigPaths(hw, paths);
    if (!problem.empty()) {
        std::fprintf(stderr, "config paths invalid: %s\n",
                     problem.c_str());
        return 1;
    }
    std::printf("config: %lld bits over %zu paths (longest %d hops)\n",
                static_cast<long long>(hwgen::totalConfigBits(hw)),
                paths.paths.size(), paths.maxLength());
    return writeOutput(outPath, hwgen::emitVerilog(hw, "dsagen_fabric", paths),
                       "Verilog written to");
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: dsagen <command> [...]\n"
        "  list-workloads | list-targets | show-adg <target>\n"
        "  compile <workload> <target> [unroll]\n"
        "  run <workload> <target> [unroll] [--sim-engine <engine>]\n"
        "      [--check-sim <engine>] [--sim-stats]\n"
        "      engines, slowest to fastest: dense, sparse, compiled, jit\n"
        "      --sim-engine <e>   simulator engine (default jit;\n"
        "                         DSA_SIM_ENGINE flips the default)\n"
        "      --check-sim <e>    also run reference engine e on a copy\n"
        "                         of memory; fail on any divergence\n"
        "      --sim-stats        per-engine wall-cycle breakdown\n"
        "                         (compiled / replayed / jit-native /\n"
        "                         interpreted / skipped) + jit kernel\n"
        "                         compiles and requests served natively\n"
        "  dse <suite> [iters] [threads] [batch]\n"
        "      threads: evaluation workers (0 = all cores); results\n"
        "      are identical for any thread count\n"
        "      --checkpoint <file>      crash-safe state snapshots\n"
        "      --checkpoint-every <n>   accepted steps per snapshot\n"
        "      --workers <n>            evaluate candidates in n crash-\n"
        "                               isolated worker subprocesses;\n"
        "                               results are bit-identical to\n"
        "                               --workers 0, even under worker\n"
        "                               crashes (supervised restart +\n"
        "                               in-process degradation)\n"
        "      --worker-timeout-ms <ms> per-shard reply watchdog: a\n"
        "                               stalled worker is killed and its\n"
        "                               shard re-evaluated elsewhere\n"
        "      --cache-store <dir>      shared on-disk eval-cache store\n"
        "                               (append-only checksummed segments;\n"
        "                               corrupt records are quarantined,\n"
        "                               never fatal)\n"
        "      --wall-budget-ms <ms>    whole-run wall-clock cap\n"
        "      --candidate-time-ms <ms> per-candidate evaluation cap\n"
        "      --sched-chains <k>       annealing chains per scheduling\n"
        "                               run (best legal schedule wins;\n"
        "                               deterministic for any thread\n"
        "                               count, 1 = single-chain legacy)\n"
        "      --sched-stats            print scheduler/routing counters\n"
        "                               (route cache, A*, shared trees,\n"
        "                               landmark cache) after the run\n"
        "      --validate-sim           simulate the best design on every\n"
        "                               engine, check each against dense\n"
        "                               and report dense/jit speedups\n"
        "                               (fastest of 3 runs each)\n"
        "      --pareto                 multi-objective search: keep a\n"
        "                               (perf, area, power) Pareto front\n"
        "                               and accept by hypervolume gain\n"
        "      --front-size <n>         Pareto archive bound (default 24)\n"
        "      --power-weight <w>       scalar objective power exponent:\n"
        "                               perf^2/(mm^2*(mW/1000)^w); 0 =\n"
        "                               legacy perf^2/mm^2 (default)\n"
        "      --no-structured          drop the structured subgraph\n"
        "                               mutations (tile grow/shrink,\n"
        "                               region clone, fabric rewire)\n"
        "      --no-dedup               disable batch deduplication\n"
        "      --no-caches              recompute everything: no eval\n"
        "                               cache, compile cache, cost memo\n"
        "                               or batch deduplication (refused\n"
        "                               with --cache-store)\n"
        "      --check-cost-oracle      verify memoized costs against\n"
        "                               the full model on every query\n"
        "  dse --resume <checkpoint> [--threads <n>] [--validate-sim]\n"
        "      continue a checkpointed run bit-identically. Flags that\n"
        "      never change results (threads, workers, cache store and\n"
        "      toggles, --checkpoint, --checkpoint-every,\n"
        "      --wall-budget-ms) may be overridden; search-shaping\n"
        "      flags and positionals are refused\n"
        "  hwgen <target|file.adg> [out.v]\n");
}

} // namespace

int
main(int argc, char **argv)
try {
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    // Re-exec'ed by a DSE coordinator: become a pure evaluation worker
    // speaking the frame protocol on stdin/stdout. Checked before
    // anything else so the marker can never collide with user commands.
    if (cmd == dse::kWorkerArg)
        return dse::workerMain();
    if (cmd == "list-workloads")
        return cmdListWorkloads();
    if (cmd == "list-targets")
        return cmdListTargets();
    if (cmd == "show-adg" && argc >= 3) {
        std::printf("%s", loadTarget(argv[2]).toText().c_str());
        return 0;
    }
    if (cmd == "compile" && argc >= 4)
        return cmdCompile(argv[2], argv[3],
                          argc >= 5 ? intPositional("unroll", argv[4], 1)
                                    : 1);
    if (cmd == "run" && argc >= 4) {
        int unroll = 1;
        bool simStats = false;
        sim::SimOptions simOpts;
        for (int i = 4; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--sim-engine" || a == "--check-sim") {
                if (i + 1 >= argc)
                    throw StatusException(Status::invalidArgument(
                        a + " needs an engine name"));
                Result<sim::Engine> e = sim::parseEngine(argv[++i]);
                if (!e.ok())
                    throw StatusException(e.status());
                if (a == "--sim-engine")
                    simOpts.engine = *e;
                else
                    simOpts.checkAgainst = *e;
            } else if (a == "--sim-stats") {
                simStats = true;
            } else {
                unroll = intPositional("unroll", a, 1);
            }
        }
        return cmdRun(argv[2], argv[3], unroll, simOpts, simStats);
    }
    if (cmd == "dse" && argc >= 3)
        return cmdDse(argc - 2, argv + 2);
    if (cmd == "hwgen" && argc >= 3)
        return cmdHwgen(argv[2], argc >= 4 ? argv[3] : "generated.v");
    usage();
    return 2;
} catch (const StatusException &e) {
    // The CLI boundary: library errors surface as StatusExceptions and
    // exit cleanly here — 2 for configuration mistakes (bad names,
    // missing files), 1 for runtime faults.
    std::fprintf(stderr, "dsagen: %s\n", e.status().toString().c_str());
    return exitCodeFor(e.status());
}
