#include "dse/explorer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "adg/subgraph.h"
#include "base/fault.h"
#include "base/hashing.h"
#include "base/logging.h"
#include "dse/cache_store.h"
#include "dse/checkpoint.h"
#include "dse/worker_pool.h"
#include "mapper/landmarks.h"
#include "model/host_model.h"
#include "model/perf_model.h"
#include "model/regression.h"
#include "sim/jit/jit_runtime.h"

namespace dsa::dse {

using adg::Adg;
using adg::AdgNode;
using adg::NodeId;
using adg::NodeKind;
using adg::Scheduling;
using adg::Sharing;
using adg::SyncDir;

namespace {

/** Copy pool counters (and its first transport error) into a result. */
void
mergeWorkerStats(const WorkerPoolStats &ws, DseResult &r)
{
    r.workerStats = ws;
    if (r.status.ok() && !ws.firstError.ok())
        r.status = ws.firstError;
}

} // namespace

Explorer::Explorer(std::vector<const workloads::Workload *> wls,
                   DseOptions opts)
    : workloads_(std::move(wls)), opts_(opts)
{
    DSA_ASSERT(!workloads_.empty(), "DSE needs at least one workload");
    // Warm the process-wide singletons (area/power fit, JIT runtime)
    // serially so pool workers only ever read them.
    model::AreaPowerModel::instance();
    jitStatsBase_ = sim::jit::JitRuntime::instance().stats();
    pool_ = std::make_unique<ThreadPool>(opts_.threads);
    // The golden runs behind every speedup's host baseline are
    // independent: spread them over the pool, each into its own slot.
    hostCycles_.resize(workloads_.size());
    pool_->parallelFor(workloads_.size(), [&](size_t k) {
        hostCycles_[k] = model::estimateHostCycles(
            workloads::runGolden(*workloads_[k]).stats);
    });
    // A parallelFor issued from inside any pool's task runs inline, so
    // a chain pool only runs chains when the schedulers are not pool_
    // tasks: when pool_ has one thread and runs its tasks inline.
    if (opts_.schedChains > 1 && pool_->threads() == 1)
        chainPool_ = std::make_unique<ThreadPool>(
            std::min(opts_.schedChains, ThreadPool::hardwareThreads()));
    if (opts_.memoize)
        compileCache_ = std::make_unique<compiler::CompileCache>();

    // Everything evaluateDesign reads besides (design, repair cache,
    // repair flag). Two Explorers with different workloads or shaping
    // options must never share eval-cache entries.
    uint64_t sig = 0x6473652d63747874ull; // "dse-ctxt"
    sig = hashCombine(sig, static_cast<uint64_t>(workloads_.size()));
    for (const auto *w : workloads_)
        sig = hashCombine(sig, w->name);
    sig = hashCombine(sig, static_cast<uint64_t>(opts_.unrollFactors.size()));
    for (int u : opts_.unrollFactors)
        sig = hashCombine(sig, static_cast<uint64_t>(u));
    sig = hashCombine(sig, opts_.seed);
    sig = hashCombine(sig, static_cast<uint64_t>(opts_.schedIters));
    sig = hashCombine(sig, static_cast<uint64_t>(opts_.initSchedIters));
    sig = hashCombine(sig, static_cast<uint64_t>(opts_.useRepair));
    // Chains change which schedule wins, so runs with different chain
    // counts must never share cached evaluations.
    sig = hashCombine(sig, static_cast<uint64_t>(opts_.schedChains));
    sig = hashCombine(sig, static_cast<uint64_t>(opts_.candidateTimeMs));
    // The power weight shapes the memoized objective, so caches from
    // runs with different weights must never share entries.
    sig = hashCombine(sig, std::bit_cast<uint64_t>(opts_.powerObjectiveWeight));
    workloadSig_ = sig;

    // The shared store only changes how often evaluations recompute,
    // never what they produce — so an unopenable store degrades to a
    // warning, not a failed exploration. Only a memoizing run loads or
    // appends it, so any other run leaves the directory alone.
    if (!opts_.cacheStoreDir.empty() && !opts_.memoize) {
        DSA_WARN("eval-cache store '", opts_.cacheStoreDir,
                 "' ignored: a run without memoization never loads or "
                 "appends it");
    } else if (!opts_.cacheStoreDir.empty()) {
        cacheStore_ = std::make_unique<CacheStore>(opts_.cacheStoreDir);
        Status s = cacheStore_->open();
        if (!s.ok()) {
            DSA_WARN("eval-cache store '", opts_.cacheStoreDir,
                     "' unavailable, continuing without it: ", s.toString());
            cacheStore_.reset();
        }
    }
}

Explorer::~Explorer() = default;

EvalKey
Explorer::makeEvalKey(const Adg &adg, const ScheduleCache &scheds,
                      bool repair) const
{
    return makeEvalKey(adg::canonicalKey(adg), hashScheduleCache(scheds),
                       repair);
}

EvalKey
Explorer::makeEvalKey(const adg::AdgKey &design, uint64_t schedulesHash,
                      bool repair) const
{
    uint64_t ctx = workloadSig_;
    ctx = hashCombine(ctx, schedulesHash);
    ctx = hashCombine(ctx, static_cast<uint64_t>(repair));
    return {design.structural, design.labeling, ctx};
}

model::ComponentCost
Explorer::priceFabric(const Adg &adg, bool tryIncremental)
{
    const auto &model = model::AreaPowerModel::instance();
    model::ComponentCost cost;
    if (!opts_.memoize)
        cost = model.fabric(adg);
    else if (tryIncremental && pricer_.bound())
        cost = pricer_.price(adg);
    else
        cost = model::fabricMemo(model, adg, costMemo_);
    if (opts_.checkCostOracle && opts_.memoize) {
        model::ComponentCost oracle = model.fabric(adg);
        DSA_ASSERT(cost.areaMm2 == oracle.areaMm2 &&
                       cost.powerMw == oracle.powerMw,
                   "memoized fabric cost diverged from the oracle: (",
                   cost.areaMm2, ", ", cost.powerMw, ") vs (", oracle.areaMm2,
                   ", ", oracle.powerMw, ")");
    }
    return cost;
}

bool
Explorer::isDegenerateFabric(const Adg &adg)
{
    return adg.aliveNodes(NodeKind::Pe).empty();
}

double
Explorer::scalarObjective(double perf,
                          const model::ComponentCost &cost) const
{
    double obj = perf * perf / std::max(1e-6, cost.areaMm2);
    // Weight 0 skips the factor entirely (not "multiplies by 1"): the
    // legacy objective stays bit-identical, pow() rounding included.
    if (opts_.powerObjectiveWeight != 0.0)
        obj /= std::pow(std::max(1e-6, cost.powerMw) / 1000.0,
                        opts_.powerObjectiveWeight);
    return obj;
}

void
Explorer::recordCacheStats(DseRunState &st)
{
    DseCacheStats cs;
    if (evalCache_) {
        EvalCacheStats s = evalCache_->stats();
        cs.evalHits = s.hits;
        cs.evalMisses = s.misses;
        cs.evalInserts = s.inserts;
        cs.evalEntries = evalCache_->size();
    }
    if (compileCache_) {
        compiler::CompileCacheStats s = compileCache_->stats();
        cs.placementHits = s.placementHits;
        cs.placementMisses = s.placementMisses;
        cs.lowerHits = s.lowerHits;
        cs.lowerMisses = s.lowerMisses;
    }
    model::CostMemoStats ms = costMemo_.stats();
    cs.costHits = ms.hits;
    cs.costMisses = ms.misses;
    cs.dedupCollapsed = dedupCollapsed_;
    if (cacheStore_) {
        CacheStoreStats ss = cacheStore_->stats();
        cs.storeLoaded = ss.recordsLoaded;
        cs.storeQuarantined = ss.recordsQuarantined;
        cs.storeAppends = ss.appends;
        cs.storeSegments = ss.segmentsLoaded;
    }
    st.result.cacheStats = cs;
}

void
Explorer::finalizeResult(DseRunState &st)
{
    st.result.front.clear();
    for (const ParetoPoint &p : st.front.points())
        st.result.front.push_back(
            {p.perf, p.areaMm2, p.powerMw, p.objective, p.iter});
    st.result.frontHypervolume = st.front.hypervolume();
    if (workerPool_)
        mergeWorkerStats(workerPool_->stats(), st.result);
    if (cacheStore_) {
        cacheStore_->flush();
        cacheStore_->maybeCompact();
    }
    st.result.jitStats =
        sim::jit::JitRuntime::instance().stats() - jitStatsBase_;
    {
        std::lock_guard<std::mutex> lk(schedStatsMu_);
        st.result.schedStats = schedStats_;
    }
    recordCacheStats(st);
}

std::vector<std::string>
Explorer::workloadNames() const
{
    std::vector<std::string> names;
    names.reserve(workloads_.size());
    for (const auto *w : workloads_)
        names.push_back(w->name);
    return names;
}

void
Explorer::replayEvalEntry(const EvalCacheEntry &entry,
                          ScheduleCache &scheds) const
{
    // Task t is (kernel t / |unrolls|, unroll t % |unrolls|) — the
    // exact flattening evaluateDesign builds its task list with.
    size_t nu = opts_.unrollFactors.size();
    for (size_t t = 0; t < entry.tasks.size(); ++t) {
        const EvalTaskOutcome &out = entry.tasks[t];
        if (!out.lowered)
            continue;
        int k = static_cast<int>(t / nu);
        int u = opts_.unrollFactors[t % nu];
        auto &e = scheds[{k, u}];
        if (out.legal) {
            e.sched = out.sched;
            e.hasLegal = true;
        }
    }
}

void
Explorer::startEvalCache()
{
    // Warm before the very first evaluation: entries earlier runs and
    // other processes banked in the shared store are work this run
    // never redoes.
    evalCache_ = opts_.memoize ? std::make_unique<EvalCache>() : nullptr;
    if (!evalCache_ || !cacheStore_)
        return;
    Status s = cacheStore_->loadInto(*evalCache_);
    if (!s.ok())
        DSA_WARN("eval-cache store '", opts_.cacheStoreDir,
                 "' load failed, continuing cold: ", s.toString());
}

WorkerEvalOutcome
Explorer::evaluateDesign(const Adg &adg, const ScheduleCache &scheds,
                         bool repair, const model::ComponentCost *knownCost)
{
    // The (kernel, unroll) grid as a flat, order-independent task
    // list. Each task compiles, schedules, and estimates on its own
    // against the read-only repair cache, and the outcome is reduced
    // in task order afterwards, so any thread count produces the same
    // result as serial execution.
    struct Task
    {
        int k = 0;
        int u = 1;
    };
    struct TaskOut
    {
        EvalTaskOutcome out;
        Status status;
        mapper::SchedStats schedStats;
    };
    std::vector<Task> tasks;
    for (size_t k = 0; k < workloads_.size(); ++k)
        for (int u : opts_.unrollFactors)
            tasks.push_back({static_cast<int>(k), u});

    auto features = compiler::HwFeatures::fromAdg(adg);
    compiler::CompileOptions copts;
    copts.unrollFactors = opts_.unrollFactors;
    uint64_t featuresFp = compiler::fingerprintFeatures(features);
    uint64_t coptsFp = compiler::fingerprintOptions(copts);

    // Placements depend only on (kernel, features): compute once per
    // kernel per design — not once per (kernel, unroll) task — and
    // share across candidates through the compile cache when enabled.
    std::vector<std::shared_ptr<const compiler::Placement>> placements(
        workloads_.size());
    for (size_t k = 0; k < workloads_.size(); ++k)
        placements[k] = placementFor(*workloads_[k], features, featuresFp);

    std::vector<TaskOut> outs(tasks.size());

    // One wall-clock cap for this whole design evaluation (unlimited
    // when candidateTimeMs is 0, so polling stays free). Once expired,
    // every remaining scheduler run cuts out immediately, so one
    // pathological candidate costs at most the cap.
    Deadline candDeadline = opts_.candidateTimeMs > 0
        ? Deadline::afterMs(opts_.candidateTimeMs)
        : Deadline::never();

    // One landmark-cache lookup per design instead of one per task:
    // every task schedules onto the same fabric, so hoisting the
    // shared table keeps pool workers off the cache mutex (and off
    // the per-construction fingerprint hash).
    std::shared_ptr<const mapper::LandmarkTable> sharedLandmarks =
        mapper::landmarksFor(adg, mapper::SchedOptions::routeBaseCost,
                             mapper::SchedOptions::routePePassCost);

    pool_->parallelFor(tasks.size(), [&](size_t t) {
        const Task &task = tasks[t];
        TaskOut &to = outs[t];
        EvalTaskOutcome &out = to.out;
        // Workers convert everything — fault-hook throws, compiler
        // StatusExceptions, scheduler timeouts — into to.status so
        // exceptions never tear down the pool or the exploration.
        try {
            if (opts_.evalFaultHook)
                opts_.evalFaultHook(task.k, task.u);
            const auto &w = *workloads_[static_cast<size_t>(task.k)];
            const compiler::Placement &placement =
                *placements[static_cast<size_t>(task.k)];
            // Lowering depends on the graph only through HwFeatures,
            // so candidates sharing features reuse lowered programs
            // (shared immutable values, keyed by features + options).
            std::shared_ptr<const compiler::LowerResult> lowered =
                lowerFor(w, placement, features, copts, task.u, featuresFp,
                         coptsFp);
            if (!lowered->ok)
                return;
            auto key = std::make_pair(task.k, task.u);
            auto prev = scheds.find(key);
            mapper::SchedOptions so;
            // First-ever mapping gets the full budget; afterwards the
            // per-step budget applies (repairing or re-discovering).
            so.maxIters = prev == scheds.end() ? opts_.initSchedIters
                                               : opts_.schedIters;
            so.convergeIters = std::max(8, so.maxIters / 5);
            // Hash, don't add: additive seeds collide across (k, u) pairs
            // and correlate the per-kernel scheduler streams.
            so.seed = mixSeed(opts_.seed, static_cast<uint64_t>(task.k),
                              static_cast<uint64_t>(task.u));
            so.deadline = candDeadline;
            so.chains = opts_.schedChains;
            so.chainPool = chainPool_.get();
            so.landmarks = sharedLandmarks;
            mapper::SpatialScheduler scheduler(lowered->version.program,
                                               adg, so);
            const mapper::Schedule *seedSched =
                (repair && prev != scheds.end() && prev->second.hasLegal)
                    ? &prev->second.sched
                    : nullptr;
            out.sched = scheduler.run(seedSched);
            to.schedStats = scheduler.stats();
            if (!scheduler.lastRunStatus().ok()) {
                // Timed out: the schedule is best-effort garbage; report
                // the timeout and contribute nothing to the outcome.
                to.status = scheduler.lastRunStatus();
                return;
            }
            auto est = model::estimatePerformance(lowered->version.program,
                                                  out.sched, adg);
            out.lowered = true;
            out.legal = est.legal;
            out.cycles = est.cycles;
            // Only a legal schedule is ever replayed as a repair seed.
            if (!out.legal)
                out.sched = {};
        } catch (...) {
            to.status = Status::fromCurrentException();
            out.lowered = false;
        }
    });

    // Deterministic serial reduction, in task order.
    Status evalStatus;
    std::vector<double> bestCycles(workloads_.size(), 1e30);
    auto entry = std::make_shared<EvalCacheEntry>();
    entry->tasks.resize(tasks.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
        TaskOut &to = outs[t];
        {
            std::lock_guard<std::mutex> lk(schedStatsMu_);
            schedStats_.merge(to.schedStats);
        }
        if (evalStatus.ok() && !to.status.ok())
            evalStatus = to.status;
        if (to.out.legal) {
            auto &best = bestCycles[static_cast<size_t>(tasks[t].k)];
            best = std::min(best, to.out.cycles);
        }
        entry->tasks[t] = std::move(to.out);
    }
    // A timed-out or faulted sweep is not a function of its inputs:
    // it has no outcome to memoize or replay.
    if (!evalStatus.ok())
        return {evalStatus, nullptr};

    double logSum = 0;
    for (size_t k = 0; k < workloads_.size(); ++k) {
        // A kernel that cannot map falls back to host execution
        // (speedup 1x) — offload is simply declined.
        double speedup = bestCycles[k] < 1e29
            ? hostCycles_[k] / bestCycles[k] : 1.0;
        speedup = std::max(speedup, 0.01);
        logSum += std::log(speedup);
    }
    entry->perf = std::exp(logSum / static_cast<double>(workloads_.size()));
    entry->cost = knownCost ? *knownCost : priceFabric(adg, false);
    // Degenerate (PE-less) fabrics score 0, never a clamp-inflated
    // perf^2/1e-6 — the exploration loop rejects them before costing,
    // this is the backstop for direct callers.
    entry->objective = isDegenerateFabric(adg)
        ? 0.0
        : scalarObjective(entry->perf, entry->cost);
    return {Status(), std::move(entry)};
}

void
Explorer::evaluateCandidates(std::vector<Candidate> &cands,
                             const std::vector<size_t> &leaders,
                             const ScheduleCache &base, bool repair)
{
    const size_t n = leaders.size();
    std::vector<WorkerEvalOutcome> outs(n);
    // Where each leader's outcome came from. Only outcomes evaluated
    // here are taken as they are.
    enum class From : char { Cache, Worker, Here };
    std::vector<From> from(n, From::Here);
    auto evaluateHere = [&](size_t e) {
        const Candidate &c = cands[leaders[e]];
        from[e] = From::Here;
        return evaluateDesign(c.adg, base, repair, &c.cost);
    };

    // 1. Look every leader up. All of them repair from base, so the
    //    repair-cache half of their keys is one hash.
    std::vector<EvalKey> keys(n);
    std::vector<size_t> misses;
    uint64_t baseHash = evalCache_ ? hashScheduleCache(base) : 0;
    for (size_t e = 0; e < n; ++e) {
        if (evalCache_) {
            keys[e] = makeEvalKey(cands[leaders[e]].canon, baseHash, repair);
            outs[e].entry = evalCache_->find(keys[e]);
        }
        if (outs[e].entry)
            from[e] = From::Cache;
        else
            misses.push_back(e);
    }

    // 2. Compute the misses: in worker subprocesses (whose ladder
    //    falls back to evaluating here), or here on pool_. With one
    //    miss its grid fans out over the pool instead; with several,
    //    the candidates do and each grid runs inline on its thread.
    //    A memoizing run checks every reply against the key it will
    //    be memoized and appended under.
    if (workerPool_ && !misses.empty()) {
        std::vector<const Adg *> ship;
        std::vector<EvalKey> shipKeys;
        for (size_t e : misses) {
            from[e] = From::Worker;
            ship.push_back(&cands[leaders[e]].adg);
            shipKeys.push_back(keys[e]);
        }
        auto replies = workerPool_->evaluateBatch(
            ship, base, repair,
            [&](size_t j) { return evaluateHere(misses[j]); },
            evalCache_ ? &shipKeys : nullptr);
        for (size_t j = 0; j < misses.size(); ++j)
            outs[misses[j]] = std::move(replies[j]);
    } else {
        pool_->parallelFor(misses.size(), [&](size_t j) {
            outs[misses[j]] = evaluateHere(misses[j]);
        });
    }

    // 3. Refuse what cannot be replayed as it is. A worker-side eval
    //    fault (e.g. a candidate timeout) is re-established here so
    //    its semantics match the in-process run exactly; an entry
    //    whose task count does not fit this explorer's (kernel,
    //    unroll) grid — a foreign or damaged store record, a bad
    //    reply — is never replayed, memoized or appended.
    const size_t grid = workloads_.size() * opts_.unrollFactors.size();
    std::vector<size_t> redo;
    for (size_t e = 0; e < n; ++e) {
        const WorkerEvalOutcome &o = outs[e];
        if (from[e] == From::Here || (o.status.ok() && o.entry &&
                                      o.entry->tasks.size() == grid))
            continue;
        if (o.entry)
            DSA_WARN("refusing an evaluation outcome with ",
                     o.entry->tasks.size(), " tasks for a ", grid,
                     "-task grid; evaluating in-process");
        redo.push_back(e);
    }
    pool_->parallelFor(redo.size(), [&](size_t j) {
        outs[redo[j]] = evaluateHere(redo[j]);
    });

    // 4. Memoize every fresh fault-free outcome, in leader order. The
    //    store gets it too, so other processes and future runs never
    //    re-pay it; append failures only cost warmth.
    if (evalCache_) {
        for (size_t e = 0; e < n; ++e) {
            if (from[e] == From::Cache || !outs[e].status.ok())
                continue;
            if (cacheStore_) {
                Status as = cacheStore_->append(keys[e], *outs[e].entry);
                if (!as.ok())
                    DSA_WARN("eval-cache store append failed: ",
                             as.toString());
            }
            evalCache_->insert(keys[e], outs[e].entry);
        }
    }

    // 5. Replay every outcome into its candidate, spread over pool_.
    pool_->parallelFor(n, [&](size_t e) {
        Candidate &c = cands[leaders[e]];
        const WorkerEvalOutcome &o = outs[e];
        c.evalStatus = o.status;
        if (!o.status.ok())
            return;
        c.cache = base;
        replayEvalEntry(*o.entry, c.cache);
        c.perf = o.entry->perf;
        c.objective = o.entry->objective;
        c.cost = o.entry->cost;
    });
}

std::shared_ptr<const compiler::Placement>
Explorer::placementFor(const workloads::Workload &w,
                       const compiler::HwFeatures &features,
                       uint64_t featuresFp) const
{
    if (compileCache_)
        return compileCache_->placementFor(w.name, w.kernel, features,
                                           featuresFp);
    return std::make_shared<const compiler::Placement>(
        compiler::Placement::autoLayout(w.kernel, features));
}

std::shared_ptr<const compiler::LowerResult>
Explorer::lowerFor(const workloads::Workload &w,
                   const compiler::Placement &placement,
                   const compiler::HwFeatures &features,
                   const compiler::CompileOptions &copts, int unroll,
                   uint64_t featuresFp, uint64_t coptsFp) const
{
    if (compileCache_)
        return compileCache_->lowerFor(w.name, w.kernel, placement, features,
                                       copts, unroll, featuresFp, coptsFp);
    return std::make_shared<const compiler::LowerResult>(
        compiler::lowerKernel(w.kernel, placement, features, copts, unroll));
}

void
Explorer::pruneUnused(Adg &adg) const
{
    // Which opcodes/features can any kernel version possibly use?
    auto features = compiler::HwFeatures::fromAdg(adg);
    compiler::CompileOptions copts;
    copts.unrollFactors = opts_.unrollFactors;
    uint64_t featuresFp = compiler::fingerprintFeatures(features);
    uint64_t coptsFp = compiler::fingerprintOptions(copts);
    OpSet used;
    bool needsJoin = false, needsIndirect = false, needsAtomic = false;
    for (const auto *w : workloads_) {
        std::shared_ptr<const compiler::Placement> placement =
            placementFor(*w, features, featuresFp);
        for (int u : opts_.unrollFactors) {
            std::shared_ptr<const compiler::LowerResult> lowered = lowerFor(
                *w, *placement, features, copts, u, featuresFp, coptsFp);
            if (!lowered->ok)
                continue;
            for (const auto &reg : lowered->version.program.regions) {
                for (const auto &vx : reg.dfg.vertices()) {
                    if (vx.kind != dfg::VertexKind::Instruction)
                        continue;
                    used.insert(vx.op);
                    needsJoin |= vx.ctrl.active();
                }
                for (const auto &st : reg.streams) {
                    needsIndirect |= st.needsIndirect();
                    needsAtomic |= st.needsAtomic();
                }
            }
        }
    }
    for (NodeId id : adg.aliveNodes(NodeKind::Pe)) {
        auto &pe = adg.node(id).pe();
        pe.ops = pe.ops & used;
        if (pe.ops.empty())
            pe.ops.insert(OpCode::Pass);
        if (!needsJoin)
            pe.streamJoin = false;
    }
    for (NodeId id : adg.aliveNodes(NodeKind::Memory)) {
        auto &mem = adg.node(id).mem();
        if (!needsIndirect)
            mem.indirect = false;
        if (!needsAtomic)
            mem.atomicUpdate = false;
    }
}

std::string
Explorer::mutate(Adg &adg, Rng &rng) const
{
    auto pes = adg.aliveNodes(NodeKind::Pe);
    auto switches = adg.aliveNodes(NodeKind::Switch);
    auto syncs = adg.aliveNodes(NodeKind::Sync);
    auto mems = adg.aliveNodes(NodeKind::Memory);

    // Cases 0-13 are flat parameter tweaks; 14-16 are SET-style
    // structured subgraph moves (grow/shrink a tile, clone a region,
    // rewire a sub-fabric), enabled by DseOptions::structuredMoves.
    switch (rng.uniformInt(0, opts_.structuredMoves ? 16 : 13)) {
      case 0: {  // add a PE near random switches
        if (switches.size() < 2)
            return "noop";
        adg::PeProps props = adg.node(rng.pick(pes)).pe();
        NodeId pe = adg.addPe(props);
        int fan = 2 + static_cast<int>(rng.uniformInt(0, 2));
        for (int i = 0; i < fan; ++i)
            adg.connect(rng.pick(switches), pe);
        adg.connect(pe, rng.pick(switches));
        return "add pe";
      }
      case 1: {  // remove a PE
        if (pes.size() <= 2)
            return "noop";
        adg.removeNode(rng.pick(pes));
        return "remove pe";
      }
      case 2: {  // add a switch stitched into the network
        if (switches.size() < 2)
            return "noop";
        adg::SwitchProps props = adg.node(rng.pick(switches)).sw();
        NodeId sw = adg.addSwitch(props);
        for (int i = 0; i < 2; ++i) {
            adg.connect(rng.pick(switches), sw);
            adg.connect(sw, rng.pick(switches));
        }
        return "add switch";
      }
      case 3: {  // remove a switch
        if (switches.size() <= 4)
            return "noop";
        adg.removeNode(rng.pick(switches));
        return "remove switch";
      }
      case 4: {  // add an edge (irregular connectivity)
        std::vector<NodeId> srcs = switches;
        for (NodeId p : pes)
            srcs.push_back(p);
        for (NodeId s : syncs)
            if (adg.node(s).sync().dir == SyncDir::Input)
                srcs.push_back(s);
        std::vector<NodeId> dsts = switches;
        for (NodeId p : pes)
            dsts.push_back(p);
        for (NodeId s : syncs)
            if (adg.node(s).sync().dir == SyncDir::Output)
                dsts.push_back(s);
        NodeId a = rng.pick(srcs), b = rng.pick(dsts);
        if (a == b || adg.findEdge(a, b) != adg::kInvalidEdge)
            return "noop";
        adg.connect(a, b);
        return "add edge";
      }
      case 5: {  // remove an edge (not touching memories)
        auto edges = adg.aliveEdges();
        for (int tries = 0; tries < 8; ++tries) {
            adg::EdgeId e = rng.pick(edges);
            const auto &edge = adg.edge(e);
            if (adg.node(edge.src).kind == NodeKind::Memory ||
                adg.node(edge.dst).kind == NodeKind::Memory)
                continue;
            adg.removeEdge(e);
            return "remove edge";
        }
        return "noop";
      }
      case 6: {  // toggle PE scheduling model
        auto &pe = adg.node(rng.pick(pes)).pe();
        if (pe.sched == Scheduling::Static) {
            pe.sched = Scheduling::Dynamic;
        } else {
            pe.sched = Scheduling::Static;
            pe.streamJoin = false;
        }
        return "toggle pe sched";
      }
      case 7: {  // toggle dedicated/shared
        auto &pe = adg.node(rng.pick(pes)).pe();
        if (pe.sharing == Sharing::Dedicated) {
            pe.sharing = Sharing::Shared;
            pe.maxInsts = 8;
        } else {
            pe.sharing = Sharing::Dedicated;
            pe.maxInsts = 1;
        }
        return "toggle pe sharing";
      }
      case 8: {  // grow/shrink a PE's FU repertoire by one class
        auto &pe = adg.node(rng.pick(pes)).pe();
        auto cls = static_cast<FuClass>(
            rng.uniformInt(0, kNumFuClasses - 1));
        bool add = rng.chance(0.5);
        for (int i = 0; i < kNumOpCodes; ++i) {
            auto op = static_cast<OpCode>(i);
            if (opInfo(op).fuClass != cls)
                continue;
            if (add)
                pe.ops.insert(op);
            else if (op != OpCode::Pass)
                pe.ops.erase(op);
        }
        if (pe.ops.empty())
            pe.ops.insert(OpCode::Pass);
        return add ? "add fu class" : "remove fu class";
      }
      case 9: {  // delay-fifo depth
        auto &pe = adg.node(rng.pick(pes)).pe();
        pe.delayFifoDepth = rng.chance(0.5)
            ? std::min(32, pe.delayFifoDepth * 2)
            : std::max(2, pe.delayFifoDepth / 2);
        return "resize delay fifo";
      }
      case 10: {  // sync element parameters
        auto &sy = adg.node(rng.pick(syncs)).sync();
        if (rng.chance(0.5))
            sy.lanes = static_cast<int>(rng.uniformInt(1, 4)) * 4;
        else
            sy.depth = rng.chance(0.5) ? std::min(64, sy.depth * 2)
                                       : std::max(2, sy.depth / 2);
        return "resize sync";
      }
      case 11: {  // scratchpad parameters (explored per §V-D)
        for (NodeId m : mems) {
            auto &mem = adg.node(m).mem();
            if (mem.kind != adg::MemKind::Scratchpad)
                continue;
            switch (rng.uniformInt(0, 3)) {
              case 0:
                mem.widthBytes = rng.chance(0.5)
                    ? std::min(256, mem.widthBytes * 2)
                    : std::max(16, mem.widthBytes / 2);
                break;
              case 1:
                mem.numBanks = rng.chance(0.5)
                    ? std::min(16, mem.numBanks * 2)
                    : std::max(1, mem.numBanks / 2);
                break;
              case 2:
                mem.capacityBytes = rng.chance(0.5)
                    ? std::min<int64_t>(1 << 18, mem.capacityBytes * 2)
                    : std::max<int64_t>(1 << 12, mem.capacityBytes / 2);
                break;
              default:
                mem.numStreamEngines = rng.chance(0.5)
                    ? std::min(24, mem.numStreamEngines + 2)
                    : std::max(2, mem.numStreamEngines - 2);
            }
            return "tune scratchpad";
        }
        return "noop";
      }
      case 12: {  // insert or remove a delay element
        auto delays = adg.aliveNodes(NodeKind::Delay);
        if (!delays.empty() && rng.chance(0.5)) {
            adg.removeNode(rng.pick(delays));
            return "remove delay";
        }
        if (switches.size() < 2)
            return "noop";
        adg::DelayProps props;
        props.depth = 4 << rng.uniformInt(0, 2);
        NodeId d = adg.addDelay(props);
        adg.connect(rng.pick(switches), d);
        adg.connect(d, rng.pick(switches));
        return "add delay";
      }
      case 13: {  // main-memory interface width (bandwidth share)
        for (NodeId m : mems) {
            auto &mem = adg.node(m).mem();
            if (mem.kind != adg::MemKind::Main)
                continue;
            mem.widthBytes = rng.chance(0.5)
                ? std::min(128, mem.widthBytes * 2)
                : std::max(16, mem.widthBytes / 2);
            return "tune main width";
        }
        return "noop";
      }
      case 14: {  // structured: grow or shrink a tile
        if (switches.size() < 2)
            return "noop";
        if (rng.chance(0.5)) {
            // Grow: clone a switch with up to two of its attached PEs
            // (their mutual links come along), then stitch the cloned
            // switch into the network — a proven tile replicated as
            // one move instead of rediscovered tweak by tweak.
            NodeId sw = rng.pick(switches);
            std::vector<NodeId> tile{sw};
            for (NodeId pe : adg::attachedPes(adg, sw)) {
                if (tile.size() >= 3)
                    break;
                tile.push_back(pe);
            }
            auto clone = adg::cloneSubgraph(adg, tile);
            NodeId swClone = clone.nodeMap.at(sw);
            adg.connect(rng.pick(switches), swClone);
            adg.connect(swClone, rng.pick(switches));
            return "grow tile";
        }
        // Shrink: retire a switch and up to two of its PEs together.
        if (switches.size() <= 4 || pes.size() <= 3)
            return "noop";
        NodeId sw = rng.pick(switches);
        int removed = 0;
        for (NodeId pe : adg::attachedPes(adg, sw)) {
            if (removed >= 2 ||
                static_cast<int>(pes.size()) - removed <= 2)
                break;
            adg.removeNode(pe);
            ++removed;
        }
        adg.removeNode(sw);
        return "shrink tile";
      }
      case 15: {  // structured: clone a region subgraph
        if (switches.size() < 2)
            return "noop";
        NodeId seed = rng.pick(switches);
        auto region = adg::fabricNeighborhood(adg, seed, /*radius=*/1,
                                              /*maxNodes=*/6);
        if (region.size() < 2)
            return "noop";
        auto clone = adg::cloneSubgraph(adg, region);
        // The seed is a switch, so the clone always has one to stitch
        // through: two feeds in, one drain out keeps it routable.
        std::vector<NodeId> clonedSw;
        for (const auto &[orig, copy] : clone.nodeMap)
            if (adg.node(copy).kind == NodeKind::Switch)
                clonedSw.push_back(copy);
        adg.connect(rng.pick(switches), rng.pick(clonedSw));
        adg.connect(rng.pick(switches), rng.pick(clonedSw));
        adg.connect(rng.pick(clonedSw), rng.pick(switches));
        return "clone region";
      }
      default: {  // structured: rewire a sub-fabric
        if (switches.size() < 3)
            return "noop";
        NodeId sw = rng.pick(switches);
        std::vector<adg::EdgeId> swOuts;
        for (adg::EdgeId e : adg.outEdges(sw))
            if (adg.node(adg.edge(e).dst).kind == NodeKind::Switch)
                swOuts.push_back(e);
        if (swOuts.empty())
            return "noop";
        // Retarget one or two of the switch's inter-switch links:
        // local topology change bigger than one edge, smaller than a
        // region clone.
        int n = swOuts.size() > 1 && rng.chance(0.5) ? 2 : 1;
        bool changed = false;
        for (int i = 0; i < n; ++i) {
            adg::EdgeId e = rng.pick(swOuts);
            NodeId dst = rng.pick(switches);
            if (!adg.edgeAlive(e) || dst == sw ||
                dst == adg.edge(e).dst ||
                adg.findEdge(sw, dst) != adg::kInvalidEdge)
                continue;
            adg.removeEdge(e);
            adg.connect(sw, dst);
            changed = true;
        }
        return changed ? "rewire fabric" : "noop";
      }
    }
}

DseResult
Explorer::run(const Adg &initial)
{
    DseRunState st;
    st.rng = Rng(opts_.seed);
    st.current = initial;
    startEvalCache();
    if (opts_.pareto)
        st.front = ParetoFront(opts_.areaBudgetMm2, opts_.powerBudgetMw,
                               std::max(2, opts_.paretoFrontSize));

    // Everything from here on reports errors as DseResult::status: a
    // worker exception, a corrupt workload, a compiler fault — none of
    // them may tear down an hours-long exploration process.
    try {
        // Iteration 0-1: map onto the initial hardware, then trim
        // features known to be unneeded (§VIII-B). Each is evaluated
        // by the batch step as a batch of one, and recorded as
        // accepted; the initial design must evaluate, or there is no
        // baseline to explore from.
        DseResult &result = st.result;
        auto evaluateCurrent = [&](int iter, bool repair) {
            std::vector<Candidate> one(1);
            Candidate &c = one[0];
            c.adg = st.current;
            c.cost = priceFabric(c.adg, false);
            if (evalCache_)
                c.canon = adg::canonicalKey(c.adg);
            evaluateCandidates(one, {0}, st.schedules, repair);
            if (c.evalStatus.ok()) {
                st.schedules = std::move(c.cache);
                if (opts_.pareto && !isDegenerateFabric(st.current))
                    st.front.add({st.current, c.perf, c.cost.areaMm2,
                                  c.cost.powerMw, c.objective, iter, 0});
                result.history.push_back(
                    {iter, c.cost.areaMm2, c.cost.powerMw, c.perf,
                     c.objective, true, st.front.hypervolume()});
            }
            return std::move(c);
        };
        auto fail = [&](const Status &s) {
            result.status = s;
            result.stopReason = "error";
            finalizeResult(st);
            return result;
        };

        Candidate first = evaluateCurrent(0, false);
        if (!first.evalStatus.ok())
            return fail(first.evalStatus);
        result.initialObjective = first.objective;
        result.initialCost = first.cost;

        pruneUnused(st.current);
        Candidate pruned = evaluateCurrent(1, opts_.useRepair);
        if (!pruned.evalStatus.ok())
            return fail(pruned.evalStatus);
        st.curObj = pruned.objective;
        result.best = st.current;
        result.bestObjective = pruned.objective;
        result.bestPerf = pruned.perf;
        result.bestCost = pruned.cost;

        return runLoop(st);
    } catch (...) {
        st.result.status = Status::fromCurrentException();
        st.result.stopReason = "error";
        finalizeResult(st);
        return st.result;
    }
}

DseResult
Explorer::resume(DseRunState state)
{
    try {
        startEvalCache();
        return runLoop(state);
    } catch (...) {
        state.result.status = Status::fromCurrentException();
        state.result.stopReason = "error";
        finalizeResult(state);
        return state.result;
    }
}

void
Explorer::writeCheckpoint(DseRunState &st)
{
    // Count the write *before* serializing so the file records itself;
    // a resumed run continues the numbering.
    ++st.result.checkpointsWritten;
    Status s = saveCheckpoint(workloadNames(), opts_, st,
                              opts_.checkpointPath);
    if (!s.ok())
        DSA_WARN("dse checkpoint to '", opts_.checkpointPath,
                 "' failed: ", s.toString());
}

DseResult
Explorer::runLoop(DseRunState &st)
{
    DseResult &result = st.result;
    Deadline wall = opts_.wallBudgetMs > 0
        ? Deadline::afterMs(opts_.wallBudgetMs)
        : Deadline::never();

    if (opts_.workers > 0 && !workerPool_) {
        WorkerPoolOptions wo;
        wo.workers = opts_.workers;
        wo.workloadNames = workloadNames();
        wo.dse = opts_;
        wo.dse.evalFaultHook = nullptr; // process-local, not shippable
        wo.extraEnv = opts_.workerEnv;
        wo.requestTimeoutMs = opts_.workerRequestTimeoutMs;
        workerPool_ = std::make_unique<WorkerPool>(std::move(wo));
        Status ps = workerPool_->start();
        if (!ps.ok()) {
            // The bottom of the degradation ladder: no subprocess at
            // all. Same results, one process, and a visible status.
            DSA_WARN("dse worker pool failed to start; evaluating "
                     "in-process: ", ps.toString());
            mergeWorkerStats(workerPool_->stats(), result);
            if (result.status.ok())
                result.status = ps;
            workerPool_.reset();
        }
    }

    // The incremental pricer is parent-relative: (re)bind it to the
    // design the batch mutates from, here and on every accepted step.
    if (opts_.memoize)
        pricer_.bind(st.current, model::AreaPowerModel::instance(),
                     costMemo_);

    // Candidates cheaply rejected before evaluation (structurally
    // invalid or over budget) must not trip the no-improvement exit —
    // they carry no evidence about the objective landscape. They get
    // their own consecutive-rejection cap to bound runtime instead.
    result.stopReason = "max-iters";
    while (st.iter < opts_.maxIters) {
        // Crash lever for kill-and-resume tests: die between steps,
        // exactly where a power loss would leave the last checkpoint
        // as the only surviving state.
        fault::maybeKill("dse.step.kill");
        if (st.noImprove >= opts_.noImproveExit) {
            result.stopReason = "no-improve";
            break;
        }
        if (st.infeasibleStreak >= opts_.infeasibleExit) {
            result.stopReason = "infeasible";
            break;
        }
        if (wall.expired()) {
            // The whole-run watchdog: stop cleanly with the best design
            // so far; the final checkpoint below makes this resumable.
            result.stopReason = "wall-clock";
            break;
        }

        // Draw a batch of mutants serially from the exploration RNG
        // (so the random stream is independent of batch/thread
        // configuration up to batching of the draw order).
        int batch = std::min(std::max(1, opts_.candidateBatch),
                             opts_.maxIters - st.iter);
        std::vector<Candidate> cands;
        cands.reserve(static_cast<size_t>(batch));
        for (int b = 0; b < batch; ++b) {
            Candidate c;
            c.adg = st.current;
            c.iter = st.iter + b;
            // "A random number of components are added or removed."
            int nMut = 1 + static_cast<int>(st.rng.uniformInt(0, 2));
            for (int m = 0; m < nMut; ++m)
                mutate(c.adg, st.rng);
            if (c.adg.validate().empty() && !isDegenerateFabric(c.adg)) {
                // Candidates differ from st.current by 1-3 mutations:
                // price them against the bound parent (re-predicting
                // only changed components) instead of walking the
                // whole fabric. Bit-identical to fabric() either way.
                c.cost = priceFabric(c.adg, /*tryIncremental=*/true);
                c.feasible = c.cost.areaMm2 <= opts_.areaBudgetMm2 &&
                             c.cost.powerMw <= opts_.powerBudgetMw;
            }
            cands.push_back(std::move(c));
        }
        st.iter += batch;

        // Each feasible candidate's canonical key is computed once, on
        // the pool: dedup groups candidates by it, and it is the
        // design half of their eval-cache keys.
        bool dedup = opts_.dedupBatch && batch > 1;
        if (dedup || evalCache_)
            pool_->parallelFor(cands.size(), [&](size_t i) {
                if (cands[i].feasible)
                    cands[i].canon = adg::canonicalKey(cands[i].adg);
            });

        // Identical mutants in one batch (noop mutations, coincident
        // draws, add/remove round-trips) would evaluate to identical
        // results — evaluateDesign is a pure function of (live graph,
        // incoming repair cache, options), and every batch member
        // starts from the same st.schedules. Collapse them onto the
        // first occurrence (keeping draw order deterministic) and copy
        // the leader's outcome afterwards.
        std::vector<size_t> evalIdx;
        std::vector<std::pair<size_t, size_t>> dups; // (copy, leader)
        if (dedup) {
            std::map<adg::AdgKey, size_t> seen;
            for (size_t i = 0; i < cands.size(); ++i) {
                if (!cands[i].feasible)
                    continue;
                auto [it, fresh] = seen.emplace(cands[i].canon, i);
                if (fresh)
                    evalIdx.push_back(i);
                else
                    dups.push_back({i, it->second});
            }
        } else {
            for (size_t i = 0; i < cands.size(); ++i)
                if (cands[i].feasible)
                    evalIdx.push_back(i);
        }

        // Evaluate the leaders, repairing from the current mapping.
        // Deduped leaders have pairwise-distinct keys and the
        // pre-batch cache state is fixed, so the step's lookups and
        // inserts are deterministic.
        evaluateCandidates(cands, evalIdx, st.schedules, opts_.useRepair);
        for (auto [copy, leader] : dups) {
            Candidate &c = cands[copy];
            const Candidate &l = cands[leader];
            c.cache = l.cache;
            c.perf = l.perf;
            c.objective = l.objective;
            c.cost = l.cost;
            c.evalStatus = l.evalStatus;
            ++dedupCollapsed_;
        }

        // Deterministic selection. Candidates that errored or timed
        // out are never selectable — their objective is untrustworthy.
        //
        // Scalar mode: best improving candidate, first in draw order
        // on ties. Pareto mode: every evaluated candidate is offered
        // to the front *serially in draw order* (the order is part of
        // the determinism contract — archive updates and pruning
        // tie-breaks depend on it); the accepted one is the candidate
        // whose insertion grew the front's hypervolume the most.
        int bestIdx = -1;
        if (opts_.pareto) {
            constexpr double kHvEps = 1e-12;
            double bestGain = kHvEps;
            for (size_t i = 0; i < cands.size(); ++i) {
                Candidate &c = cands[i];
                if (!c.feasible || !c.evalStatus.ok())
                    continue;
                // Copy the design: c.adg may later move into
                // st.current while the point lives on in the archive.
                auto out = st.front.add({c.adg, c.perf, c.cost.areaMm2,
                                         c.cost.powerMw, c.objective,
                                         c.iter, 0});
                if (out.hvGain > bestGain) {
                    bestGain = out.hvGain;
                    bestIdx = static_cast<int>(i);
                }
            }
        } else {
            for (size_t i = 0; i < cands.size(); ++i) {
                const Candidate &c = cands[i];
                if (!c.feasible || !c.evalStatus.ok())
                    continue;
                if (c.objective > st.curObj &&
                    (bestIdx < 0 ||
                     c.objective > cands[static_cast<size_t>(bestIdx)]
                                       .objective))
                    bestIdx = static_cast<int>(i);
            }
        }

        // The infeasible-exit counter measures *steps* the budget
        // pinned, not candidates: a batch with any evaluated member
        // resets it, a fully-infeasible batch advances it by exactly
        // one, so the exit threshold means the same wall-clock-bounded
        // thing at candidateBatch=1 and =32.
        bool sawInfeasible = false;
        int evaluated = 0;
        double hv = opts_.pareto ? st.front.hypervolume() : 0;
        for (size_t i = 0; i < cands.size(); ++i) {
            Candidate &c = cands[i];
            if (!c.feasible) {
                sawInfeasible = true;
                continue;
            }
            if (!c.evalStatus.ok()) {
                // Lost to an evaluation error or timeout: count it
                // toward the infeasible exit, remember the first
                // cause, and keep exploring.
                sawInfeasible = true;
                ++result.evalFailures;
                if (result.status.ok())
                    result.status = c.evalStatus;
                continue;
            }
            ++evaluated;
            result.history.push_back(
                {c.iter, c.cost.areaMm2, c.cost.powerMw, c.perf,
                 c.objective, static_cast<int>(i) == bestIdx, hv});
        }
        if (evaluated > 0)
            st.infeasibleStreak = 0;
        else if (sawInfeasible)
            ++st.infeasibleStreak;
        if (bestIdx >= 0) {
            Candidate &c = cands[static_cast<size_t>(bestIdx)];
            st.current = std::move(c.adg);
            st.schedules = std::move(c.cache);
            st.curObj = c.objective;
            if (opts_.memoize)
                pricer_.bind(st.current,
                             model::AreaPowerModel::instance(), costMemo_);
            if (c.objective > result.bestObjective) {
                result.best = st.current;
                result.bestObjective = c.objective;
                result.bestPerf = c.perf;
                result.bestCost = c.cost;
            }
            st.noImprove = 0;

            // Checkpoint cadence counts *accepted* steps: those are the
            // expensive-to-lose state changes (rejected steps only
            // advance the RNG, which the checkpoint also captures).
            ++st.acceptedSinceCkpt;
            if (!opts_.checkpointPath.empty() &&
                st.acceptedSinceCkpt >= opts_.checkpointEvery) {
                st.acceptedSinceCkpt = 0;
                writeCheckpoint(st);
                if (opts_.haltAfterCheckpoints > 0 &&
                    result.checkpointsWritten >=
                        opts_.haltAfterCheckpoints) {
                    // Test knob: emulate a crash right after the write.
                    result.stopReason = "halted";
                    finalizeResult(st);
                    return result;
                }
            }
        } else {
            st.noImprove += evaluated;
        }
    }

    // Final checkpoint so a finished (or wall-clock-stopped) run leaves
    // a consistent file behind; resuming it is a no-op continuation.
    if (!opts_.checkpointPath.empty())
        writeCheckpoint(st);
    if (opts_.simValidateBest)
        validateBest(result);
    finalizeResult(st);
    return result;
}

void
Explorer::validateBest(DseResult &result)
{
    // Every engine on every workload, each run timed on its own and
    // checked against the dense oracle run of the same workload.
    using sim::Engine;
    auto features = compiler::HwFeatures::fromAdg(result.best);
    for (const auto *w : workloads_) {
        auto golden = workloads::runGolden(*w);
        auto placement =
            compiler::Placement::autoLayout(w->kernel, features);
        auto lowered =
            compiler::lowerKernel(w->kernel, placement, features, {}, 1);
        if (!lowered.ok)
            continue;
        const auto &prog = lowered.version.program;
        auto sched = mapper::scheduleProgram(
            prog, result.best,
            {.maxIters = opts_.initSchedIters, .seed = opts_.seed});
        if (!sched.cost.legal())
            continue;

        // A run takes a millisecond or less, so one run per engine
        // swings with the host. Run rounds of every engine once, so
        // dense and jit sample the same stretches of host time: at
        // least kMinRounds, and more until every engine has
        // kMinTimedMs of timed runs. Each engine's fastest run counts.
        // The first jit run compiles the kernel and the registry serves
        // it to the later ones, so the fastest jit run is native code.
        constexpr int kMinRounds = 3;
        constexpr double kMinTimedMs = 20;
        constexpr Engine kEngines[] = {Engine::Dense, Engine::Sparse,
                                       Engine::Compiled, Engine::Jit};
        constexpr size_t kNumEngines = std::size(kEngines);
        std::array<double, kNumEngines> fastestMs;
        fastestMs.fill(std::numeric_limits<double>::infinity());
        std::array<double, kNumEngines> timedMs{};
        sim::SimResult denseRes;
        sim::MemImage denseImg;
        for (int round = 0;
             round < kMinRounds ||
             *std::min_element(timedMs.begin(), timedMs.end()) < kMinTimedMs;
             ++round) {
            for (size_t k = 0; k < kNumEngines; ++k) {
                auto img = sim::MemImage::build(w->kernel, golden.initial,
                                                placement);
                sim::SimOptions so = opts_.sim;
                so.engine = kEngines[k];
                so.checkAgainst.reset();
                // Validation runs are short: compile eagerly so the
                // native path is actually exercised.
                so.jitHotCycles = 0;
                auto t0 = std::chrono::steady_clock::now();
                auto res = sim::simulate(prog, sched, result.best, img, so);
                double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
                fastestMs[k] = std::min(fastestMs[k], ms);
                timedMs[k] += ms;
                // Every run is checked against the first dense run.
                if (k == 0 && round == 0) {
                    denseRes = std::move(res);
                    denseImg = std::move(img);
                    continue;
                }
                std::string diff =
                    sim::firstDivergence(denseRes, res, denseImg, img);
                if (!diff.empty() && result.status.ok())
                    result.status = Status::internal(
                        std::string(sim::engineName(kEngines[k])) +
                        "/dense simulator divergence on workload '" +
                        w->name + "' of the best design: " + diff);
            }
        }
        double denseMs = fastestMs.front();
        double jitMs = fastestMs.back();
        result.simSpeedups[w->name] = jitMs > 0 ? denseMs / jitMs : 0.0;
    }
}

} // namespace dsa::dse
