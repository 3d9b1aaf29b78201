/**
 * @file
 * The three DSE workloads. An untraced rep is the production
 * `Explorer::run`, timed from outside. A traced rep is a serial walk
 * that re-drives the same exploration through the library's public
 * calls (mutate, makeEvalKey, EvalCache::find, the cost memo,
 * CompileCache, SpatialScheduler::run, estimatePerformance,
 * ParetoFront::add, CacheStore, WorkerPool) with a span around each,
 * mirroring Explorer::run and Explorer::evaluateDesign step for step.
 * Its trace digest must equal the production run's, which is what
 * makes its per-layer split an account of the production run.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "adg/fingerprint.h"
#include "adg/prebuilt.h"
#include "base/hashing.h"
#include "base/thread_pool.h"
#include "bench/e2e/e2e.h"
#include "compiler/compile_cache.h"
#include "dse/cache_store.h"
#include "dse/explorer.h"
#include "dse/worker_pool.h"
#include "mapper/landmarks.h"
#include "model/cost_cache.h"
#include "model/host_model.h"
#include "model/perf_model.h"
#include "model/regression.h"
#include "workloads/workload.h"

using namespace dsa;

namespace e2e {

using Json = dsa::json::Value;

namespace {

using Scope = Tracer::Scope;

const char *
suiteFor(const std::string &workload)
{
    return workload == "dse-pareto-workers" ? "DenseNN" : "MachSuite";
}

dse::DseOptions
optionsFor(const Spec &spec)
{
    int cores = std::min(4, ThreadPool::hardwareThreads());
    dse::DseOptions o;
    o.seed = spec.seed;
    o.schedIters = 40;
    o.initSchedIters = spec.smoke ? 200 : 2000;
    o.unrollFactors = {1, 4};
    o.candidateBatch = 4;
    if (spec.workload == "dse-pareto-workers") {
        o.maxIters = 240;
        o.pareto = true;
        o.paretoFrontSize = 16;
        o.threads = 1;
        o.workers = cores;
    } else {
        o.maxIters = 160;
        o.threads = cores;
    }
    if (spec.smoke)
        o.maxIters /= 10;
    o.noImproveExit = o.maxIters;
    o.cacheStoreDir = spec.storeDir;
    return o;
}

/** Hash of everything an exploration reports (trace, best, front). */
uint64_t
digest(const dse::DseResult &r)
{
    uint64_t h = 0x6532652d64696765ull;
    for (const dse::DseIterRecord &rec : r.history) {
        h = hashCombine(h, static_cast<uint64_t>(rec.iter));
        h = hashCombine(h, rec.areaMm2);
        h = hashCombine(h, rec.powerMw);
        h = hashCombine(h, rec.perf);
        h = hashCombine(h, rec.objective);
        h = hashCombine(h, static_cast<uint64_t>(rec.accepted));
        h = hashCombine(h, rec.hypervolume);
    }
    h = hashCombine(h, r.best.toText());
    h = hashCombine(h, r.bestObjective);
    return hashCombine(h, r.frontHypervolume);
}

/** Result fields shared by production reps and traced walks. */
Json
resultDoc(const Spec &spec, const dse::DseResult &r, int failures)
{
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest(r)));
    Json doc = Json::object();
    doc.set("candidates",
            Json::number(static_cast<int64_t>(r.history.size())));
    doc.set("digest", Json::str(hex));
    doc.set("failures", Json::number(static_cast<int64_t>(failures)));
    doc.set("quality", Json::number(spec.workload == "dse-pareto-workers"
                                        ? r.frontHypervolume
                                        : r.bestObjective));
    return doc;
}

Json
productionRep(const Spec &spec)
{
    dse::DseOptions opts = optionsFor(spec);
    auto wls = workloads::suiteWorkloads(suiteFor(spec.workload));
    adg::Adg initial = adg::buildDseInitial();

    auto t0 = Clock::now();
    dse::Explorer ex(wls, opts);
    double ctorS = secondsSince(t0);
    if (spec.setupOnly) {
        Json doc = Json::object();
        doc.set("ctor_s", Json::number(ctorS));
        return doc;
    }
    auto t1 = Clock::now();
    dse::DseResult r = ex.run(initial);
    double runS = secondsSince(t1);

    int failures = r.evalFailures +
                   static_cast<int>(r.workerStats.degraded) +
                   (r.status.ok() ? 0 : 1);
    Json doc = resultDoc(spec, r, failures);
    doc.set("ctor_s", Json::number(ctorS));
    doc.set("run_s", Json::number(runS));
    doc.set("eval_misses",
            Json::number(static_cast<int64_t>(r.cacheStats.evalMisses)));
    return doc;
}

/** The traced serial walk (see the file comment). */
class Walk
{
  public:
    Walk(const Spec &spec, Tracer &tr)
        : opts_(optionsFor(spec)), tr_(tr),
          wls_(workloads::suiteWorkloads(suiteFor(spec.workload)))
    {
    }

    dse::DseResult run();
    Metrics metrics() const;
    int failures() const { return failures_; }

  private:
    struct Candidate
    {
        adg::Adg adg;
        int iter = 0;
        bool feasible = false;
        model::ComponentCost cost;
        /** In: the repair cache to evaluate against; out: updated. */
        dse::ScheduleCache cache;
        double perf = 0;
        double objective = 0;
        Status evalStatus;
    };

    /**
     * Explorer::evaluateDesign, serially, with a span per layer call.
     * @p key, when non-null, is the precomputed eval key and skips the
     * cache lookup (the worker path looked up already).
     */
    void evaluate(const adg::Adg &adg, bool repair, Candidate &c,
                  const model::ComponentCost *knownCost,
                  const dse::EvalKey *key = nullptr);
    /** The worker-pool path for one batch's leaders. */
    void evaluateOnWorkers(std::vector<Candidate> &cands,
                           const std::vector<size_t> &evalIdx);
    void replayHit(Candidate &c, const dse::EvalCacheEntry &entry);
    model::ComponentCost priceFabric(const adg::Adg &adg,
                                     bool tryIncremental);
    void bindPricer(const adg::Adg &parent);

    dse::DseOptions opts_;
    Tracer &tr_;
    std::vector<const workloads::Workload *> wls_;
    std::vector<double> hostCycles_;
    std::unique_ptr<dse::Explorer> ex_;
    dse::EvalCache cache_;
    compiler::CompileCache compileCache_;
    model::ComponentCostMemo costMemo_;
    model::IncrementalFabricCost pricer_;
    std::unique_ptr<dse::CacheStore> store_;
    std::unique_ptr<dse::WorkerPool> pool_;
    /** Repair cache of the current design. */
    dse::ScheduleCache schedules_;
    mapper::SchedStats schedStats_;
    uint64_t schedRuns_ = 0;
    uint64_t schedLegal_ = 0;
    uint64_t dedupCollapsed_ = 0;
    double ipcOverheadS_ = 0;
    int failures_ = 0;
};

model::ComponentCost
Walk::priceFabric(const adg::Adg &adg, bool tryIncremental)
{
    Scope s(&tr_, "model.cost");
    if (tryIncremental && pricer_.bound())
        return pricer_.price(adg);
    return model::fabricMemo(model::AreaPowerModel::instance(), adg,
                             costMemo_);
}

void
Walk::bindPricer(const adg::Adg &parent)
{
    Scope s(&tr_, "model.cost");
    pricer_.bind(parent, model::AreaPowerModel::instance(), costMemo_);
}

void
Walk::replayHit(Candidate &c, const dse::EvalCacheEntry &entry)
{
    Scope s(&tr_, "dse.replay");
    ex_->replayEvalEntry(entry, c.cache);
    c.perf = entry.perf;
    c.objective = entry.objective;
    c.cost = entry.cost;
    c.evalStatus = Status();
}

void
Walk::evaluate(const adg::Adg &adg, bool repair, Candidate &c,
               const model::ComponentCost *knownCost,
               const dse::EvalKey *key)
{
    dse::EvalKey k;
    if (key) {
        k = *key;
    } else {
        {
            Scope s(&tr_, "dse.fingerprint");
            k = ex_->makeEvalKey(adg, c.cache, repair);
        }
        std::shared_ptr<const dse::EvalCacheEntry> hit;
        {
            Scope s(&tr_, "dse.eval_cache.find");
            hit = cache_.find(k);
        }
        if (hit) {
            replayHit(c, *hit);
            return;
        }
    }

    struct TaskOut
    {
        bool lowered = false;
        bool legal = false;
        double cycles = 1e30;
        mapper::Schedule sched;
        Status status;
    };
    const size_t nu = opts_.unrollFactors.size();
    std::vector<TaskOut> outs(wls_.size() * nu);

    compiler::HwFeatures features;
    compiler::CompileOptions copts;
    copts.unrollFactors = opts_.unrollFactors;
    uint64_t featuresFp = 0;
    uint64_t coptsFp = 0;
    std::vector<std::shared_ptr<const compiler::Placement>> placements;
    {
        Scope s(&tr_, "compiler.place");
        features = compiler::HwFeatures::fromAdg(adg);
        featuresFp = compiler::fingerprintFeatures(features);
        coptsFp = compiler::fingerprintOptions(copts);
        for (const auto *w : wls_)
            placements.push_back(compileCache_.placementFor(
                w->name, w->kernel, features, featuresFp));
    }
    mapper::SchedOptions defaults;
    std::shared_ptr<const mapper::LandmarkTable> landmarks;
    if (defaults.routeFastPath) {
        Scope s(&tr_, "mapper.landmarks");
        landmarks = mapper::landmarksFor(adg, defaults.routeBaseCost,
                                         defaults.routePePassCost);
    }

    for (size_t t = 0; t < outs.size(); ++t) {
        const int kIdx = static_cast<int>(t / nu);
        const int u = opts_.unrollFactors[t % nu];
        const workloads::Workload &w = *wls_[static_cast<size_t>(kIdx)];
        TaskOut &o = outs[t];
        try {
            std::shared_ptr<const compiler::LowerResult> lowered;
            {
                Scope s(&tr_, "compiler.lower");
                lowered = compileCache_.lowerFor(
                    w.name, w.kernel, *placements[static_cast<size_t>(kIdx)],
                    features, copts, u, featuresFp, coptsFp);
            }
            if (!lowered->ok)
                continue;
            auto prev = c.cache.find({kIdx, u});
            const bool init = prev == c.cache.end();
            mapper::SchedOptions so;
            so.maxIters = init ? opts_.initSchedIters : opts_.schedIters;
            so.convergeIters = std::max(8, so.maxIters / 5);
            so.seed = mixSeed(opts_.seed, static_cast<uint64_t>(kIdx),
                              static_cast<uint64_t>(u));
            so.chains = opts_.schedChains;
            so.landmarks = landmarks;
            const mapper::Schedule *seedSched =
                (repair && !init && prev->second.hasLegal)
                    ? &prev->second.sched
                    : nullptr;
            {
                Scope s(&tr_, init ? "mapper.schedule_init"
                                   : "mapper.schedule_repair");
                mapper::SpatialScheduler scheduler(lowered->version.program,
                                                   adg, so);
                o.sched = scheduler.run(seedSched);
                schedStats_.merge(scheduler.stats());
                o.status = scheduler.lastRunStatus();
            }
            if (!o.status.ok())
                continue;
            model::PerfEstimate est;
            {
                Scope s(&tr_, "model.perf");
                est = model::estimatePerformance(lowered->version.program,
                                                 o.sched, adg);
            }
            ++schedRuns_;
            schedLegal_ += est.legal ? 1 : 0;
            o.lowered = true;
            o.legal = est.legal;
            o.cycles = est.cycles;
        } catch (...) {
            o.status = Status::fromCurrentException();
            o.lowered = false;
        }
    }

    // evaluateDesign's deterministic reduction, in task order.
    Status evalStatus;
    std::vector<double> bestCycles(wls_.size(), 1e30);
    std::vector<dse::EvalTaskOutcome> recorded(outs.size());
    for (size_t t = 0; t < outs.size(); ++t) {
        TaskOut &o = outs[t];
        if (evalStatus.ok() && !o.status.ok())
            evalStatus = o.status;
        if (!o.lowered)
            continue;
        recorded[t].lowered = true;
        recorded[t].legal = o.legal;
        recorded[t].cycles = o.cycles;
        if (o.legal)
            recorded[t].sched = o.sched;
        const int kIdx = static_cast<int>(t / nu);
        auto &entry = c.cache[{kIdx, opts_.unrollFactors[t % nu]}];
        if (o.legal) {
            entry.sched = std::move(o.sched);
            entry.hasLegal = true;
            auto &best = bestCycles[static_cast<size_t>(kIdx)];
            best = std::min(best, o.cycles);
        }
    }
    double logSum = 0;
    for (size_t kIdx = 0; kIdx < wls_.size(); ++kIdx) {
        double speedup = bestCycles[kIdx] < 1e29
            ? hostCycles_[kIdx] / bestCycles[kIdx]
            : 1.0;
        logSum += std::log(std::max(speedup, 0.01));
    }
    c.perf = std::exp(logSum / static_cast<double>(wls_.size()));
    c.cost = knownCost ? *knownCost : priceFabric(adg, false);
    c.objective = dse::Explorer::isDegenerateFabric(adg)
        ? 0.0
        : ex_->scalarObjective(c.perf, c.cost);
    c.evalStatus = evalStatus;

    if (evalStatus.ok()) {
        auto entry = std::make_shared<dse::EvalCacheEntry>();
        entry->objective = c.objective;
        entry->perf = c.perf;
        entry->cost = c.cost;
        entry->tasks = std::move(recorded);
        if (store_) {
            Scope s(&tr_, "dse.store.append");
            if (!store_->append(k, *entry).ok())
                ++failures_;
        }
        cache_.insert(k, std::move(entry));
    }
}

void
Walk::evaluateOnWorkers(std::vector<Candidate> &cands,
                        const std::vector<size_t> &evalIdx)
{
    // As in the run loop: the coordinator looks every leader up first
    // and ships only the misses.
    std::vector<dse::EvalKey> keys(evalIdx.size());
    std::vector<size_t> shipIdx;
    std::vector<const adg::Adg *> ship;
    for (size_t e = 0; e < evalIdx.size(); ++e) {
        Candidate &c = cands[evalIdx[e]];
        {
            Scope s(&tr_, "dse.fingerprint");
            keys[e] = ex_->makeEvalKey(c.adg, schedules_, opts_.useRepair);
        }
        std::shared_ptr<const dse::EvalCacheEntry> hit;
        {
            Scope s(&tr_, "dse.eval_cache.find");
            hit = cache_.find(keys[e]);
        }
        if (hit) {
            Scope s(&tr_, "dse.evaluate");
            c.cache = schedules_;
            replayHit(c, *hit);
        } else {
            ship.push_back(&c.adg);
            shipIdx.push_back(e);
        }
    }
    if (ship.empty())
        return;

    std::vector<dse::WorkerEvalOutcome> outs;
    double batchS = 0;
    {
        Scope s(&tr_, "ipc.batch");
        outs = pool_->evaluateBatch(
            ship, schedules_, opts_.useRepair, [&](size_t j) {
                // The degradation floor; any use of it is a failure.
                size_t e = shipIdx[j];
                Candidate &c = cands[evalIdx[e]];
                c.cache = schedules_;
                evaluate(c.adg, opts_.useRepair, c, &c.cost, &keys[e]);
                dse::WorkerEvalOutcome o;
                o.status = c.evalStatus;
                if (o.status.ok())
                    o.entry = cache_.find(keys[e]);
                return o;
            });
        batchS = s.elapsed();
    }

    // Re-evaluate each shipped leader here, traced, to split the
    // batch's wall time into evaluation and transport; the worker's
    // entry must match bit for bit.
    double slowest = 0;
    for (size_t j = 0; j < shipIdx.size(); ++j) {
        size_t e = shipIdx[j];
        Candidate &c = cands[evalIdx[e]];
        {
            Scope s(&tr_, "dse.evaluate");
            c.cache = schedules_;
            evaluate(c.adg, opts_.useRepair, c, &c.cost, &keys[e]);
            slowest = std::max(slowest, s.elapsed());
        }
        const dse::WorkerEvalOutcome &o = outs[j];
        bool same = o.status.ok() && o.entry &&
                    o.entry->objective == c.objective &&
                    o.entry->perf == c.perf &&
                    o.entry->cost.areaMm2 == c.cost.areaMm2 &&
                    o.entry->cost.powerMw == c.cost.powerMw;
        if (!same)
            ++failures_;
    }
    ipcOverheadS_ += std::max(0.0, batchS - slowest);
}

dse::DseResult
Walk::run()
{
    {
        Scope s(&tr_, "workloads.golden");
        for (const auto *w : wls_)
            hostCycles_.push_back(
                model::estimateHostCycles(workloads::runGolden(*w).stats));
    }
    {
        // The walk owns the store and the pool; its explorer only
        // supplies mutate, pruneUnused, makeEvalKey and the objective,
        // none of which read these options.
        dse::DseOptions eo = opts_;
        eo.cacheStoreDir.clear();
        eo.workers = 0;
        eo.threads = 1;
        Scope s(&tr_, "dse.explorer_ctor");
        ex_ = std::make_unique<dse::Explorer>(wls_, eo);
    }
    if (!opts_.cacheStoreDir.empty()) {
        Scope s(&tr_, "dse.store.load");
        store_ = std::make_unique<dse::CacheStore>(opts_.cacheStoreDir);
        if (!store_->open().ok() || !store_->loadInto(cache_).ok())
            ++failures_;
    }

    dse::DseResult result;
    adg::Adg current = adg::buildDseInitial();
    Rng rng(opts_.seed);
    dse::ParetoFront front;
    if (opts_.pareto)
        front = dse::ParetoFront(opts_.areaBudgetMm2, opts_.powerBudgetMw,
                                 std::max(2, opts_.paretoFrontSize));
    auto offer = [&](const adg::Adg &adg, const Candidate &c, int iter) {
        Scope s(&tr_, "dse.pareto.add");
        return front.add({adg, c.perf, c.cost.areaMm2, c.cost.powerMw,
                          c.objective, iter, 0});
    };

    // Iterations 0 and 1: the initial design, then its pruned form.
    Candidate first;
    {
        Scope s(&tr_, "dse.evaluate");
        evaluate(current, false, first, nullptr);
    }
    if (!first.evalStatus.ok()) {
        ++failures_;
        return result;
    }
    result.initialObjective = first.objective;
    result.initialCost = first.cost;
    if (opts_.pareto && !dse::Explorer::isDegenerateFabric(current))
        offer(current, first, 0);
    result.history.push_back({0, first.cost.areaMm2, first.cost.powerMw,
                              first.perf, first.objective, true,
                              front.hypervolume()});
    {
        Scope s(&tr_, "dse.prune");
        ex_->pruneUnused(current);
    }
    Candidate pruned;
    {
        Scope s(&tr_, "dse.evaluate");
        pruned.cache = std::move(first.cache);
        evaluate(current, opts_.useRepair, pruned, nullptr);
    }
    if (!pruned.evalStatus.ok()) {
        ++failures_;
        return result;
    }
    if (opts_.pareto && !dse::Explorer::isDegenerateFabric(current))
        offer(current, pruned, 1);
    result.history.push_back({1, pruned.cost.areaMm2, pruned.cost.powerMw,
                              pruned.perf, pruned.objective, true,
                              front.hypervolume()});
    result.best = current;
    result.bestObjective = pruned.objective;
    result.bestPerf = pruned.perf;
    result.bestCost = pruned.cost;
    double curObj = pruned.objective;
    schedules_ = std::move(pruned.cache);

    if (opts_.workers > 0) {
        dse::WorkerPoolOptions wo;
        wo.workers = opts_.workers;
        wo.workloadNames = ex_->workloadNames();
        wo.dse = opts_;
        // Appends happen here, in the coordinator, so the store's write
        // path is traced; workers evaluate without a store.
        wo.dse.cacheStoreDir.clear();
        Scope s(&tr_, "ipc.spawn");
        pool_ = std::make_unique<dse::WorkerPool>(std::move(wo));
        if (!pool_->start().ok())
            ++failures_;
    }
    bindPricer(current);

    int iter = 2;
    int noImprove = 0;
    int infeasibleStreak = 0;
    while (iter < opts_.maxIters && noImprove < opts_.noImproveExit &&
           infeasibleStreak < opts_.infeasibleExit) {
        int batch = std::min(std::max(1, opts_.candidateBatch),
                             opts_.maxIters - iter);
        std::vector<Candidate> cands(static_cast<size_t>(batch));
        for (int b = 0; b < batch; ++b) {
            Candidate &c = cands[static_cast<size_t>(b)];
            bool valid = false;
            {
                Scope s(&tr_, "dse.mutate");
                c.adg = current;
                c.iter = iter + b;
                int nMut = 1 + static_cast<int>(rng.uniformInt(0, 2));
                for (int m = 0; m < nMut; ++m)
                    ex_->mutate(c.adg, rng);
                valid = c.adg.validate().empty() &&
                        !dse::Explorer::isDegenerateFabric(c.adg);
            }
            if (valid) {
                c.cost = priceFabric(c.adg, true);
                c.feasible = c.cost.areaMm2 <= opts_.areaBudgetMm2 &&
                             c.cost.powerMw <= opts_.powerBudgetMw;
            }
        }
        iter += batch;

        std::vector<size_t> evalIdx;
        std::vector<std::pair<size_t, size_t>> dups; // (copy, leader)
        {
            Scope s(&tr_, "dse.dedup");
            std::map<adg::AdgKey, size_t> seen;
            for (size_t i = 0; i < cands.size(); ++i) {
                if (!cands[i].feasible)
                    continue;
                if (!opts_.dedupBatch || batch == 1) {
                    evalIdx.push_back(i);
                    continue;
                }
                auto [it, fresh] =
                    seen.emplace(adg::canonicalKey(cands[i].adg), i);
                if (fresh)
                    evalIdx.push_back(i);
                else
                    dups.push_back({i, it->second});
            }
        }

        if (pool_) {
            evaluateOnWorkers(cands, evalIdx);
        } else {
            for (size_t e : evalIdx) {
                Candidate &c = cands[e];
                Scope s(&tr_, "dse.evaluate");
                c.cache = schedules_;
                evaluate(c.adg, opts_.useRepair, c, &c.cost);
            }
        }

        Scope s(&tr_, "dse.select");
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
        int bestIdx = -1;
        if (opts_.pareto) {
            double bestGain = 1e-12;
            for (size_t i = 0; i < cands.size(); ++i) {
                const Candidate &c = cands[i];
                if (!c.feasible || !c.evalStatus.ok())
                    continue;
                auto out = offer(c.adg, c, c.iter);
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
                if (c.objective > curObj &&
                    (bestIdx < 0 ||
                     c.objective >
                         cands[static_cast<size_t>(bestIdx)].objective))
                    bestIdx = static_cast<int>(i);
            }
        }

        bool sawInfeasible = false;
        int evaluated = 0;
        double hv = opts_.pareto ? front.hypervolume() : 0;
        for (size_t i = 0; i < cands.size(); ++i) {
            const Candidate &c = cands[i];
            if (!c.feasible || !c.evalStatus.ok()) {
                sawInfeasible = true;
                if (c.feasible)
                    ++failures_;
                continue;
            }
            ++evaluated;
            result.history.push_back(
                {c.iter, c.cost.areaMm2, c.cost.powerMw, c.perf,
                 c.objective, static_cast<int>(i) == bestIdx, hv});
        }
        if (evaluated > 0)
            infeasibleStreak = 0;
        else if (sawInfeasible)
            ++infeasibleStreak;
        if (bestIdx < 0) {
            noImprove += evaluated;
            continue;
        }
        Candidate &c = cands[static_cast<size_t>(bestIdx)];
        current = std::move(c.adg);
        schedules_ = std::move(c.cache);
        curObj = c.objective;
        bindPricer(current);
        if (c.objective > result.bestObjective) {
            result.best = current;
            result.bestObjective = c.objective;
            result.bestPerf = c.perf;
            result.bestCost = c.cost;
        }
        noImprove = 0;
    }

    for (const dse::ParetoPoint &p : front.points())
        result.front.push_back(
            {p.perf, p.areaMm2, p.powerMw, p.objective, p.iter});
    result.frontHypervolume = front.hypervolume();
    if (store_)
        store_->flush();
    return result;
}

Metrics
Walk::metrics() const
{
    Metrics m;
    m["mapper.schedule_init_s"] = tr_.total("mapper.schedule_init");
    m["mapper.schedule_repair_s"] = tr_.total("mapper.schedule_repair");
    std::vector<double> repairs = tr_.durations("mapper.schedule_repair");
    m["mapper.schedule_repair_p50_ms"] = 1e3 * quantile(repairs, 0.5);
    m["mapper.schedule_repair_p90_ms"] = 1e3 * quantile(repairs, 0.9);
    m["mapper.legal_ratio"] = ratio(schedLegal_, schedRuns_ - schedLegal_);
    addSchedMetrics(m, schedStats_);

    compiler::CompileCacheStats cc = compileCache_.stats();
    m["compiler.place_s"] = tr_.total("compiler.place");
    m["compiler.lower_s"] = tr_.total("compiler.lower");
    m["compiler.cache.placement_hit_ratio"] =
        ratio(cc.placementHits, cc.placementMisses);
    m["compiler.cache.lower_hit_ratio"] = ratio(cc.lowerHits, cc.lowerMisses);

    model::CostMemoStats cm = costMemo_.stats();
    m["model.perf_s"] = tr_.total("model.perf");
    m["model.cost_s"] = tr_.total("model.cost");
    m["model.cost_memo.hit_ratio"] = ratio(cm.hits, cm.misses);

    dse::EvalCacheStats ec = cache_.stats();
    m["dse.explorer_ctor_s"] = tr_.total("dse.explorer_ctor");
    m["workloads.golden_s"] = tr_.total("workloads.golden");
    m["dse.mutate_s"] = tr_.total("dse.mutate");
    m["dse.fingerprint_s"] = tr_.total("dse.fingerprint");
    m["dse.eval_cache.find_s"] = tr_.total("dse.eval_cache.find");
    m["dse.eval_cache.hit_ratio"] = ratio(ec.hits, ec.misses);
    m["dse.pareto.add_s"] = tr_.total("dse.pareto.add");
    m["dse.dedup_collapsed"] = static_cast<double>(dedupCollapsed_);
    m["dse.store.load_s"] = tr_.total("dse.store.load");
    m["dse.store.append_s"] = tr_.total("dse.store.append");
    if (store_) {
        dse::CacheStoreStats ss = store_->stats();
        m["dse.store.records_loaded"] = static_cast<double>(ss.recordsLoaded);
        m["dse.store.quarantined"] =
            static_cast<double>(ss.recordsQuarantined);
        m["dse.store.appends"] = static_cast<double>(ss.appends);
    }

    m["ipc.spawn_s"] = tr_.total("ipc.spawn");
    m["ipc.batch_s"] = tr_.total("ipc.batch");
    m["ipc.overhead_s"] = ipcOverheadS_;
    if (pool_) {
        const dse::WorkerPoolStats &ws = pool_->stats();
        m["ipc.dispatched"] = static_cast<double>(ws.dispatched);
        m["ipc.redispatched"] = static_cast<double>(ws.redispatched);
        m["ipc.degraded"] = static_cast<double>(ws.degraded);
        m["ipc.deaths"] = static_cast<double>(ws.deaths);
    }
    return m;
}

} // namespace

Json
runDse(const Spec &spec)
{
    if (!spec.traced)
        return productionRep(spec);

    Tracer tr;
    Walk walk(spec, tr);
    auto t0 = Clock::now();
    dse::DseResult r = walk.run();
    double wallS = secondsSince(t0);

    Metrics m = walk.metrics();
    m["trace.wall_s"] = wallS;
    m["trace.coverage"] = tr.coverage(wallS);
    m["dse.best_objective"] = r.bestObjective;
    m["dse.front_hypervolume"] = r.frontHypervolume;
    bool wrote = writeJsonFile(spec.tracePath, tr.chromeTrace(runMeta(spec)));
    Json doc = resultDoc(spec, r, walk.failures() + (wrote ? 0 : 1));
    doc.set("layers", metricsToJson(m));
    return doc;
}

} // namespace e2e
