/**
 * @file
 * DSE evaluation-memoization tests: canonical ADG fingerprints, the
 * design-level eval cache, the compile cache, and memoized/incremental
 * area-power costing. The load-bearing property throughout is
 * *bit-identity*: every fast path must reproduce the always-recompute
 * baseline exactly — same best design, same objective trace, same
 * checkpoint state — or it is not a cache but a behavior change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "adg/adg.h"
#include "adg/fingerprint.h"
#include "adg/prebuilt.h"
#include "dse/checkpoint.h"
#include "dse/explorer.h"
#include "model/cost_cache.h"
#include "model/regression.h"

namespace dsa::dse {
namespace {

std::string
tmpPath(const std::string &tag)
{
    return "dse_cache_" + tag + ".ckpt.json";
}

adg::PeProps
simplePe()
{
    adg::PeProps p;
    p.ops = OpSet{OpCode::Add, OpCode::Mul};
    return p;
}

// ---------------------------------------------------------------------
// Canonical fingerprints
// ---------------------------------------------------------------------

/** mem -> sw -> {pe1, pe2}, built with node insertions in @p order
 *  (a permutation of {0=mem, 1=sw, 2=pe1, 3=pe2}). */
adg::Adg
diamondInOrder(const int order[4])
{
    adg::Adg g;
    adg::NodeId ids[4] = {};
    for (int i = 0; i < 4; ++i) {
        int what = order[i];
        if (what == 0) {
            adg::MemProps m;
            ids[0] = g.addMemory(m);
        } else if (what == 1) {
            ids[1] = g.addSwitch(adg::SwitchProps{});
        } else {
            ids[what] = g.addPe(simplePe());
        }
    }
    g.connect(ids[0], ids[1]);
    g.connect(ids[1], ids[2]);
    g.connect(ids[1], ids[3]);
    return g;
}

TEST(Fingerprint, InvariantUnderNodeRenumbering)
{
    const int fwd[4] = {0, 1, 2, 3};
    const int rev[4] = {3, 2, 1, 0};
    adg::Adg a = diamondInOrder(fwd);
    adg::Adg b = diamondInOrder(rev);
    // Isomorphic graphs with permuted node IDs: the structural
    // fingerprint must collapse them...
    EXPECT_EQ(adg::structuralFingerprint(a), adg::structuralFingerprint(b));
    // ...while the labeling hash must still tell them apart, because
    // the annealer is sensitive to concrete IDs (iteration order,
    // repair schedules holding raw NodeIds).
    EXPECT_NE(adg::labelingHash(a), adg::labelingHash(b));
}

TEST(Fingerprint, DiscriminatesParameters)
{
    const int fwd[4] = {0, 1, 2, 3};
    adg::Adg a = diamondInOrder(fwd);
    adg::Adg b = a;
    // Flip one PE capability: same topology, different component.
    for (adg::NodeId id : b.aliveNodes(adg::NodeKind::Pe)) {
        b.node(id).pe().ops.insert(OpCode::Sub);
        break;
    }
    EXPECT_FALSE(adg::structuralFingerprint(a) ==
                 adg::structuralFingerprint(b));
    EXPECT_NE(adg::labelingHash(a), adg::labelingHash(b));
}

TEST(Fingerprint, DiscriminatesTopology)
{
    // Chain pe1 -> pe2 vs fan-out sw -> {pe1, pe2} with identical
    // node multisets would be caught by edges alone; test the harder
    // case of the same edge *count* wired differently.
    adg::Adg a;
    adg::NodeId a1 = a.addPe(simplePe());
    adg::NodeId a2 = a.addPe(simplePe());
    adg::NodeId a3 = a.addPe(simplePe());
    a.connect(a1, a2);
    a.connect(a2, a3);  // chain: 1 -> 2 -> 3

    adg::Adg b;
    adg::NodeId b1 = b.addPe(simplePe());
    adg::NodeId b2 = b.addPe(simplePe());
    adg::NodeId b3 = b.addPe(simplePe());
    b.connect(b1, b2);
    b.connect(b1, b3);  // fan-out: 1 -> {2, 3}

    EXPECT_FALSE(adg::structuralFingerprint(a) ==
                 adg::structuralFingerprint(b));
}

TEST(Fingerprint, AddThenRemoveRoundTripCollapses)
{
    adg::Adg g = adg::buildDseInitial();
    adg::AdgKey before = adg::canonicalKey(g);

    // A mutation round-trip: add a PE, wire it up, then remove it.
    // NodeIds are never reused (tombstones), so the surviving live
    // graph is *exactly* the original — and the canonical key must
    // say so, which is what lets the eval cache collapse the revisit.
    adg::Adg mutated = g;
    adg::NodeId sw = mutated.aliveNodes(adg::NodeKind::Switch).front();
    adg::NodeId pe = mutated.addPe(simplePe());
    mutated.connect(sw, pe);
    mutated.connect(pe, sw);
    EXPECT_FALSE(adg::canonicalKey(mutated) == before);
    mutated.removeNode(pe);  // cascades the two edges

    adg::AdgKey after = adg::canonicalKey(mutated);
    EXPECT_EQ(before.structural, after.structural);
    EXPECT_EQ(before.labeling, after.labeling);
    EXPECT_TRUE(before == after);
}

TEST(Fingerprint, StableAcrossTextRoundTrip)
{
    adg::Adg g = adg::buildDseInitial();
    adg::Adg back = adg::Adg::fromText(g.toText());
    EXPECT_TRUE(adg::canonicalKey(g) == adg::canonicalKey(back));
}

// ---------------------------------------------------------------------
// Eval cache: hit replay, run-level equivalence
// ---------------------------------------------------------------------

DseOptions
tinyOpts()
{
    DseOptions o;
    o.maxIters = 24;
    o.noImproveExit = 24;
    o.schedIters = 20;
    o.initSchedIters = 300;
    o.unrollFactors = {1, 4};
    o.seed = 3;
    return o;
}

void
expectSameHistory(const DseResult &a, const DseResult &b)
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

TEST(EvalCache, HitReplaysBitIdentically)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    Explorer ex(set, tinyOpts());
    adg::Adg g = adg::buildDseInitial();
    EvalCache cache;

    ScheduleCache schedA;
    double perfA = 0;
    model::ComponentCost costA;
    Status stA;
    double objA =
        ex.evaluateDesign(g, schedA, true, &perfA, &costA, &stA, &cache);
    ASSERT_TRUE(stA.ok()) << stA.toString();
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().inserts, 1u);

    // Same design, same (empty) incoming repair cache: same key. The
    // replay must reproduce the objective, cost, and the repair-cache
    // side effects down to the last bit.
    ScheduleCache schedB;
    double perfB = 0;
    model::ComponentCost costB;
    Status stB;
    double objB =
        ex.evaluateDesign(g, schedB, true, &perfB, &costB, &stB, &cache);
    ASSERT_TRUE(stB.ok());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(objA, objB);
    EXPECT_EQ(perfA, perfB);
    EXPECT_EQ(costA.areaMm2, costB.areaMm2);
    EXPECT_EQ(costA.powerMw, costB.powerMw);
    EXPECT_EQ(hashScheduleCache(schedA), hashScheduleCache(schedB));

    // A different incoming repair cache changes the context hash, so
    // the warmed entries must NOT be (wrongly) replayed.
    ScheduleCache schedC = schedA;
    double perfC = 0;
    model::ComponentCost costC;
    Status stC;
    ex.evaluateDesign(g, schedC, true, &perfC, &costC, &stC, &cache);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(EvalCache, KeySeparatesRepairFlagAndScheduleState)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    Explorer ex(set, tinyOpts());
    adg::Adg g = adg::buildDseInitial();
    ScheduleCache empty;
    EvalKey k1 = ex.makeEvalKey(g, empty, true);
    EvalKey k2 = ex.makeEvalKey(g, empty, false);
    EXPECT_FALSE(k1 == k2);
    // Same structural+labeling, different context.
    EXPECT_EQ(k1.structural, k2.structural);
    EXPECT_EQ(k1.labeling, k2.labeling);
    EXPECT_NE(k1.context, k2.context);
}

TEST(EvalCache, CachedAndUncachedRunsBitIdentical)
{
    auto cached = tinyOpts();
    auto uncached = tinyOpts();
    uncached.memoize = false;
    uncached.dedupBatch = false;
    cached.candidateBatch = uncached.candidateBatch = 2;
    cached.threads = uncached.threads = 2;

    Explorer a(workloads::suiteWorkloads("PolyBench"), cached);
    Explorer b(workloads::suiteWorkloads("PolyBench"), uncached);
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());

    expectSameHistory(ra, rb);
    EXPECT_DOUBLE_EQ(ra.bestObjective, rb.bestObjective);
    EXPECT_DOUBLE_EQ(ra.bestPerf, rb.bestPerf);
    EXPECT_EQ(ra.best.toText(), rb.best.toText());

    // The cached run actually used its caches; the baseline did not.
    EXPECT_GT(ra.cacheStats.evalMisses, 0u);
    EXPECT_GT(ra.cacheStats.evalEntries, 0u);
    EXPECT_GT(ra.cacheStats.placementHits, 0u);
    EXPECT_GT(ra.cacheStats.lowerHits, 0u);
    EXPECT_GT(ra.cacheStats.costHits, 0u);
    EXPECT_EQ(rb.cacheStats.evalMisses, 0u);
    EXPECT_EQ(rb.cacheStats.placementHits + rb.cacheStats.placementMisses,
              0u);
    EXPECT_EQ(rb.cacheStats.costHits + rb.cacheStats.costMisses, 0u);
}

TEST(EvalCache, ThreadCountInvariantWithCachesOn)
{
    auto serial = tinyOpts();
    auto parallel = tinyOpts();
    serial.threads = 1;
    parallel.threads = 4;
    parallel.candidateBatch = 2;
    serial.candidateBatch = 2;
    Explorer a(workloads::suiteWorkloads("PolyBench"), serial);
    Explorer b(workloads::suiteWorkloads("PolyBench"), parallel);
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());
    expectSameHistory(ra, rb);
    EXPECT_EQ(ra.best.toText(), rb.best.toText());
    // Hit/miss totals are deterministic too: entries are pure
    // functions of their key, keys within a batch are pairwise
    // distinct after dedup, and the reduction is serial.
    EXPECT_EQ(ra.cacheStats.evalHits, rb.cacheStats.evalHits);
    EXPECT_EQ(ra.cacheStats.evalMisses, rb.cacheStats.evalMisses);
    EXPECT_EQ(ra.cacheStats.dedupCollapsed, rb.cacheStats.dedupCollapsed);
}

// ---------------------------------------------------------------------
// Checkpoints: cache persistence and cached-vs-uncached state equality
// ---------------------------------------------------------------------

TEST(EvalCache, CheckpointStateIdenticalCachedVsUncached)
{
    auto cached = tinyOpts();
    cached.checkpointPath = tmpPath("cached");
    cached.checkpointEvery = 1;
    auto uncached = cached;
    uncached.checkpointPath = tmpPath("uncached");
    uncached.memoize = false;
    uncached.dedupBatch = false;

    Explorer a(workloads::suiteWorkloads("PolyBench"), cached);
    Explorer b(workloads::suiteWorkloads("PolyBench"), uncached);
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());
    ASSERT_GT(ra.checkpointsWritten, 0);
    ASSERT_EQ(ra.checkpointsWritten, rb.checkpointsWritten);

    auto la = loadCheckpoint(cached.checkpointPath);
    auto lb = loadCheckpoint(uncached.checkpointPath);
    ASSERT_TRUE(la.ok()) << la.status().toString();
    ASSERT_TRUE(lb.ok()) << lb.status().toString();
    const DseRunState &sa = la.value().state;
    const DseRunState &sb = lb.value().state;

    // Everything the loop resumes from is identical; the only
    // difference is the optional cache section itself.
    EXPECT_EQ(sa.current.toText(), sb.current.toText());
    EXPECT_DOUBLE_EQ(sa.curObj, sb.curObj);
    EXPECT_EQ(sa.iter, sb.iter);
    EXPECT_EQ(sa.noImprove, sb.noImprove);
    EXPECT_EQ(sa.rng.saveState(), sb.rng.saveState());
    EXPECT_EQ(hashScheduleCache(sa.schedules),
              hashScheduleCache(sb.schedules));
    expectSameHistory(sa.result, sb.result);
    EXPECT_EQ(sa.result.best.toText(), sb.result.best.toText());
    ASSERT_TRUE(sa.evalCache != nullptr);
    EXPECT_GT(sa.evalCache->size(), 0u);
    EXPECT_TRUE(sb.evalCache == nullptr);

    std::remove(cached.checkpointPath.c_str());
    std::remove(uncached.checkpointPath.c_str());
}

TEST(EvalCache, CrashResumeKeepsWarmCacheAndBitIdentity)
{
    auto set = workloads::suiteWorkloads("PolyBench");

    auto refOpts = tinyOpts();
    refOpts.checkpointPath = tmpPath("ref");
    refOpts.checkpointEvery = 1;
    Explorer ref(set, refOpts);
    auto refRes = ref.run(adg::buildDseInitial());

    auto crashOpts = refOpts;
    crashOpts.checkpointPath = tmpPath("crash");
    crashOpts.haltAfterCheckpoints = 1;
    Explorer crash(set, crashOpts);
    auto crashRes = crash.run(adg::buildDseInitial());
    ASSERT_EQ(crashRes.stopReason, "halted");

    auto loaded = loadCheckpoint(crashOpts.checkpointPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    DseCheckpoint ck = std::move(loaded.value());
    // The partial checkpoint carries the warm eval cache...
    ASSERT_TRUE(ck.state.evalCache != nullptr);
    size_t restored = ck.state.evalCache->size();
    EXPECT_GT(restored, 0u);

    ck.options.haltAfterCheckpoints = 0;  // test knob; not serialized
    Explorer resumed(set, ck.options);
    auto res = resumed.resume(std::move(ck.state));

    // ...and the resumed run finishes exactly where the uninterrupted
    // one did.
    expectSameHistory(refRes, res);
    EXPECT_DOUBLE_EQ(refRes.bestObjective, res.bestObjective);
    EXPECT_EQ(refRes.best.toText(), res.best.toText());
    // Restored entries count as state, not as this process's work.
    EXPECT_GE(res.cacheStats.evalEntries, restored);
    EXPECT_EQ(res.cacheStats.evalInserts,
              res.cacheStats.evalEntries - restored);

    std::remove(refOpts.checkpointPath.c_str());
    std::remove(crashOpts.checkpointPath.c_str());
}

TEST(EvalCache, PerLayerSwitchCheckpointResumesUnmemoized)
{
    // Checkpoints written before DseOptions::memoize carry three
    // per-layer switches instead. All off must load as memoize off and
    // resume exactly where the uninterrupted run ends.
    auto set = workloads::suiteWorkloads("PolyBench");
    auto refOpts = tinyOpts();
    Explorer ref(set, refOpts);
    auto refRes = ref.run(adg::buildDseInitial());

    auto crashOpts = refOpts;
    crashOpts.memoize = false;
    crashOpts.checkpointPath = tmpPath("per-layer");
    crashOpts.checkpointEvery = 1;
    crashOpts.haltAfterCheckpoints = 1;
    Explorer crash(set, crashOpts);
    ASSERT_EQ(crash.run(adg::buildDseInitial()).stopReason, "halted");
    auto loaded = loadCheckpoint(crashOpts.checkpointPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();

    // Re-spell the options the way those files did.
    const DseCheckpoint &ck = loaded.value();
    json::Value doc = checkpointToJson(ck.workloadNames, ck.options, ck.state);
    json::Value old = json::Value::object();
    for (const auto &[key, v] : doc.members()) {
        if (key != "options") {
            old.set(key, v);
            continue;
        }
        json::Value opts = json::Value::object();
        for (const auto &[k, ov] : v.members())
            if (k != "memoize")
                opts.set(k, ov);
        for (const char *k : {"evalCache", "compileCache", "costMemo"})
            opts.set(k, json::Value::boolean(false));
        old.set(key, std::move(opts));
    }
    auto legacy = checkpointFromJson(old);
    ASSERT_TRUE(legacy.ok()) << legacy.status().toString();
    DseCheckpoint lk = std::move(legacy.value());
    EXPECT_FALSE(lk.options.memoize);

    Explorer resumed(set, lk.options);
    auto res = resumed.resume(std::move(lk.state));
    expectSameHistory(refRes, res);
    EXPECT_DOUBLE_EQ(refRes.bestObjective, res.bestObjective);
    EXPECT_EQ(refRes.best.toText(), res.best.toText());
    EXPECT_EQ(res.cacheStats.evalEntries, 0u);
    EXPECT_EQ(res.cacheStats.placementHits + res.cacheStats.placementMisses,
              0u);
    // The resumed run keeps checkpointing to the same file.
    std::remove(crashOpts.checkpointPath.c_str());
}

TEST(EvalCache, CheckpointRoundTripPreservesCacheBytes)
{
    auto opts = tinyOpts();
    opts.maxIters = 8;
    opts.noImproveExit = 8;
    opts.checkpointPath = tmpPath("bytes");
    opts.checkpointEvery = 1;
    Explorer ex(workloads::suiteWorkloads("PolyBench"), opts);
    auto res = ex.run(adg::buildDseInitial());
    ASSERT_GT(res.checkpointsWritten, 0);

    std::ifstream in(opts.checkpointPath, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string original = buf.str();

    auto loaded = loadCheckpoint(opts.checkpointPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const DseCheckpoint &ck = loaded.value();
    ASSERT_TRUE(ck.state.evalCache != nullptr);
    std::string again =
        checkpointToJson(ck.workloadNames, ck.options, ck.state).dump() +
        "\n";
    // load -> save reproduces the file byte-for-byte, including every
    // cache entry (sorted keys, exact doubles, schedules).
    EXPECT_EQ(original, again);
    std::remove(opts.checkpointPath.c_str());
}

// ---------------------------------------------------------------------
// Compile cache and cost memo
// ---------------------------------------------------------------------

TEST(CompileCache, PlacementsComputedOncePerKernelFeatureSet)
{
    auto opts = tinyOpts();
    opts.maxIters = 6;
    opts.noImproveExit = 6;
    auto set = workloads::suiteWorkloads("PolyBench");
    Explorer ex(set, opts);
    auto res = ex.run(adg::buildDseInitial());
    // run() evaluates the initial design plus one candidate per step,
    // each a (kernel x unroll) grid: without the hoist+cache every
    // task would recompute its placement. With it, lookups dwarf
    // misses (a placement is computed once per (kernel, HwFeatures)).
    uint64_t lookups =
        res.cacheStats.placementHits + res.cacheStats.placementMisses;
    EXPECT_GT(res.cacheStats.placementHits, 0u);
    EXPECT_GE(lookups, set.size() * res.history.size());
    // Mutations that change HwFeatures legitimately miss; but misses
    // stay bounded by distinct (kernel, feature-set) pairs, strictly
    // below the one-per-task recompute the hoist+cache replaces.
    EXPECT_LT(res.cacheStats.placementMisses, lookups);
}

TEST(CostMemo, MatchesFabricOracleExactly)
{
    const auto &model = model::AreaPowerModel::instance();
    model::ComponentCostMemo memo;
    adg::Adg g = adg::buildDseInitial();

    model::ComponentCost oracle = model.fabric(g);
    model::ComponentCost memod = model::fabricMemo(model, g, memo);
    EXPECT_EQ(oracle.areaMm2, memod.areaMm2);  // bit-exact, not near
    EXPECT_EQ(oracle.powerMw, memod.powerMw);
    // Second walk is all hits and still exact.
    memod = model::fabricMemo(model, g, memo);
    EXPECT_EQ(oracle.areaMm2, memod.areaMm2);
    EXPECT_GT(memo.stats().hits, 0u);
}

TEST(CostMemo, IncrementalPricerMatchesOracleOverMutationChain)
{
    const auto &model = model::AreaPowerModel::instance();
    model::ComponentCostMemo memo;
    Explorer ex(workloads::suiteWorkloads("PolyBench"), tinyOpts());
    Rng rng(29);

    adg::Adg parent = adg::buildDseInitial();
    model::IncrementalFabricCost pricer;
    pricer.bind(parent, model, memo);

    int checked = 0;
    for (int i = 0; i < 120; ++i) {
        adg::Adg child = parent;
        ex.mutate(child, rng);
        if (!child.validate().empty())
            continue;
        model::ComponentCost fast = pricer.price(child);
        model::ComponentCost oracle = model.fabric(child);
        ASSERT_EQ(oracle.areaMm2, fast.areaMm2) << "mutation " << i;
        ASSERT_EQ(oracle.powerMw, fast.powerMw) << "mutation " << i;
        ++checked;
        if (i % 3 == 0) {  // walk the chain: accept and rebind
            parent = child;
            pricer.bind(parent, model, memo);
        }
    }
    // The chain must have actually exercised the pricer.
    EXPECT_GT(checked, 60);
}

TEST(CostMemo, CheckedOracleRunPasses)
{
    // checkCostOracle re-verifies every memoized/incremental price
    // against the full fabric() walk inside the explorer; any drift
    // aborts. A clean short run is the property test at system level.
    auto opts = tinyOpts();
    opts.maxIters = 10;
    opts.noImproveExit = 10;
    opts.checkCostOracle = true;
    opts.candidateBatch = 2;
    Explorer ex(workloads::suiteWorkloads("PolyBench"), opts);
    auto res = ex.run(adg::buildDseInitial());
    EXPECT_NE(res.stopReason, "error");
    EXPECT_GT(res.cacheStats.costHits + res.cacheStats.costMisses, 0u);
}

// ---------------------------------------------------------------------
// Batch dedup
// ---------------------------------------------------------------------

TEST(BatchDedup, OnOffProduceIdenticalTraces)
{
    auto on = tinyOpts();
    auto off = tinyOpts();
    on.candidateBatch = off.candidateBatch = 4;
    on.threads = off.threads = 2;
    off.dedupBatch = false;
    Explorer a(workloads::suiteWorkloads("PolyBench"), on);
    Explorer b(workloads::suiteWorkloads("PolyBench"), off);
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());
    expectSameHistory(ra, rb);
    EXPECT_EQ(ra.best.toText(), rb.best.toText());
    EXPECT_EQ(rb.cacheStats.dedupCollapsed, 0u);
}

} // namespace
} // namespace dsa::dse
