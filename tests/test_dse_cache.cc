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

#include <dirent.h>
#include <unistd.h>

#include "adg/adg.h"
#include "adg/fingerprint.h"
#include "adg/prebuilt.h"
#include "dse/cache_store.h"
#include "dse/checkpoint.h"
#include "dse/entry_codec.h"
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
// Persistence: checkpoints hold no cache, the store carries it
// ---------------------------------------------------------------------

/** Remove a flat directory (a cache store) and everything in it. */
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

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Replace the value of every `"key":` member in compact JSON text. */
void
maskMember(std::string &text, const std::string &key)
{
    std::string tag = "\"" + key + "\":";
    for (size_t at = text.find(tag); at != std::string::npos;
         at = text.find(tag, at + tag.size())) {
        size_t v = at + tag.size();
        size_t end = text.find_first_of(",}", v);
        ASSERT_NE(end, std::string::npos);
        text.replace(v, end - v, "X");
    }
}

TEST(EvalCache, HitReplaysBitIdentically)
{
    // Outcomes are looked up, memoized and replayed in one place: the
    // run loop's evaluation step. A run warmed from a store takes
    // every evaluation from a hit, so its objectives, costs and
    // repair-cache side effects (the schedules its final checkpoint
    // holds) must equal the cold run's and the uncached reference's
    // down to the last bit.
    auto set = workloads::suiteWorkloads("PolyBench");
    std::string store = "dse_cache_hits.store";
    rmTree(store);
    auto coldOpts = tinyOpts();
    coldOpts.cacheStoreDir = store;
    coldOpts.checkpointPath = tmpPath("hits_cold");
    auto warmOpts = coldOpts;
    warmOpts.checkpointPath = tmpPath("hits_warm");
    auto refOpts = coldOpts;
    refOpts.checkpointPath = tmpPath("hits_ref");
    refOpts.cacheStoreDir.clear();
    refOpts.memoize = false;

    Explorer cold(set, coldOpts);
    auto rc = cold.run(adg::buildDseInitial());
    Explorer warm(set, warmOpts);
    auto rw = warm.run(adg::buildDseInitial());
    Explorer ref(set, refOpts);
    auto rr = ref.run(adg::buildDseInitial());

    EXPECT_GT(rc.cacheStats.evalMisses, 0u);
    EXPECT_EQ(rc.cacheStats.storeAppends, rc.cacheStats.evalInserts);
    EXPECT_EQ(rw.cacheStats.evalMisses, 0u);
    EXPECT_EQ(rw.cacheStats.evalInserts, 0u);
    EXPECT_EQ(rw.cacheStats.evalHits,
              rc.cacheStats.evalHits + rc.cacheStats.evalMisses);
    std::vector<uint64_t> schedHashes;
    for (const DseOptions *o : {&coldOpts, &warmOpts, &refOpts}) {
        auto ck = loadCheckpoint(o->checkpointPath);
        ASSERT_TRUE(ck.ok()) << ck.status().toString();
        schedHashes.push_back(hashScheduleCache(ck.value().state.schedules));
        std::remove(o->checkpointPath.c_str());
    }
    for (const DseResult *r : {&rw, &rr}) {
        expectSameHistory(rc, *r);
        EXPECT_EQ(rc.best.toText(), r->best.toText());
        EXPECT_EQ(rc.bestObjective, r->bestObjective);
        EXPECT_EQ(rc.bestPerf, r->bestPerf);
        EXPECT_EQ(rc.bestCost.areaMm2, r->bestCost.areaMm2);
        EXPECT_EQ(rc.bestCost.powerMw, r->bestCost.powerMw);
    }
    EXPECT_EQ(schedHashes[0], schedHashes[1]);
    EXPECT_EQ(schedHashes[0], schedHashes[2]);

    // A different incoming repair cache changes the context hash, so
    // an outcome evaluated against one repair cache is never replayed
    // against another.
    adg::Adg g = adg::buildDseInitial();
    ScheduleCache seeded;
    WorkerEvalOutcome out = cold.evaluateDesign(g, seeded, true);
    ASSERT_TRUE(out.status.ok()) << out.status.toString();
    cold.replayEvalEntry(*out.entry, seeded);
    ASSERT_FALSE(seeded.empty());
    EXPECT_NE(cold.makeEvalKey(g, seeded, true).context,
              cold.makeEvalKey(g, ScheduleCache(), true).context);
    rmTree(store);
}

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
    EXPECT_GT(ra.cacheStats.evalEntries, 0u);

    auto la = loadCheckpoint(cached.checkpointPath);
    auto lb = loadCheckpoint(uncached.checkpointPath);
    ASSERT_TRUE(la.ok()) << la.status().toString();
    ASSERT_TRUE(lb.ok()) << lb.status().toString();
    const DseRunState &sa = la.value().state;
    const DseRunState &sb = lb.value().state;

    // Everything the loop resumes from is identical.
    EXPECT_EQ(sa.current.toText(), sb.current.toText());
    EXPECT_DOUBLE_EQ(sa.curObj, sb.curObj);
    EXPECT_EQ(sa.iter, sb.iter);
    EXPECT_EQ(sa.noImprove, sb.noImprove);
    EXPECT_EQ(sa.rng.saveState(), sb.rng.saveState());
    EXPECT_EQ(hashScheduleCache(sa.schedules),
              hashScheduleCache(sb.schedules));
    expectSameHistory(sa.result, sb.result);
    EXPECT_EQ(sa.result.best.toText(), sb.result.best.toText());

    // The files hold no cache: once the options that differ by
    // construction are masked, they are byte-identical.
    std::string fa = readAll(cached.checkpointPath);
    std::string fb = readAll(uncached.checkpointPath);
    for (const char *key : {"memoize", "dedupBatch", "checkpointPath"}) {
        maskMember(fa, key);
        maskMember(fb, key);
    }
    EXPECT_EQ(fa, fb);

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

    // The halted run banks every fresh evaluation in a store; its
    // checkpoint only names the store.
    std::string store = "dse_cache_resume.store";
    rmTree(store);
    auto crashOpts = refOpts;
    crashOpts.checkpointPath = tmpPath("crash");
    crashOpts.cacheStoreDir = store;
    crashOpts.haltAfterCheckpoints = 1;
    Explorer crash(set, crashOpts);
    auto crashRes = crash.run(adg::buildDseInitial());
    ASSERT_EQ(crashRes.stopReason, "halted");
    ASSERT_GT(crashRes.cacheStats.storeAppends, 0u);

    auto loaded = loadCheckpoint(crashOpts.checkpointPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    DseCheckpoint ck = std::move(loaded.value());
    EXPECT_EQ(ck.options.cacheStoreDir, store);
    ck.options.haltAfterCheckpoints = 0;  // test knob; not serialized

    // Without the store the resume starts cold (the cold copy runs
    // first, so the warm resume below loads only what the halted run
    // appended)...
    DseOptions coldOpts = ck.options;
    coldOpts.cacheStoreDir.clear();
    Explorer cold(set, coldOpts);
    auto coldRes = cold.resume(ck.state);
    EXPECT_EQ(coldRes.cacheStats.storeLoaded, 0u);
    EXPECT_EQ(coldRes.cacheStats.evalInserts, coldRes.cacheStats.evalEntries);

    // ...and with it the resume warms from what the halted run banked.
    Explorer resumed(set, ck.options);
    auto res = resumed.resume(std::move(ck.state));
    EXPECT_EQ(res.cacheStats.storeLoaded, crashRes.cacheStats.storeAppends);
    EXPECT_GT(res.cacheStats.storeLoaded, 0u);
    // Loaded entries count as state, not as this process's work.
    EXPECT_EQ(res.cacheStats.evalInserts,
              res.cacheStats.evalEntries - res.cacheStats.storeLoaded);

    // Both finish exactly where the uninterrupted run did.
    for (const DseResult *r : {&coldRes, &res}) {
        expectSameHistory(refRes, *r);
        EXPECT_DOUBLE_EQ(refRes.bestObjective, r->bestObjective);
        EXPECT_EQ(refRes.best.toText(), r->best.toText());
    }

    rmTree(store);
    std::remove(refOpts.checkpointPath.c_str());
    std::remove(crashOpts.checkpointPath.c_str());
}

TEST(EvalCache, StoreRoundTripPreservesEntryBytes)
{
    // A real entry, schedules included, survives append -> load
    // byte-for-byte (CacheStore.AppendLoadRoundTrip covers synthetic
    // entries without schedules).
    Explorer ex(workloads::suiteWorkloads("PolyBench"), tinyOpts());
    adg::Adg g = adg::buildDseInitial();
    ScheduleCache scheds;
    EvalKey key = ex.makeEvalKey(g, scheds, true);
    WorkerEvalOutcome out = ex.evaluateDesign(g, scheds, true);
    ASSERT_TRUE(out.status.ok()) << out.status.toString();
    std::shared_ptr<const EvalCacheEntry> entry = out.entry;
    ASSERT_NE(entry, nullptr);
    bool scheduled = false;
    for (const EvalTaskOutcome &t : entry->tasks)
        scheduled |= t.legal && !t.sched.regions.empty();
    ASSERT_TRUE(scheduled);

    std::string dir = "dse_cache_entry.store";
    rmTree(dir);
    {
        CacheStore store(dir);
        ASSERT_TRUE(store.open().ok());
        ASSERT_TRUE(store.append(key, *entry).ok());
    }
    CacheStore reader(dir);
    ASSERT_TRUE(reader.open().ok());
    EvalCache fresh;
    ASSERT_TRUE(reader.loadInto(fresh).ok());
    EXPECT_EQ(reader.stats().recordsLoaded, 1u);
    auto back = fresh.find(key);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(encodeEvalEntry(key, *entry), encodeEvalEntry(key, *back));
    rmTree(dir);
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
