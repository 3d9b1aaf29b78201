/** @file Design-space explorer tests. */

#include <gtest/gtest.h>

#include "adg/prebuilt.h"
#include "dse/explorer.h"
#include "model/regression.h"

namespace dsa::dse {
namespace {

DseOptions
fastOpts()
{
    DseOptions o;
    o.maxIters = 60;
    o.noImproveExit = 50;
    o.schedIters = 30;
    o.initSchedIters = 600;
    o.unrollFactors = {1, 4};
    o.seed = 3;
    return o;
}

TEST(Explorer, ImprovesObjectiveOnPolybench)
{
    Explorer ex(workloads::suiteWorkloads("PolyBench"), fastOpts());
    auto res = ex.run(adg::buildDseInitial());
    EXPECT_GT(res.bestObjective, res.initialObjective);
    EXPECT_GT(res.history.size(), 2u);
    EXPECT_GT(res.bestPerf, 0.0);
    EXPECT_TRUE(res.best.validate().empty());
}

TEST(Explorer, TrimsAreaFromInitial)
{
    Explorer ex(workloads::suiteWorkloads("PolyBench"), fastOpts());
    auto res = ex.run(adg::buildDseInitial());
    // Dense kernels need no indirect/atomic/join hardware: the pruned
    // and explored design is smaller than the full-capability initial.
    EXPECT_LT(res.bestCost.areaMm2, res.initialCost.areaMm2);
}

TEST(Explorer, PruneRemovesUnusedFeatures)
{
    Explorer ex(workloads::suiteWorkloads("PolyBench"), fastOpts());
    adg::Adg g = adg::buildDseInitial();
    ex.pruneUnused(g);
    for (adg::NodeId id : g.aliveNodes(adg::NodeKind::Memory)) {
        EXPECT_FALSE(g.node(id).mem().indirect);
        EXPECT_FALSE(g.node(id).mem().atomicUpdate);
    }
    for (adg::NodeId id : g.aliveNodes(adg::NodeKind::Pe)) {
        const auto &pe = g.node(id).pe();
        EXPECT_FALSE(pe.streamJoin);
        // FP divide is not used by matrix multiply.
        EXPECT_FALSE(pe.ops.contains(OpCode::FDiv));
    }
}

TEST(Explorer, PruneKeepsNeededFeatures)
{
    Explorer ex(workloads::suiteWorkloads("Sparse"), fastOpts());
    adg::Adg g = adg::buildDseInitial();
    ex.pruneUnused(g);
    bool indirectSomewhere = false;
    for (adg::NodeId id : g.aliveNodes(adg::NodeKind::Memory))
        indirectSomewhere |= g.node(id).mem().indirect;
    EXPECT_TRUE(indirectSomewhere);  // histogram needs it
    bool joinSomewhere = false;
    for (adg::NodeId id : g.aliveNodes(adg::NodeKind::Pe))
        joinSomewhere |= g.node(id).pe().streamJoin;
    EXPECT_TRUE(joinSomewhere);  // join kernel needs it
}

TEST(Explorer, MutationsPreserveValidity)
{
    Explorer ex(workloads::suiteWorkloads("PolyBench"), fastOpts());
    Rng rng(17);
    adg::Adg g = adg::buildDseInitial();
    int validCount = 0;
    for (int i = 0; i < 200; ++i) {
        adg::Adg cand = g;
        ex.mutate(cand, rng);
        if (cand.validate().empty()) {
            ++validCount;
            g = cand;  // walk through the space
        }
    }
    // The vast majority of mutations keep the design structurally valid.
    EXPECT_GT(validCount, 150);
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
        EXPECT_DOUBLE_EQ(a.history[i].objective,
                         b.history[i].objective);
    }
}

DseOptions
tinyOpts()
{
    DseOptions o = fastOpts();
    o.maxIters = 24;
    o.noImproveExit = 24;
    o.schedIters = 20;
    o.initSchedIters = 300;
    return o;
}

TEST(Explorer, HistoryTraceDeterministicAcrossRuns)
{
    Explorer a(workloads::suiteWorkloads("PolyBench"), tinyOpts());
    Explorer b(workloads::suiteWorkloads("PolyBench"), tinyOpts());
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());
    expectSameHistory(ra, rb);
    EXPECT_EQ(ra.best.toText(), rb.best.toText());
}

TEST(Explorer, SerialAndParallelTracesIdentical)
{
    auto serial = tinyOpts();
    auto parallel = tinyOpts();
    serial.threads = 1;
    parallel.threads = 4;
    Explorer a(workloads::suiteWorkloads("PolyBench"), serial);
    Explorer b(workloads::suiteWorkloads("PolyBench"), parallel);
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());
    // Bit-identical: per-task seeds are hashed from (seed, kernel,
    // unroll) and all reductions run in fixed task order, so thread
    // count must not change a single trace entry.
    expectSameHistory(ra, rb);
    EXPECT_DOUBLE_EQ(ra.bestObjective, rb.bestObjective);
    EXPECT_EQ(ra.best.toText(), rb.best.toText());
}

TEST(Explorer, BatchedExplorationDeterministic)
{
    auto opts = tinyOpts();
    opts.candidateBatch = 3;
    opts.threads = 3;
    Explorer a(workloads::suiteWorkloads("PolyBench"), opts);
    Explorer b(workloads::suiteWorkloads("PolyBench"), opts);
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());
    expectSameHistory(ra, rb);
    EXPECT_EQ(ra.best.toText(), rb.best.toText());
    EXPECT_GT(ra.bestObjective, 0.0);
}

TEST(Explorer, RepairCacheOnlyStoresLegalSchedules)
{
    // Starve the scheduler so some versions come back illegal; the
    // cache must never expose an illegal schedule as a repair seed.
    auto opts = fastOpts();
    opts.initSchedIters = 1;
    opts.schedIters = 1;
    Explorer ex(workloads::suiteWorkloads("MachSuite"), opts);
    ScheduleCache cache;
    ex.evaluateDesign(adg::buildDseInitial(), cache, true, nullptr,
                      nullptr);
    ASSERT_FALSE(cache.empty());
    bool sawIllegalAttempt = false;
    for (const auto &[key, entry] : cache) {
        if (entry.hasLegal)
            EXPECT_TRUE(entry.sched.cost.legal());
        else
            sawIllegalAttempt = true;
    }
    // With a 1-iteration budget at least one hard kernel fails to
    // map; its entry is tagged attempted-but-illegal, not poisoned.
    EXPECT_TRUE(sawIllegalAttempt);
}

TEST(Explorer, IllegalStepKeepsPreviousLegalSeed)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    Explorer ex(set, fastOpts());
    ScheduleCache cache;
    adg::Adg g = adg::buildDseInitial();
    ex.evaluateDesign(g, cache, true, nullptr, nullptr);
    std::vector<std::pair<int, int>> legalKeys;
    for (const auto &[key, entry] : cache)
        if (entry.hasLegal)
            legalKeys.push_back(key);
    ASSERT_FALSE(legalKeys.empty());

    // Perturb the hardware hard (drop half the PEs) and re-evaluate
    // with a starved 1-iteration budget: repairs that come back
    // illegal must not evict the previously cached legal seeds.
    auto pes = g.aliveNodes(adg::NodeKind::Pe);
    for (size_t i = 0; i + 2 < pes.size(); i += 2)
        g.removeNode(pes[i]);
    auto starved = fastOpts();
    starved.initSchedIters = 1;
    starved.schedIters = 1;
    Explorer ex2(set, starved);
    ex2.evaluateDesign(g, cache, true, nullptr, nullptr);
    for (const auto &key : legalKeys) {
        EXPECT_TRUE(cache[key].hasLegal);
        EXPECT_TRUE(cache[key].sched.cost.legal());
    }
}

TEST(Explorer, InfeasibleStreakBoundsRuntime)
{
    // A budget nothing can meet: every mutation is rejected before
    // evaluation. The run must still terminate (via infeasibleExit,
    // not noImproveExit, which infeasible candidates no longer trip)
    // and record no candidate evaluations.
    auto opts = fastOpts();
    opts.maxIters = 100000;
    opts.noImproveExit = 100000;
    opts.infeasibleExit = 40;
    opts.areaBudgetMm2 = 1e-4;
    Explorer ex(workloads::suiteWorkloads("PolyBench"), opts);
    auto res = ex.run(adg::buildDseInitial());
    EXPECT_EQ(res.history.size(), 2u);  // only the two seed records
}

TEST(Explorer, DeterministicWithSeed)
{
    Explorer a(workloads::suiteWorkloads("PolyBench"), fastOpts());
    Explorer b(workloads::suiteWorkloads("PolyBench"), fastOpts());
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());
    EXPECT_DOUBLE_EQ(ra.bestObjective, rb.bestObjective);
    EXPECT_EQ(ra.best.toText(), rb.best.toText());
}

TEST(Explorer, HistoryRecordsBudgetRespected)
{
    auto opts = fastOpts();
    opts.areaBudgetMm2 = 2.0;
    Explorer ex(workloads::suiteWorkloads("PolyBench"), opts);
    auto res = ex.run(adg::buildDseInitial());
    for (const auto &h : res.history) {
        if (h.accepted) {
            EXPECT_LE(h.areaMm2, opts.areaBudgetMm2 * 1.05);
        }
    }
}

TEST(Explorer, RepairAndRemapBothLegalButRepairNoWorse)
{
    auto optsRepair = fastOpts();
    auto optsRemap = fastOpts();
    optsRemap.useRepair = false;
    Explorer a(workloads::suiteWorkloads("PolyBench"), optsRepair);
    Explorer b(workloads::suiteWorkloads("PolyBench"), optsRemap);
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());
    EXPECT_GT(ra.bestObjective, 0);
    EXPECT_GT(rb.bestObjective, 0);
    // With equal budgets, repair should reach at least ~70% of the
    // remap objective (it is usually ahead; Fig. 11 shows ~1.3x).
    EXPECT_GT(ra.bestObjective, 0.7 * rb.bestObjective);
}

} // namespace
} // namespace dsa::dse
