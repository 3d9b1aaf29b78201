/**
 * @file
 * Multi-objective DSE tests: Pareto dominance and archive invariants,
 * hypervolume geometry, bit-identical fronts across thread counts and
 * kill-and-resume, structured subgraph mutations, and the two bugfix
 * regressions that rode along (per-batch infeasible-exit counting and
 * degenerate-fabric rejection).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "adg/fingerprint.h"
#include "adg/prebuilt.h"
#include "adg/subgraph.h"
#include "dse/checkpoint.h"
#include "dse/explorer.h"
#include "dse/pareto.h"

namespace dsa::dse {
namespace {

ParetoPoint
pt(double perf, double area, double power)
{
    ParetoPoint p;
    p.perf = perf;
    p.areaMm2 = area;
    p.powerMw = power;
    return p;
}

// ---------------------------------------------------------------------
// Dominance & hypervolume geometry
// ---------------------------------------------------------------------

TEST(Pareto, DominanceSemantics)
{
    // Strictly better on every axis.
    EXPECT_TRUE(dominates(pt(2, 1, 1), pt(1, 2, 2)));
    // Equal on two axes, better on one — still dominates (weak).
    EXPECT_TRUE(dominates(pt(2, 1, 1), pt(1, 1, 1)));
    EXPECT_TRUE(dominates(pt(1, 0.5, 1), pt(1, 1, 1)));
    // Identical points do not dominate each other.
    EXPECT_FALSE(dominates(pt(1, 1, 1), pt(1, 1, 1)));
    // Trade-offs dominate in neither direction.
    EXPECT_FALSE(dominates(pt(2, 2, 1), pt(1, 1, 1)));
    EXPECT_FALSE(dominates(pt(1, 1, 1), pt(2, 2, 1)));
}

TEST(Pareto, HypervolumeMatchesHandComputedUnion)
{
    ParetoFront f(/*refAreaMm2=*/4, /*refPowerMw=*/4, /*maxSize=*/8);
    // Box [0,2] x [2,4] x [2,4]: 2 * 2 * 2 = 8.
    auto a = f.add(pt(2, 2, 2));
    EXPECT_TRUE(a.added);
    EXPECT_DOUBLE_EQ(a.hvGain, 8.0);
    EXPECT_DOUBLE_EQ(f.hypervolume(), 8.0);
    // Box [0,1] x [1,4] x [1,4] = 9; overlap with the first box is
    // [0,1] x [2,4] x [2,4] = 4; union = 8 + 9 - 4 = 13.
    auto b = f.add(pt(1, 1, 1));
    EXPECT_TRUE(b.added);
    EXPECT_DOUBLE_EQ(b.hvGain, 5.0);
    EXPECT_DOUBLE_EQ(f.hypervolume(), 13.0);
    // A point outside the reference box contributes nothing but is
    // still non-dominated (it may dominate future points).
    auto c = f.add(pt(3, 5, 5));
    EXPECT_TRUE(c.added);
    EXPECT_DOUBLE_EQ(c.hvGain, 0.0);
    EXPECT_DOUBLE_EQ(f.hypervolume(), 13.0);
}

TEST(Pareto, DominatedAndDuplicateInsertionsRejected)
{
    ParetoFront f(4, 4, 8);
    EXPECT_TRUE(f.add(pt(2, 2, 2)).added);
    auto dup = f.add(pt(2, 2, 2));
    EXPECT_FALSE(dup.added);
    EXPECT_DOUBLE_EQ(dup.hvGain, 0.0);
    auto dom = f.add(pt(1, 3, 3));
    EXPECT_FALSE(dom.added);
    EXPECT_EQ(f.size(), 1u);
    // A dominating insertion evicts what it covers.
    EXPECT_TRUE(f.add(pt(3, 1, 1)).added);
    EXPECT_EQ(f.size(), 1u);
    EXPECT_DOUBLE_EQ(f.points()[0].perf, 3.0);
}

TEST(Pareto, BoundedArchivePrunesSmallestContribution)
{
    ParetoFront f(10, 10, 2);
    // Three mutually non-dominated points; the middle one's exclusive
    // contribution is the smallest by construction.
    EXPECT_TRUE(f.add(pt(9, 1, 9)).added);
    EXPECT_TRUE(f.add(pt(1, 9, 1)).added);
    auto mid = f.add(pt(5, 8.9, 8.9));  // thin sliver beyond the others
    EXPECT_EQ(f.size(), 2u);
    EXPECT_FALSE(mid.added);  // pruned right back out
    EXPECT_GE(mid.hvGain, 0.0);
    for (const auto &p : f.points())
        EXPECT_NE(p.perf, 5.0);
}

TEST(Pareto, ArchiveInvariantsUnderDeterministicStream)
{
    ParetoFront f(8, 8, 6);
    Rng rng(99);
    double lastHv = 0;
    for (int i = 0; i < 300; ++i) {
        double perf = 0.1 + 7.8 * rng.chance(0.5) +
                      0.01 * static_cast<double>(rng.uniformInt(0, 99));
        double area = 0.1 + 0.07 * static_cast<double>(rng.uniformInt(0, 99));
        double power = 0.1 + 0.07 * static_cast<double>(rng.uniformInt(0, 99));
        auto out = f.add(pt(perf, area, power));
        // Hypervolume never shrinks and per-add gain is never negative.
        EXPECT_GE(out.hvGain, -1e-12);
        EXPECT_GE(f.hypervolume(), lastHv - 1e-12);
        lastHv = f.hypervolume();
        // Bounded and mutually non-dominated at every step.
        ASSERT_LE(f.size(), 6u);
        for (size_t a = 0; a < f.size(); ++a) {
            for (size_t b = 0; b < f.size(); ++b) {
                if (a != b) {
                    ASSERT_FALSE(
                        dominates(f.points()[a], f.points()[b]));
                }
            }
        }
    }
    EXPECT_GT(f.size(), 1u);
}

TEST(Pareto, RestoreContinuesSequenceNumbers)
{
    ParetoFront f(4, 4, 4);
    f.add(pt(2, 2, 2));
    f.add(pt(1, 1, 1));
    std::vector<ParetoPoint> pts(f.points().begin(), f.points().end());
    ParetoFront g = ParetoFront::restore(4, 4, 4, pts);
    EXPECT_EQ(g.size(), 2u);
    EXPECT_DOUBLE_EQ(g.hypervolume(), f.hypervolume());
    auto out = g.add(pt(3, 3, 0.5));
    ASSERT_TRUE(out.added);
    // The new point's seq is strictly past every restored one.
    uint64_t maxRestored = 0;
    for (const auto &p : pts)
        maxRestored = std::max(maxRestored, p.seq);
    uint64_t newSeq = 0;
    for (const auto &p : g.points())
        newSeq = std::max(newSeq, p.seq);
    EXPECT_GT(newSeq, maxRestored);
}

// ---------------------------------------------------------------------
// Explorer integration
// ---------------------------------------------------------------------

DseOptions
paretoOpts()
{
    DseOptions o;
    o.maxIters = 24;
    o.noImproveExit = 24;
    o.schedIters = 20;
    o.initSchedIters = 300;
    o.unrollFactors = {1, 4};
    o.seed = 3;
    o.pareto = true;
    o.paretoFrontSize = 8;
    return o;
}

void
expectSameFront(const DseResult &a, const DseResult &b)
{
    ASSERT_EQ(a.front.size(), b.front.size());
    for (size_t i = 0; i < a.front.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.front[i].perf, b.front[i].perf);
        EXPECT_DOUBLE_EQ(a.front[i].areaMm2, b.front[i].areaMm2);
        EXPECT_DOUBLE_EQ(a.front[i].powerMw, b.front[i].powerMw);
        EXPECT_DOUBLE_EQ(a.front[i].objective, b.front[i].objective);
        EXPECT_EQ(a.front[i].iter, b.front[i].iter);
    }
    EXPECT_DOUBLE_EQ(a.frontHypervolume, b.frontHypervolume);
}

TEST(ParetoExplorer, FrontNonDominatedAndHypervolumeMonotone)
{
    Explorer ex(workloads::suiteWorkloads("PolyBench"), paretoOpts());
    auto res = ex.run(adg::buildDseInitial());
    ASSERT_FALSE(res.front.empty());
    EXPECT_GT(res.frontHypervolume, 0.0);
    for (size_t i = 0; i < res.front.size(); ++i)
        for (size_t j = 0; j < res.front.size(); ++j) {
            if (i == j)
                continue;
            ParetoPoint a = pt(res.front[i].perf, res.front[i].areaMm2,
                               res.front[i].powerMw);
            ParetoPoint b = pt(res.front[j].perf, res.front[j].areaMm2,
                               res.front[j].powerMw);
            EXPECT_FALSE(dominates(a, b));
        }
    // The per-record hypervolume column never decreases and ends at
    // the reported front hypervolume.
    double last = 0;
    for (const auto &h : res.history) {
        EXPECT_GE(h.hypervolume, last - 1e-12);
        last = h.hypervolume;
    }
    EXPECT_DOUBLE_EQ(res.history.back().hypervolume,
                     res.frontHypervolume);
}

TEST(ParetoExplorer, FrontBitIdenticalAcrossThreadCounts)
{
    auto serial = paretoOpts();
    auto parallel = paretoOpts();
    parallel.threads = 4;
    parallel.candidateBatch = 3;
    serial.candidateBatch = 3;
    Explorer a(workloads::suiteWorkloads("PolyBench"), serial);
    Explorer b(workloads::suiteWorkloads("PolyBench"), parallel);
    auto ra = a.run(adg::buildDseInitial());
    auto rb = b.run(adg::buildDseInitial());
    expectSameFront(ra, rb);
    EXPECT_EQ(ra.best.toText(), rb.best.toText());
    ASSERT_EQ(ra.history.size(), rb.history.size());
    for (size_t i = 0; i < ra.history.size(); ++i)
        EXPECT_DOUBLE_EQ(ra.history[i].hypervolume,
                         rb.history[i].hypervolume);
}

TEST(ParetoExplorer, FrontSurvivesKillAndResumeBitIdentically)
{
    auto set = workloads::suiteWorkloads("PolyBench");
    auto refOpts = paretoOpts();
    refOpts.checkpointPath = "pareto_ref.ckpt";
    refOpts.checkpointEvery = 1;
    Explorer ref(set, refOpts);
    auto refRes = ref.run(adg::buildDseInitial());
    ASSERT_GT(refRes.checkpointsWritten, 1);
    ASSERT_FALSE(refRes.front.empty());

    auto crashOpts = refOpts;
    crashOpts.checkpointPath = "pareto_crash.ckpt";
    crashOpts.haltAfterCheckpoints = 1;
    Explorer crashed(set, crashOpts);
    auto crashRes = crashed.run(adg::buildDseInitial());
    EXPECT_EQ(crashRes.stopReason, "halted");

    auto loaded = loadCheckpoint(crashOpts.checkpointPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    DseCheckpoint ck = std::move(loaded.value());
    EXPECT_TRUE(ck.options.pareto);
    ck.options.haltAfterCheckpoints = 0;  // test knob; not serialized
    Explorer resumed(set, ck.options);
    auto resRes = resumed.resume(std::move(ck.state));

    expectSameFront(refRes, resRes);
    EXPECT_EQ(refRes.best.toText(), resRes.best.toText());
    EXPECT_EQ(refRes.stopReason, resRes.stopReason);
    std::remove(refOpts.checkpointPath.c_str());
    std::remove(crashOpts.checkpointPath.c_str());
}

TEST(ParetoExplorer, ScalarTraceUnchangedByDefault)
{
    // The Pareto machinery must be invisible when off: a default-option
    // run reports no front and zero hypervolume in every record.
    DseOptions o = paretoOpts();
    o.pareto = false;
    Explorer ex(workloads::suiteWorkloads("PolyBench"), o);
    auto res = ex.run(adg::buildDseInitial());
    EXPECT_TRUE(res.front.empty());
    EXPECT_DOUBLE_EQ(res.frontHypervolume, 0.0);
    for (const auto &h : res.history)
        EXPECT_DOUBLE_EQ(h.hypervolume, 0.0);
}

// ---------------------------------------------------------------------
// Structured subgraph mutations
// ---------------------------------------------------------------------

TEST(StructuredMutations, SubgraphCloneIsValidAndDiscriminated)
{
    adg::Adg g = adg::buildDseInitial();
    auto switches = g.aliveNodes(adg::NodeKind::Switch);
    ASSERT_GE(switches.size(), 2u);
    adg::AdgKey before = adg::canonicalKey(g);

    auto region = adg::fabricNeighborhood(g, switches[0], 1, 6);
    ASSERT_GE(region.size(), 2u);
    auto clone = adg::cloneSubgraph(g, region);
    EXPECT_EQ(clone.nodeMap.size(), region.size());
    // Stitch the clone in so validate() can see it is reachable.
    adg::NodeId sw = clone.nodeMap.at(switches[0]);
    g.connect(switches[1], sw);
    g.connect(sw, switches[1]);
    auto problems = g.validate();
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
    // The canonical fingerprint must tell the grown fabric apart.
    EXPECT_FALSE(adg::canonicalKey(g) == before);
}

TEST(StructuredMutations, MutationWalkStaysValid)
{
    Explorer ex(workloads::suiteWorkloads("PolyBench"), paretoOpts());
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
    // Structured moves in the draw must not crater mutation validity.
    EXPECT_GT(validCount, 150);
}

TEST(StructuredMutations, DisablingChangesTheDrawStream)
{
    auto with = paretoOpts();
    auto without = paretoOpts();
    without.structuredMoves = false;
    Explorer a(workloads::suiteWorkloads("PolyBench"), with);
    Explorer b(workloads::suiteWorkloads("PolyBench"), without);
    Rng ra(5), rb(5);
    adg::Adg ga = adg::buildDseInitial();
    adg::Adg gb = ga;
    bool sawStructured = false;
    for (int i = 0; i < 400; ++i) {
        std::string la = a.mutate(ga, ra);
        sawStructured |= la == "grow tile" || la == "shrink tile" ||
                         la == "clone region" || la == "rewire fabric";
        b.mutate(gb, rb);
    }
    // The structured labels can only appear when the flag is on.
    EXPECT_TRUE(sawStructured);
}

// ---------------------------------------------------------------------
// Bugfix regressions
// ---------------------------------------------------------------------

TEST(InfeasibleExit, CountsBatchesNotCandidates)
{
    // A budget nothing can meet: every candidate is rejected before
    // evaluation. The streak must advance once per *step*, so the exit
    // threshold means the same thing at any candidateBatch.
    auto base = paretoOpts();
    base.pareto = false;
    base.maxIters = 98;  // iter starts at 2: exactly 96 candidates
    base.noImproveExit = 100000;
    base.infeasibleExit = 5;
    base.areaBudgetMm2 = 1e-4;

    auto serial = base;
    serial.candidateBatch = 1;
    Explorer a(workloads::suiteWorkloads("PolyBench"), serial);
    auto ra = a.run(adg::buildDseInitial());
    EXPECT_EQ(ra.stopReason, "infeasible");
    EXPECT_EQ(ra.history.size(), 2u);  // only the two seed records

    // 96 candidates in 3 batches of 32: the streak only reaches 3,
    // so the run exhausts maxIters instead. (The old per-candidate
    // counter would have fired "infeasible" inside the first batch.)
    auto batched = base;
    batched.candidateBatch = 32;
    Explorer b(workloads::suiteWorkloads("PolyBench"), batched);
    auto rb = b.run(adg::buildDseInitial());
    EXPECT_EQ(rb.stopReason, "max-iters");
    EXPECT_EQ(rb.history.size(), 2u);

    // With the threshold under the batch count the exit still fires.
    auto tight = batched;
    tight.maxIters = 100000;
    tight.infeasibleExit = 3;
    Explorer c(workloads::suiteWorkloads("PolyBench"), tight);
    auto rc = c.run(adg::buildDseInitial());
    EXPECT_EQ(rc.stopReason, "infeasible");
}

TEST(DegenerateFabric, PeLessDesignScoresZeroNotMillions)
{
    adg::Adg g = adg::buildDseInitial();
    for (adg::NodeId pe : g.aliveNodes(adg::NodeKind::Pe))
        g.removeNode(pe);
    // The bug premise: a PE-less fabric still passes validate() (only
    // memory + syncs are required), and its near-zero area hits the
    // max(1e-6, area) clamp — the old objective exploded to ~perf^2*1e6.
    auto problems = g.validate();
    ASSERT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
    ASSERT_TRUE(Explorer::isDegenerateFabric(g));

    Explorer ex(workloads::suiteWorkloads("PolyBench"), paretoOpts());
    ScheduleCache cache;
    auto out = ex.evaluateDesign(g, cache, false);
    ASSERT_TRUE(out.status.ok()) << out.status.toString();
    ex.replayEvalEntry(*out.entry, cache);
    EXPECT_DOUBLE_EQ(out.entry->objective, 0.0);
    EXPECT_GT(out.entry->perf, 0.0);  // host fallback, not a crash
}

TEST(DegenerateFabric, NeverAcceptedNorOnFront)
{
    Explorer ex(workloads::suiteWorkloads("PolyBench"), paretoOpts());
    auto res = ex.run(adg::buildDseInitial());
    EXPECT_FALSE(res.best.aliveNodes(adg::NodeKind::Pe).empty());
    for (const auto &p : res.front)
        EXPECT_GT(p.areaMm2, 1e-3);
}

// ---------------------------------------------------------------------
// Scalar objective with power (satellite of the Pareto work)
// ---------------------------------------------------------------------

TEST(PowerObjective, WeightZeroIsLegacyFormulaBitExact)
{
    Explorer ex(workloads::suiteWorkloads("PolyBench"), paretoOpts());
    model::ComponentCost cost;
    cost.areaMm2 = 1.7;
    cost.powerMw = 800.0;
    EXPECT_DOUBLE_EQ(ex.scalarObjective(2.0, cost), 4.0 / 1.7);
}

TEST(PowerObjective, NonzeroWeightPenalizesPower)
{
    auto o = paretoOpts();
    o.powerObjectiveWeight = 1.0;
    Explorer ex(workloads::suiteWorkloads("PolyBench"), o);
    model::ComponentCost cheap, hungry;
    cheap.areaMm2 = hungry.areaMm2 = 1.0;
    cheap.powerMw = 500.0;
    hungry.powerMw = 2000.0;
    EXPECT_GT(ex.scalarObjective(2.0, cheap),
              ex.scalarObjective(2.0, hungry));
    // weight 1 divides by exactly (powerMw/1000).
    EXPECT_DOUBLE_EQ(ex.scalarObjective(2.0, hungry), 4.0 / 2.0);
}

} // namespace
} // namespace dsa::dse
