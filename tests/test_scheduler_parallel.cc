/**
 * @file
 * Tests for the routing pipeline (route cache, shared SSSP trees,
 * reverse-distance tables, landmark A*) and the parallel multi-chain
 * annealer.
 *
 * The routing contract is *exactness*: every route — cache hit, tree
 * backtrack or A* search — must equal what a fresh Dijkstra would
 * return. `SchedOptions::checkRoutes` turns every routed value of a
 * full stochastic run into an oracle assertion (the run is a long
 * random sequence of place/unplace mutations, so this is a property
 * test over thousands of usage states), from scratch and across
 * DSE-style hardware mutations.
 *
 * The multi-chain annealer's contract is *determinism*: chains=K picks
 * the winner by fixed-order reduction over independently-seeded
 * chains, so the result is a pure function of the options — identical
 * for any thread count (serial, 1, 2, 4 workers), and chain 0 keeps
 * the caller's seed so chains=K can never be worse than chains=1.
 */

#include <gtest/gtest.h>

#include "adg/prebuilt.h"
#include "base/thread_pool.h"
#include "compiler/compile.h"
#include "mapper/landmarks.h"
#include "mapper/scheduler.h"
#include "workloads/workload.h"

namespace dsa::mapper {
namespace {

dfg::DecoupledProgram
lowerOn(const adg::Adg &hw, const std::string &workload, int unroll = 1)
{
    auto features = compiler::HwFeatures::fromAdg(hw);
    const auto &w = workloads::workload(workload);
    auto placement = compiler::Placement::autoLayout(w.kernel, features);
    auto r = compiler::lowerKernel(w.kernel, placement, features, {},
                                   unroll);
    EXPECT_TRUE(r.ok) << r.error;
    return r.version.program;
}

adg::Adg
targetFor(const std::string &workload)
{
    const auto &w = workloads::workload(workload);
    if (w.fig10Target == "spu")
        return adg::buildSpu();
    return adg::buildSoftbrain();
}

/** Bit-for-bit schedule equality, with readable failure context. */
void
expectIdentical(const Schedule &a, const Schedule &b,
                const std::string &what)
{
    EXPECT_EQ(a.cost.unplaced, b.cost.unplaced) << what;
    EXPECT_EQ(a.cost.overuse, b.cost.overuse) << what;
    EXPECT_EQ(a.cost.violations, b.cost.violations) << what;
    EXPECT_EQ(a.cost.maxIi, b.cost.maxIi) << what;
    EXPECT_EQ(a.cost.recurrenceLatency, b.cost.recurrenceLatency) << what;
    EXPECT_EQ(a.cost.wirelength, b.cost.wirelength) << what;
    EXPECT_EQ(a.forwardRoutes, b.forwardRoutes) << what;
    ASSERT_EQ(a.regions.size(), b.regions.size()) << what;
    for (size_t r = 0; r < a.regions.size(); ++r) {
        const auto &ra = a.regions[r];
        const auto &rb = b.regions[r];
        EXPECT_EQ(ra.vertexMap, rb.vertexMap) << what << " region " << r;
        EXPECT_EQ(ra.streamMap, rb.streamMap) << what << " region " << r;
        EXPECT_EQ(ra.routes, rb.routes) << what << " region " << r;
        EXPECT_EQ(ra.recurrenceRoutes, rb.recurrenceRoutes)
            << what << " region " << r;
        EXPECT_EQ(ra.vertexTime, rb.vertexTime) << what << " region " << r;
    }
}

/**
 * Property test: a full stochastic run with the per-route oracle on.
 * Every route the pipeline produces (cache hit, SSSP backtrack or A*
 * result) is asserted equal to a fresh plain-Dijkstra search, across
 * every usage state the annealer wanders through.
 */
class CheckedRoutes : public ::testing::TestWithParam<const char *> {};

TEST_P(CheckedRoutes, FastPathMatchesDijkstraEveryRoute)
{
    adg::Adg hw = targetFor(GetParam());
    auto prog = lowerOn(hw, GetParam());
    SchedOptions opts{.maxIters = 40, .seed = 7};
    opts.checkRoutes = true;
    SpatialScheduler sch(prog, hw, opts);
    auto sched = sch.run();
    EXPECT_EQ(sched.cost.unplaced, 0) << "workload should fully place";
    // The oracle only bites if the pipeline actually ran.
    EXPECT_GT(sch.stats().astarSearches, 0u);
    EXPECT_GT(sch.stats().cacheHits, 0u)
        << "probe/place round trips should produce cache hits";
}

INSTANTIATE_TEST_SUITE_P(Workloads, CheckedRoutes,
                         ::testing::Values("crs", "mm", "classifier",
                                           "histogram"));

/**
 * The shared-tree and reverse-distance layers must answer routes under
 * the oracle too, or it checks nothing about them. histogram is too
 * small to repeat a source or target under one usage state; mm is not.
 */
TEST(CheckedRoutesLayers, TreeAndReverseLayersAnswerRoutes)
{
    adg::Adg hw = targetFor("mm");
    auto prog = lowerOn(hw, "mm");
    SchedOptions opts{.maxIters = 40, .seed = 7};
    opts.checkRoutes = true;
    SpatialScheduler sch(prog, hw, opts);
    sch.run();
    EXPECT_GT(sch.stats().ssspHits, 0u)
        << "no route was answered by an SSSP tree";
    EXPECT_GT(sch.stats().revHits, 0u)
        << "no A* search ran under a reverse-distance table";
}

/**
 * DSE-mutation property test: schedule, mutate the fabric the way the
 * explorer does (kill a used node), repair from the stale schedule —
 * the checkRoutes oracle must hold through the seeded/evict repair
 * path on the mutant (whose landmark table is a fresh entry, not the
 * parent's), and so must the checkIncremental oracle: the seed passes
 * through stripDead, eviction and the bindTo rebuild of the tracker
 * and route-length table.
 */
TEST(Mutation, RepairOnMutatedFabricStaysExact)
{
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "crs");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 200, .seed = 3});
    ASSERT_TRUE(sched.cost.legal());
    adg::NodeId victim = adg::kInvalidNode;
    for (const auto &vx : prog.regions[0].dfg.vertices())
        if (vx.kind == dfg::VertexKind::Instruction)
            victim = sched.regions[0].vertexMap[vx.id];
    ASSERT_NE(victim, adg::kInvalidNode);
    hw.removeNode(victim);

    SchedOptions opts{.maxIters = 80, .seed = 17};
    opts.checkRoutes = true; // oracles on the mutated fabric
    opts.checkIncremental = true;
    SpatialScheduler sch(prog, hw, opts);
    sch.run(&sched);
    EXPECT_GT(sch.stats().astarSearches, 0u);
}

/**
 * The landmark cache must key on the concrete live graph: a mutated
 * fabric (different topology, same builder) gets its own table, while
 * re-scheduling on an unchanged fabric reuses the cached one.
 */
TEST(Landmarks, CacheReusedAcrossSchedulersAndDistinctForMutants)
{
    adg::Adg hw = adg::buildSoftbrain();
    SchedOptions opts;
    auto a = landmarksFor(hw, opts.routeBaseCost, opts.routePePassCost);
    auto b = landmarksFor(hw, opts.routeBaseCost, opts.routePePassCost);
    EXPECT_EQ(a.get(), b.get()) << "identical fabric must share a table";

    adg::Adg mutant = hw;
    // Kill some switch: the topology (and the metric) changes.
    auto switches = mutant.aliveNodes(adg::NodeKind::Switch);
    ASSERT_FALSE(switches.empty());
    mutant.removeNode(switches.back());
    auto c = landmarksFor(mutant, opts.routeBaseCost, opts.routePePassCost);
    EXPECT_NE(a.get(), c.get()) << "mutant must not share the table";

    // Different cost knobs also mean a different (scaled) metric.
    auto d = landmarksFor(hw, opts.routeBaseCost * 2,
                          opts.routePePassCost);
    EXPECT_NE(a.get(), d.get());
}

/**
 * chains=K must be deterministic for any execution arrangement:
 * serial, and pools of 1, 2, and 4 workers all reduce to the same
 * winner because reduction order is fixed and chains share nothing.
 */
class Chains : public ::testing::TestWithParam<const char *> {};

TEST_P(Chains, DeterministicAcrossThreadCounts)
{
    adg::Adg hw = targetFor(GetParam());
    auto prog = lowerOn(hw, GetParam());
    SchedOptions base{.maxIters = 40, .seed = 11};
    base.chains = 4;

    auto runWith = [&](dsa::ThreadPool *pool) {
        SchedOptions o = base;
        o.chainPool = pool;
        SpatialScheduler sch(prog, hw, o);
        auto s = sch.run();
        EXPECT_EQ(sch.stats().chainsRun, 4u);
        return s;
    };
    auto serial = runWith(nullptr);
    for (int threads : {1, 2, 4}) {
        dsa::ThreadPool pool(threads);
        auto pooled = runWith(&pool);
        expectIdentical(serial, pooled,
                        std::string("chains serial-vs-pool(") +
                            std::to_string(threads) + ") on " +
                            GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Chains,
                         ::testing::Values("crs", "mm", "classifier"));

/**
 * Chain 0 keeps the caller's seed, so the multi-chain winner can never
 * have a worse scalar cost than the single-chain result — and when
 * chain 0 itself wins, the schedule is bit-identical to chains=1.
 */
TEST(Chains, NeverWorseThanSingleChain)
{
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "crs");
    SchedOptions one{.maxIters = 40, .seed = 11};
    auto single = scheduleProgram(prog, hw, one);
    SchedOptions four = one;
    four.chains = 4;
    auto multi = scheduleProgram(prog, hw, four);
    EXPECT_LE(multi.cost.scalar(), single.cost.scalar());
    if (!(multi.cost.scalar() < single.cost.scalar()))
        expectIdentical(multi, single, "chain-0 winner vs chains=1");
}

/**
 * chains=K repair: the multi-chain path must survive the seeded/evict
 * repair entry (shared initial schedule, per-chain eviction) and stay
 * deterministic under a pool.
 */
TEST(Chains, RepairDeterministicUnderPool)
{
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "classifier");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 200, .seed = 3});
    ASSERT_TRUE(sched.cost.legal());
    adg::NodeId victim = adg::kInvalidNode;
    for (const auto &vx : prog.regions[0].dfg.vertices())
        if (vx.kind == dfg::VertexKind::Instruction)
            victim = sched.regions[0].vertexMap[vx.id];
    ASSERT_NE(victim, adg::kInvalidNode);
    hw.removeNode(victim);

    SchedOptions opts{.maxIters = 60, .seed = 17};
    opts.chains = 3;
    SpatialScheduler serialSch(prog, hw, opts);
    auto serial = serialSch.run(&sched);
    dsa::ThreadPool pool(4);
    SchedOptions pooled = opts;
    pooled.chainPool = &pool;
    SpatialScheduler pooledSch(prog, hw, pooled);
    auto par = pooledSch.run(&sched);
    expectIdentical(serial, par, "chains repair serial-vs-pool");
}

} // namespace
} // namespace dsa::mapper
