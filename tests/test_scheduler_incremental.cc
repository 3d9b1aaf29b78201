/**
 * @file
 * Tests for the scheduler's incrementally-maintained bookkeeping
 * (UsageTracker + delta probes).
 *
 * Strategy: the rip-up/re-place loop of `SpatialScheduler::run` *is* a
 * long random sequence of place/unplace/route mutations, so running it
 * with `SchedOptions::checkIncremental` acts as a property test — at
 * every probe and every evaluation the scheduler asserts that (a) the
 * hook-maintained tracker equals a from-scratch rebuild and (b) the
 * delta-evaluated probe cost equals the full `evaluate()` oracle.
 * On top of that, reference-mode runs (`incremental = false`, which
 * recomputes everything from the schedule at each use point) must
 * produce bit-identical schedules for the same seed.
 */

#include <gtest/gtest.h>

#include "adg/prebuilt.h"
#include "compiler/compile.h"
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

/**
 * One scheduling case: a workload at an unroll factor on its Fig. 10
 * target, or on the DSE's initial fabric (`adg::buildDseInitial()`),
 * with an annealing budget.
 */
struct Case
{
    const char *workload;
    int maxIters;
    int unroll = 1;
    bool dseFabric = false;
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.workload << " unroll " << c.unroll
        << (c.dseFabric ? " on the DSE fabric" : "");
}

adg::Adg
fabricFor(const Case &c)
{
    return c.dseFabric ? adg::buildDseInitial() : targetFor(c.workload);
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
 * Property test: the whole stochastic run, cross-checked at every
 * step. checkIncremental makes each probe assert tracker == rebuild
 * and delta cost == oracle cost, so any drift in the incremental
 * bookkeeping aborts the test with the first divergent field.
 */
class CheckedRun : public ::testing::TestWithParam<Case> {};

TEST_P(CheckedRun, TrackerAndDeltasMatchOracleEveryStep)
{
    const Case &c = GetParam();
    adg::Adg hw = fabricFor(c);
    auto prog = lowerOn(hw, c.workload, c.unroll);
    auto sched = scheduleProgram(prog, hw,
                                 {.maxIters = c.maxIters,
                                  .seed = 7,
                                  .checkIncremental = true});
    // Reaching here means every cross-check passed; sanity-check that
    // the run did real work.
    EXPECT_GE(sched.cost.maxIi, 1);
    EXPECT_EQ(sched.cost.unplaced, 0) << "workload should fully place";
}

// md at unroll 4 on the DSE fabric: a MachSuite schedule of the size
// the exploration evaluates, at a small budget.
INSTANTIATE_TEST_SUITE_P(Workloads, CheckedRun,
                         ::testing::Values(Case{"crs", 25},
                                           Case{"classifier", 25},
                                           Case{"histogram", 25},
                                           Case{"md", 12, 4, true}));

/**
 * Bit-identical equivalence: the incremental fast path and the
 * recompute-everything reference mode must make the same decisions —
 * same routes, same placements, same cost — for the same seed.
 */
class Equivalence : public ::testing::TestWithParam<Case> {};

TEST_P(Equivalence, IncrementalMatchesReferenceBitForBit)
{
    const Case &c = GetParam();
    adg::Adg hw = fabricFor(c);
    auto prog = lowerOn(hw, c.workload, c.unroll);
    SchedOptions fast{.maxIters = c.maxIters, .seed = 13};
    SchedOptions ref = fast;
    ref.incremental = false;
    auto a = scheduleProgram(prog, hw, fast);
    auto b = scheduleProgram(prog, hw, ref);
    expectIdentical(a, b, std::string("incremental-vs-reference on ") +
                              c.workload);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Equivalence,
                         ::testing::Values(Case{"crs", 60}, Case{"mm", 60},
                                           Case{"classifier", 60},
                                           Case{"histogram", 60},
                                           Case{"md", 12, 4, true}));

TEST(Equivalence, RepairPathMatchesReferenceBitForBit)
{
    // Schedule, break the hardware, then repair from the stale
    // schedule in both modes: the seeded/evict path and the repair
    // loop must also be bit-identical.
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

    SchedOptions fast{.maxIters = 80, .seed = 17};
    SchedOptions ref = fast;
    ref.incremental = false;
    SpatialScheduler fastSch(prog, hw, fast);
    SpatialScheduler refSch(prog, hw, ref);
    auto a = fastSch.run(&sched);
    auto b = refSch.run(&sched);
    expectIdentical(a, b, "incremental-vs-reference repair");
}

TEST(Equivalence, RepairPathHoldsUnderCheckIncremental)
{
    // The repair seed path (bindTo a non-empty schedule + evictions)
    // exercised with the per-step oracle cross-check enabled.
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

    SpatialScheduler scheduler(prog, hw,
                               {.maxIters = 25,
                                .seed = 7,
                                .checkIncremental = true});
    auto repaired = scheduler.run(&sched);
    EXPECT_TRUE(repaired.cost.legal())
        << "unplaced=" << repaired.cost.unplaced
        << " overuse=" << repaired.cost.overuse;
}

/**
 * Determinism: same seed, same options -> bit-identical schedule.
 * (The scheduler's only entropy source is its seeded Rng; the
 * incremental machinery must not introduce iteration-order or
 * allocation-order dependence.)
 */
class Determinism : public ::testing::TestWithParam<const char *> {};

TEST_P(Determinism, SameSeedSameSchedule)
{
    adg::Adg hw = targetFor(GetParam());
    auto prog = lowerOn(hw, GetParam());
    SchedOptions opts{.maxIters = 60, .seed = 21};
    auto a = scheduleProgram(prog, hw, opts);
    auto b = scheduleProgram(prog, hw, opts);
    expectIdentical(a, b, std::string("determinism on ") + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Workloads, Determinism,
                         ::testing::Values("crs", "mm", "classifier"));

} // namespace
} // namespace dsa::mapper
