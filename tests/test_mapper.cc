/** @file Unit tests for the spatial scheduler + schedule repair. */

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

TEST(Scheduler, DotProductLegalOnSoftbrain)
{
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "crs");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 200, .seed = 3});
    EXPECT_TRUE(sched.cost.legal())
        << "unplaced=" << sched.cost.unplaced
        << " overuse=" << sched.cost.overuse
        << " violations=" << sched.cost.violations;
    EXPECT_GE(sched.cost.maxIi, 1);
}

TEST(Scheduler, Deterministic)
{
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "classifier");
    auto a = scheduleProgram(prog, hw, {.maxIters = 60, .seed = 9});
    auto b = scheduleProgram(prog, hw, {.maxIters = 60, .seed = 9});
    EXPECT_EQ(a.cost.scalar(), b.cost.scalar());
    for (size_t r = 0; r < a.regions.size(); ++r)
        EXPECT_EQ(a.regions[r].vertexMap, b.regions[r].vertexMap);
}

TEST(Scheduler, RoutesConnectMappedEndpoints)
{
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "classifier");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 200, .seed = 3});
    ASSERT_TRUE(sched.cost.legal());
    const auto &reg = prog.regions[0];
    const auto &rs = sched.regions[0];
    for (const auto &[key, route] : rs.routes) {
        ASSERT_FALSE(route.empty());
        const auto &vx = reg.dfg.vertex(key.first);
        adg::NodeId producer = rs.vertexMap[vx.operands[key.second].src];
        adg::NodeId consumer = rs.vertexMap[key.first];
        EXPECT_EQ(hw.edge(route.front()).src, producer);
        EXPECT_EQ(hw.edge(route.back()).dst, consumer);
        // Consecutive edges chain.
        for (size_t i = 1; i < route.size(); ++i)
            EXPECT_EQ(hw.edge(route[i - 1]).dst, hw.edge(route[i]).src);
    }
}

TEST(Scheduler, CtrlInstructionsRequireStreamJoinPes)
{
    adg::Adg hw = adg::buildSpu();
    auto prog = lowerOn(hw, "join");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 300, .seed = 3});
    ASSERT_TRUE(sched.cost.legal())
        << "unplaced=" << sched.cost.unplaced
        << " overuse=" << sched.cost.overuse;
    const auto &reg = prog.regions[0];
    const auto &rs = sched.regions[0];
    for (const auto &vx : reg.dfg.vertices()) {
        if (vx.kind != dfg::VertexKind::Instruction || !vx.ctrl.active())
            continue;
        const auto &pe = hw.node(rs.vertexMap[vx.id]).pe();
        EXPECT_EQ(pe.sched, adg::Scheduling::Dynamic);
        EXPECT_TRUE(pe.streamJoin);
    }
}

TEST(Scheduler, PortsLandOnMatchingSyncs)
{
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "crs");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 200, .seed = 3});
    ASSERT_TRUE(sched.cost.legal());
    const auto &reg = prog.regions[0];
    const auto &rs = sched.regions[0];
    for (dfg::VertexId p : reg.dfg.inputPorts()) {
        const auto &sy = hw.node(rs.vertexMap[p]).sync();
        EXPECT_EQ(sy.dir, adg::SyncDir::Input);
        EXPECT_GE(sy.lanes, reg.dfg.vertex(p).lanes);
    }
    for (dfg::VertexId p : reg.dfg.outputPorts())
        EXPECT_EQ(hw.node(rs.vertexMap[p]).sync().dir,
                  adg::SyncDir::Output);
}

TEST(Scheduler, StreamsBindCompatibleMemories)
{
    adg::Adg hw = adg::buildSpu();
    auto prog = lowerOn(hw, "histogram");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 200, .seed = 3});
    ASSERT_TRUE(sched.cost.legal());
    const auto &reg = prog.regions[0];
    const auto &rs = sched.regions[0];
    for (const auto &st : reg.streams) {
        if (!st.touchesMemory())
            continue;
        adg::NodeId m = rs.streamMap[st.id];
        ASSERT_NE(m, adg::kInvalidNode);
        const auto &mem = hw.node(m).mem();
        if (st.needsAtomic()) {
            EXPECT_TRUE(mem.atomicUpdate);
        }
        EXPECT_EQ(st.space == dfg::MemSpace::Main,
                  mem.kind == adg::MemKind::Main);
    }
}

TEST(Scheduler, UnschedulableWideVersion)
{
    // Unroll 8 ports exceed Softbrain's sync lanes -> no candidates ->
    // illegal schedule (this is how version selection prunes, §IV-E).
    adg::Adg hw = adg::buildSoftbrain();
    auto features = compiler::HwFeatures::fromAdg(hw);
    const auto &w = workloads::workload("mm");
    auto placement = compiler::Placement::autoLayout(w.kernel, features);
    auto r = compiler::lowerKernel(w.kernel, placement, features, {}, 16);
    if (!r.ok)
        GTEST_SKIP() << "version failed to lower (acceptable)";
    auto sched = scheduleProgram(r.version.program, hw,
                                 {.maxIters = 50, .seed = 3});
    EXPECT_FALSE(sched.cost.legal());
}

TEST(Repair, StripDeadDropsOnlyAffected)
{
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "classifier");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 200, .seed = 3});
    ASSERT_TRUE(sched.cost.legal());

    // Find a mapped PE and delete it.
    adg::NodeId victim = adg::kInvalidNode;
    for (size_t r = 0; r < prog.regions.size(); ++r)
        for (const auto &vx : prog.regions[r].dfg.vertices())
            if (vx.kind == dfg::VertexKind::Instruction)
                victim = sched.regions[r].vertexMap[vx.id];
    ASSERT_NE(victim, adg::kInvalidNode);
    hw.removeNode(victim);

    Schedule stripped = sched;
    int dropped = stripped.stripDead(hw);
    EXPECT_GT(dropped, 0);
    EXPECT_GT(stripped.countUnplaced(prog), 0);
    // Untouched assignments survive.
    int stillMapped = 0;
    for (const auto &rs : stripped.regions)
        for (adg::NodeId n : rs.vertexMap)
            stillMapped += n != adg::kInvalidNode;
    EXPECT_GT(stillMapped, 0);
}

TEST(Repair, RepairsAfterNodeRemoval)
{
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "classifier");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 200, .seed = 3});
    ASSERT_TRUE(sched.cost.legal());

    adg::NodeId victim = adg::kInvalidNode;
    for (const auto &vx : prog.regions[0].dfg.vertices())
        if (vx.kind == dfg::VertexKind::Instruction)
            victim = sched.regions[0].vertexMap[vx.id];
    hw.removeNode(victim);

    SpatialScheduler scheduler(prog, hw, {.maxIters = 150, .seed = 3});
    auto repaired = scheduler.run(&sched);
    EXPECT_TRUE(repaired.cost.legal())
        << "unplaced=" << repaired.cost.unplaced
        << " overuse=" << repaired.cost.overuse;
    // The deleted node is no longer referenced.
    for (const auto &rs : repaired.regions)
        for (adg::NodeId n : rs.vertexMap)
            EXPECT_NE(n, victim);
}

TEST(Repair, EvictsMappingsOnCapabilityLoss)
{
    // A DSE feature toggle (not a node deletion) invalidates mappings
    // that relied on the capability; repair must evict and re-place,
    // not silently keep an illegal assignment.
    adg::Adg hw = adg::buildSpu(5, 5);
    auto prog = lowerOn(hw, "join");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 400, .seed = 3});
    ASSERT_TRUE(sched.cost.legal());
    // Strip stream-join capability from the PE hosting the join unit.
    adg::NodeId joinPe = adg::kInvalidNode;
    for (const auto &vx : prog.regions[0].dfg.vertices())
        if (vx.kind == dfg::VertexKind::Instruction && vx.ctrl.active() &&
            (vx.op == OpCode::Cmp3 || vx.op == OpCode::FCmp3))
            joinPe = sched.regions[0].vertexMap[vx.id];
    ASSERT_NE(joinPe, adg::kInvalidNode);
    hw.node(joinPe).pe().streamJoin = false;
    hw.node(joinPe).pe().sched = adg::Scheduling::Static;

    SpatialScheduler scheduler(prog, hw, {.maxIters = 400, .seed = 3});
    auto repaired = scheduler.run(&sched);
    ASSERT_TRUE(repaired.cost.legal())
        << "overuse=" << repaired.cost.overuse
        << " unplaced=" << repaired.cost.unplaced;
    // The join unit moved off the downgraded PE.
    for (const auto &vx : prog.regions[0].dfg.vertices()) {
        if (vx.kind == dfg::VertexKind::Instruction && vx.ctrl.active()) {
            EXPECT_NE(repaired.regions[0].vertexMap[vx.id], joinPe);
        }
    }
}

TEST(Repair, FasterThanFullRemap)
{
    // Repair should need no placement work when nothing relevant died.
    adg::Adg hw = adg::buildSoftbrain();
    auto prog = lowerOn(hw, "crs");
    auto sched = scheduleProgram(prog, hw, {.maxIters = 200, .seed = 3});
    ASSERT_TRUE(sched.cost.legal());
    // Add a PE (pure addition: previous schedule remains valid).
    adg::PeProps pe;
    pe.ops = OpSet::allInteger();
    adg::NodeId newPe = hw.addPe(pe);
    auto switches = hw.aliveNodes(adg::NodeKind::Switch);
    hw.connect(switches[0], newPe);
    hw.connect(newPe, switches[1]);

    SpatialScheduler scheduler(prog, hw, {.maxIters = 30, .seed = 3});
    auto repaired = scheduler.run(&sched);
    EXPECT_TRUE(repaired.cost.legal());
}

/** Every Fig. 10 (workload, target) pair schedules legally. */
class TargetSweep
    : public ::testing::TestWithParam<const char *> {};

TEST_P(TargetSweep, SchedulesOnFigTarget)
{
    const auto &w = workloads::workload(GetParam());
    adg::Adg hw;
    if (w.fig10Target == "softbrain")
        hw = adg::buildSoftbrain();
    else if (w.fig10Target == "spu")
        hw = adg::buildSpu();
    else if (w.fig10Target == "revel")
        hw = adg::buildRevel();
    else if (w.fig10Target == "maeri")
        hw = adg::buildMaeri();
    else
        hw = adg::buildTriggered();
    auto features = compiler::HwFeatures::fromAdg(hw);
    auto placement = compiler::Placement::autoLayout(w.kernel, features);
    auto r = compiler::lowerKernel(w.kernel, placement, features, {}, 1);
    ASSERT_TRUE(r.ok) << r.error;
    auto sched = scheduleProgram(r.version.program, hw,
                                 {.maxIters = 800, .seed = 11});
    EXPECT_TRUE(sched.cost.legal())
        << GetParam() << " on " << w.fig10Target
        << ": unplaced=" << sched.cost.unplaced
        << " overuse=" << sched.cost.overuse
        << " violations=" << sched.cost.violations;
}

INSTANTIATE_TEST_SUITE_P(Fig10Pairs, TargetSweep,
                         ::testing::Values("crs", "ellpack", "histogram",
                                           "join", "classifier", "pool",
                                           "repupdate", "prodcons"));

} // namespace
} // namespace dsa::mapper
