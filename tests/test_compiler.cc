/** @file Unit tests for modular compilation (feature gating, lowering). */

#include <gtest/gtest.h>

#include "adg/prebuilt.h"
#include "compiler/compile.h"
#include "workloads/workload.h"

namespace dsa::compiler {
namespace {

using namespace dsa::ir;
using dsa::dfg::StreamKind;
using dsa::dfg::VertexKind;

struct Ctx
{
    adg::Adg hw;
    HwFeatures features;
    explicit Ctx(adg::Adg g) : hw(std::move(g))
    {
        features = HwFeatures::fromAdg(hw);
    }
};

LowerResult
lower(const Ctx &c, const KernelSource &k, int unroll = 1,
      CompileOptions opts = {})
{
    auto placement = Placement::autoLayout(k, c.features);
    return lowerKernel(k, placement, c.features, opts, unroll);
}

TEST(Features, FromAdgSoftbrain)
{
    auto f = HwFeatures::fromAdg(adg::buildSoftbrain());
    EXPECT_FALSE(f.dynamicPes);
    EXPECT_FALSE(f.streamJoin);
    EXPECT_FALSE(f.indirectMemory);
    EXPECT_TRUE(f.hasSpad);
    EXPECT_GT(f.numPes, 0);
    EXPECT_GT(f.totalInputLanes, 0);
}

TEST(Features, FromAdgSpu)
{
    auto f = HwFeatures::fromAdg(adg::buildSpu());
    EXPECT_TRUE(f.dynamicPes);
    EXPECT_TRUE(f.streamJoin);
    EXPECT_TRUE(f.indirectMemory);
    EXPECT_TRUE(f.atomicUpdate);
}

TEST(Placement, SpadHintHonored)
{
    KernelSource k;
    k.name = "p";
    k.arrays = {{"big", 1 << 20, 8, false, false},
                {"small", 64, 8, false, true}};
    auto f = HwFeatures::fromAdg(adg::buildSpu());
    auto p = Placement::autoLayout(k, f);
    EXPECT_EQ(p.loc("big").space, dfg::MemSpace::Main);
    EXPECT_EQ(p.loc("small").space, dfg::MemSpace::Spad);
    EXPECT_GT(p.mainBytes(), 0);
}

TEST(Placement, SpadOverflowFallsBackToMain)
{
    KernelSource k;
    k.name = "p";
    // Two spad-hinted arrays that cannot both fit a 16 KiB scratchpad.
    k.arrays = {{"x", 1600, 8, false, true}, {"y", 1600, 8, false, true}};
    auto f = HwFeatures::fromAdg(adg::buildSpu());
    f.spadCapacityBytes = 16 * 1024;
    auto p = Placement::autoLayout(k, f);
    EXPECT_EQ(p.loc("x").space, dfg::MemSpace::Spad);
    EXPECT_EQ(p.loc("y").space, dfg::MemSpace::Main);
}

/** The dot-product kernel used by several tests below. */
KernelSource
dotKernel(int64_t n)
{
    KernelSource k;
    k.name = "dot";
    k.params["n"] = n;
    k.arrays = {{"a", n, 8, true, false},
                {"b", n, 8, true, false},
                {"c", 1, 8, true, false}};
    k.body = {
        makeLet("v", floatConst(0.0)),
        makeLoop(0, param("n"),
                 {makeReduce("v", OpCode::FAdd,
                             binary(OpCode::FMul, load("a", iterVar(0)),
                                    load("b", iterVar(0))))},
                 true),
        makeStore("c", intConst(0), scalarRef("v")),
    };
    return k;
}

TEST(Lowering, DotProductShape)
{
    Ctx c(adg::buildSoftbrain());
    auto r = lower(c, dotKernel(64));
    ASSERT_TRUE(r.ok) << r.error;
    const auto &prog = r.version.program;
    ASSERT_EQ(prog.regions.size(), 1u);
    const auto &reg = prog.regions[0];
    // Two linear reads + one scalar write.
    int reads = 0, writes = 0;
    for (const auto &st : reg.streams) {
        reads += st.kind == StreamKind::LinearRead;
        writes += st.kind == StreamKind::LinearWrite;
    }
    EXPECT_EQ(reads, 2);
    EXPECT_EQ(writes, 1);
    // One multiply, one accumulator.
    int muls = 0, accs = 0;
    for (const auto &vx : reg.dfg.vertices()) {
        if (vx.kind != VertexKind::Instruction)
            continue;
        muls += vx.op == OpCode::FMul;
        accs += vx.isAccumulate();
    }
    EXPECT_EQ(muls, 1);
    EXPECT_EQ(accs, 1);
}

TEST(Lowering, UnrollReplicatesLanes)
{
    Ctx c(adg::buildSoftbrain());
    auto r = lower(c, dotKernel(64), 4);
    ASSERT_TRUE(r.ok) << r.error;
    const auto &reg = r.version.program.regions[0];
    // Ports widen to 4 lanes; 4 accumulators + combine tree (3 adds).
    for (dfg::VertexId p : reg.dfg.inputPorts())
        EXPECT_EQ(reg.dfg.vertex(p).lanes, 4);
    int accs = 0, adds = 0, muls = 0;
    for (const auto &vx : reg.dfg.vertices()) {
        if (vx.kind != VertexKind::Instruction)
            continue;
        accs += vx.isAccumulate();
        adds += vx.op == OpCode::FAdd && !vx.selfAcc;
        muls += vx.op == OpCode::FMul;
    }
    EXPECT_EQ(accs, 4);
    EXPECT_EQ(adds, 3);
    EXPECT_EQ(muls, 4);
}

TEST(Lowering, UnrollRejectsNonDividing)
{
    Ctx c(adg::buildSoftbrain());
    auto r = lower(c, dotKernel(6), 4);  // 4 does not divide 6
    EXPECT_FALSE(r.ok);
}

TEST(Lowering, CompileReturnsViableVersions)
{
    Ctx c(adg::buildSoftbrain());
    auto k = dotKernel(64);
    auto placement = Placement::autoLayout(k, c.features);
    auto versions = compile(k, placement, c.features);
    ASSERT_GE(versions.size(), 3u);  // u1, u2, u4 (+u8)
    EXPECT_EQ(versions[0].unrollFactor, 1);
}

TEST(Lowering, IndirectStreamOnCapableHardware)
{
    Ctx c(adg::buildSpu());
    KernelSource k;
    k.name = "gather";
    k.params["n"] = 32;
    k.arrays = {{"idx", 32, 8, false, false},
                {"x", 64, 8, true, true},
                {"y", 32, 8, true, false}};
    k.body = {makeLoop(0, param("n"),
                       {makeStore("y", iterVar(0),
                                  load("x", load("idx", iterVar(0))))},
                       true)};
    auto r = lower(c, k);
    ASSERT_TRUE(r.ok) << r.error;
    bool indirect = false;
    for (const auto &st : r.version.program.regions[0].streams)
        if (st.kind == StreamKind::IndirectRead) {
            indirect = true;
            EXPECT_FALSE(st.scalarFallback);
        }
    EXPECT_TRUE(indirect);
}

TEST(Lowering, IndirectFallsBackWithoutHardware)
{
    Ctx c(adg::buildSoftbrain());  // no indirect controller
    KernelSource k;
    k.name = "gather";
    k.params["n"] = 32;
    k.arrays = {{"idx", 32, 8, false, false},
                {"x", 64, 8, true, false},
                {"y", 32, 8, true, false}};
    k.body = {makeLoop(0, param("n"),
                       {makeStore("y", iterVar(0),
                                  load("x", load("idx", iterVar(0))))},
                       true)};
    auto r = lower(c, k);
    ASSERT_TRUE(r.ok) << r.error;
    bool fallback = false;
    for (const auto &st : r.version.program.regions[0].streams)
        if (st.kind == StreamKind::IndirectRead)
            fallback |= st.scalarFallback;
    EXPECT_TRUE(fallback);
}

TEST(Lowering, FeatureGateDisablesIndirect)
{
    Ctx c(adg::buildSpu());
    CompileOptions opts;
    opts.enableIndirect = false;  // Fig. 12 "indirect off"
    KernelSource k;
    k.name = "gather";
    k.params["n"] = 32;
    k.arrays = {{"idx", 32, 8, false, false},
                {"x", 64, 8, true, true},
                {"y", 32, 8, true, false}};
    k.body = {makeLoop(0, param("n"),
                       {makeStore("y", iterVar(0),
                                  load("x", load("idx", iterVar(0))))},
                       true)};
    auto r = lower(c, k, 1, opts);
    ASSERT_TRUE(r.ok) << r.error;
    bool fallback = false;
    for (const auto &st : r.version.program.regions[0].streams)
        if (st.kind == StreamKind::IndirectRead)
            fallback |= st.scalarFallback;
    EXPECT_TRUE(fallback);
}

TEST(Lowering, ControlToDataSelect)
{
    Ctx c(adg::buildSoftbrain());
    KernelSource k;
    k.name = "sel";
    k.params["n"] = 16;
    k.arrays = {{"a", 16, 8, false, false}, {"b", 16, 8, false, false}};
    k.body = {makeLoop(
        0, param("n"),
        {makeIf(binary(OpCode::CmpLT, load("a", iterVar(0)), intConst(8)),
                {makeStore("b", iterVar(0), intConst(1))},
                {makeStore("b", iterVar(0), intConst(2))})},
        true)};
    auto r = lower(c, k);
    ASSERT_TRUE(r.ok) << r.error;
    bool hasSelect = false;
    for (const auto &vx : r.version.program.regions[0].dfg.vertices())
        hasSelect |= vx.kind == VertexKind::Instruction &&
                     vx.op == OpCode::Select;
    EXPECT_TRUE(hasSelect);
}

TEST(Lowering, StreamJoinOnDynamicHardware)
{
    Ctx c(adg::buildSpu());
    const auto &w = workloads::workload("join");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    const auto &reg = r.version.program.regions[0];
    EXPECT_FALSE(reg.serialized);
    int joinCmps = 0, gates = 0;
    for (const auto &vx : reg.dfg.vertices()) {
        if (vx.kind != VertexKind::Instruction)
            continue;
        if (vx.op == OpCode::Cmp3 || vx.op == OpCode::FCmp3)
            joinCmps += vx.ctrl.active();
        if (vx.op == OpCode::Pass && vx.ctrl.active())
            ++gates;
    }
    EXPECT_EQ(joinCmps, 1);
    EXPECT_EQ(gates, 2);  // one per value side
}

TEST(Lowering, StreamJoinSerializesOnStaticHardware)
{
    Ctx c(adg::buildSoftbrain());
    const auto &w = workloads::workload("join");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.version.program.regions[0].serialized);
}

TEST(Lowering, ProducerConsumerForward)
{
    Ctx c(adg::buildSoftbrain());
    const auto &w = workloads::workload("prodcons");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.version.program.forwards.size(), 1u);
    EXPECT_FALSE(r.version.program.forwards[0].viaMemory);
}

TEST(Lowering, ProducerConsumerDisabledGoesViaMemory)
{
    Ctx c(adg::buildSoftbrain());
    CompileOptions opts;
    opts.enableProducerConsumer = false;
    const auto &w = workloads::workload("prodcons");
    auto r = lower(c, w.kernel, 1, opts);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.version.program.forwards.size(), 1u);
    EXPECT_TRUE(r.version.program.forwards[0].viaMemory);
}

TEST(Lowering, RepetitiveUpdateUsesRecurrence)
{
    Ctx c(adg::buildSoftbrain());
    const auto &w = workloads::workload("repupdate");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    bool recurrence = false;
    for (const auto &st : r.version.program.regions[0].streams)
        recurrence |= st.kind == StreamKind::Recurrence;
    EXPECT_TRUE(recurrence);
    EXPECT_FALSE(r.version.program.regions[0].drainBetweenReissues);
}

TEST(Lowering, RepetitiveUpdateDisabledFences)
{
    Ctx c(adg::buildSoftbrain());
    CompileOptions opts;
    opts.enableRepetitiveUpdate = false;
    const auto &w = workloads::workload("repupdate");
    auto r = lower(c, w.kernel, 1, opts);
    ASSERT_TRUE(r.ok) << r.error;
    bool recurrence = false;
    for (const auto &st : r.version.program.regions[0].streams)
        recurrence |= st.kind == StreamKind::Recurrence;
    EXPECT_FALSE(recurrence);
    EXPECT_TRUE(r.version.program.regions[0].drainBetweenReissues);
}

TEST(Lowering, SequentialPhasesForQr)
{
    Ctx c(adg::buildRevel());
    const auto &w = workloads::workload("qr");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.version.program.sequential);
    EXPECT_GT(r.version.program.phaseScript.size(), 100u);
}

TEST(Lowering, DependsOnFor2mm)
{
    Ctx c(adg::buildSoftbrain());
    const auto &w = workloads::workload("2mm");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    const auto &prog = r.version.program;
    EXPECT_FALSE(prog.sequential);
    ASSERT_EQ(prog.regions.size(), 2u);
    ASSERT_EQ(prog.regions[1].dependsOn.size(), 1u);
    EXPECT_EQ(prog.regions[1].dependsOn[0], 0);
}

TEST(Lowering, ConfigGroupsForFft)
{
    Ctx c(adg::buildRevel());
    const auto &w = workloads::workload("fft");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    int maxGroup = 0;
    for (const auto &reg : r.version.program.regions)
        maxGroup = std::max(maxGroup, reg.configGroup);
    EXPECT_GT(maxGroup, 0);  // stages cannot all share one config
}

TEST(Lowering, InvariantLoadsShareOnePort)
{
    Ctx c(adg::buildSoftbrain());
    const auto &w = workloads::workload("stencil-2d");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    const auto &reg = r.version.program.regions[0];
    // The 9 filter taps share grouped invariant ports (not 9 streams).
    int filtStreams = 0;
    for (const auto &st : reg.streams)
        if (st.name.find("filt") != std::string::npos)
            ++filtStreams;
    EXPECT_LE(filtStreams, 3);
    EXPECT_GE(filtStreams, 1);
}

TEST(Lowering, MdUsesIndirectAndMultipleReductions)
{
    Ctx c(adg::buildSpu());
    const auto &w = workloads::workload("md");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    const auto &reg = r.version.program.regions[0];
    int gathers = 0, writes = 0, accs = 0;
    for (const auto &st : reg.streams) {
        gathers += st.kind == StreamKind::IndirectRead;
        writes += st.kind == StreamKind::LinearWrite;
    }
    for (const auto &vx : reg.dfg.vertices())
        accs += vx.isAccumulate();
    EXPECT_EQ(gathers, 3);  // x, y, z gathered through nl
    EXPECT_EQ(writes, 3);   // fx, fy, fz
    EXPECT_EQ(accs, 3);
}

TEST(Lowering, HistogramAtomic)
{
    Ctx c(adg::buildSpu());
    const auto &w = workloads::workload("histogram");
    auto r = lower(c, w.kernel);
    ASSERT_TRUE(r.ok) << r.error;
    bool atomic = false;
    for (const auto &st : r.version.program.regions[0].streams)
        if (st.kind == StreamKind::AtomicUpdate) {
            atomic = true;
            EXPECT_FALSE(st.scalarFallback);
        }
    EXPECT_TRUE(atomic);
}

TEST(Lowering, AllWorkloadsLowerAtUnroll1)
{
    Ctx c(adg::buildDseInitial());
    for (const auto &w : workloads::allWorkloads()) {
        auto r = lower(c, w.kernel);
        EXPECT_TRUE(r.ok) << w.name << ": " << r.error;
        if (r.ok) {
            EXPECT_TRUE(r.version.program.validate().empty()) << w.name;
        }
    }
}

} // namespace
} // namespace dsa::compiler
