/** @file Unit tests for the architecture description graph. */

#include <gtest/gtest.h>

#include "adg/adg.h"
#include "adg/builders.h"
#include "adg/prebuilt.h"
#include "base/status.h"

namespace dsa::adg {
namespace {

PeProps
simplePe()
{
    PeProps p;
    p.ops = OpSet{OpCode::Add, OpCode::Mul};
    return p;
}

TEST(Adg, AddAndConnect)
{
    Adg g;
    NodeId pe = g.addPe(simplePe(), "pe");
    NodeId sw = g.addSwitch(SwitchProps{}, "sw");
    EdgeId e = g.connect(sw, pe);
    EXPECT_TRUE(g.nodeAlive(pe));
    EXPECT_TRUE(g.edgeAlive(e));
    EXPECT_EQ(g.edge(e).src, sw);
    EXPECT_EQ(g.edge(e).dst, pe);
    EXPECT_EQ(g.outEdges(sw).size(), 1u);
    EXPECT_EQ(g.inEdges(pe).size(), 1u);
    EXPECT_EQ(g.findEdge(sw, pe), e);
    EXPECT_EQ(g.findEdge(pe, sw), kInvalidEdge);
}

TEST(Adg, RemoveNodeCascades)
{
    Adg g;
    NodeId pe = g.addPe(simplePe());
    NodeId sw1 = g.addSwitch(SwitchProps{});
    NodeId sw2 = g.addSwitch(SwitchProps{});
    EdgeId e1 = g.connect(sw1, pe);
    EdgeId e2 = g.connect(pe, sw2);
    EdgeId e3 = g.connect(sw1, sw2);
    g.removeNode(pe);
    EXPECT_FALSE(g.nodeAlive(pe));
    EXPECT_FALSE(g.edgeAlive(e1));
    EXPECT_FALSE(g.edgeAlive(e2));
    EXPECT_TRUE(g.edgeAlive(e3));
    EXPECT_TRUE(g.outEdges(sw1).size() == 1);
}

TEST(Adg, StableIdsAfterRemoval)
{
    Adg g;
    NodeId a = g.addSwitch(SwitchProps{});
    NodeId b = g.addSwitch(SwitchProps{});
    g.removeNode(a);
    NodeId c = g.addSwitch(SwitchProps{});
    EXPECT_NE(c, a);  // ids never reused
    EXPECT_TRUE(g.nodeAlive(b));
    EXPECT_TRUE(g.nodeAlive(c));
}

TEST(Adg, ValidateMemoryBusRule)
{
    Adg g;
    MemProps mem;
    NodeId m = g.addMemory(mem);
    NodeId pe = g.addPe(simplePe());
    g.connect(m, pe);  // memory must only feed sync elements
    auto problems = g.validate();
    bool found = false;
    for (const auto &p : problems)
        found |= p.find("may only feed sync") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Adg, ValidateStreamJoinNeedsDynamic)
{
    Adg g;
    PeProps p = simplePe();
    p.streamJoin = true;
    p.sched = Scheduling::Static;
    g.addPe(p);
    auto problems = g.validate();
    bool found = false;
    for (const auto &pr : problems)
        found |= pr.find("stream-join requires dynamic") !=
                 std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Adg, SerializationRoundTrip)
{
    Adg g = buildSoftbrain(3, 3);
    std::string text = g.toText();
    Adg h = Adg::fromText(text);
    EXPECT_EQ(g.stats().numPes, h.stats().numPes);
    EXPECT_EQ(g.stats().numSwitches, h.stats().numSwitches);
    EXPECT_EQ(g.stats().numEdges, h.stats().numEdges);
    EXPECT_EQ(g.stats().numSyncs, h.stats().numSyncs);
    // Per-node roundtrip of properties.
    for (NodeId id : g.aliveNodes()) {
        ASSERT_TRUE(h.nodeAlive(id));
        EXPECT_EQ(g.node(id).kind, h.node(id).kind);
        EXPECT_EQ(g.node(id).name, h.node(id).name);
        if (g.node(id).kind == NodeKind::Pe) {
            EXPECT_EQ(g.node(id).pe(), h.node(id).pe());
        }
    }
    // Idempotence: serialize again and compare text.
    EXPECT_EQ(text, h.toText());
}

// ---------------------------------------------------------------------
// Malformed text: every kind is an InvalidArgument naming its line
// ---------------------------------------------------------------------

/** fromText must reject @p text with InvalidArgument quoting @p line. */
void
expectRejected(const std::string &text, const std::string &line)
{
    try {
        Adg::fromText(text);
        ADD_FAILURE() << "accepted malformed ADG text:\n" << text;
    } catch (const StatusException &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(e.status().message().find("'" + line + "'"),
                  std::string::npos)
            << e.status().toString();
    }
}

const std::string kHeader = "adg v1\nnode 0 switch\nnode 1 pe\n";

TEST(AdgText, NegativeNodeId)
{
    expectRejected("adg v1\nnode -5 pe\n", "node -5 pe");
}

TEST(AdgText, NegativeEdgeId)
{
    expectRejected(kHeader + "edge -1 0 1 64\n", "edge -1 0 1 64");
}

TEST(AdgText, HugeIdIsRefusedBeforeAllocating)
{
    expectRejected("adg v1\nnode 2147483647 pe\n", "node 2147483647 pe");
    expectRejected(kHeader + "edge 99999999999 0 1 64\n",
                   "edge 99999999999 0 1 64");
}

TEST(AdgText, NonNumericId)
{
    expectRejected("adg v1\nnode x pe\n", "node x pe");
}

TEST(AdgText, TokenWithoutEquals)
{
    expectRejected("adg v1\nnode 0 pe bogus\n", "node 0 pe bogus");
}

TEST(AdgText, NonNumericValue)
{
    expectRejected("adg v1\nnode 0 pe bits=wide\n", "node 0 pe bits=wide");
    expectRejected("adg v1\ncontrol ipc=fast\n", "control ipc=fast");
    expectRejected(kHeader + "edge 0 0 1 wide\n", "edge 0 0 1 wide");
}

TEST(AdgText, UnknownNames)
{
    expectRejected("adg v1\nnode 0 gpu\n", "node 0 gpu");
    expectRejected("adg v1\nnode 0 pe ops=warp9\n", "node 0 pe ops=warp9");
}

TEST(AdgText, UnsupportedVersion)
{
    expectRejected("adg v9\n", "adg v9");
}

TEST(AdgText, EdgeToUnknownNode)
{
    expectRejected(kHeader + "edge 0 0 7 64\n", "edge 0 0 7 64");
}

TEST(AdgText, TruncatedLines)
{
    expectRejected("adg v1\nnode 0\n", "node 0");
    expectRejected(kHeader + "edge 0 0\n", "edge 0 0");
}

TEST(AdgText, DuplicateIds)
{
    expectRejected(kHeader + "node 1 pe\n", "node 1 pe");
    expectRejected(kHeader + "edge 0 0 1 64\nedge 0 1 0 64\n",
                   "edge 0 1 0 64");
}

TEST(AdgText, UnknownLine)
{
    expectRejected(kHeader + "wire 0 1\n", "wire 0 1");
}

TEST(Builders, MeshShape)
{
    MeshConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    Adg g = buildMesh(cfg);
    auto st = g.stats();
    EXPECT_EQ(st.numPes, 16);
    EXPECT_EQ(st.numSwitches, 25);
    EXPECT_EQ(st.numMemories, 2);
    EXPECT_EQ(st.numSyncs, cfg.numInputSyncs + cfg.numOutputSyncs);
    EXPECT_TRUE(g.validate().empty());
}

TEST(Builders, TreeShape)
{
    TreeConfig cfg;
    cfg.leaves = 8;
    Adg g = buildTree(cfg);
    auto st = g.stats();
    EXPECT_EQ(st.numPes, 8 + 7);  // leaves + reduction tree
    EXPECT_TRUE(g.validate().empty());
}

TEST(Builders, CcaShape)
{
    PeProps pe = simplePe();
    Adg g = buildCcaLike(3, 2, pe);
    EXPECT_EQ(g.stats().numPes, 6);
    EXPECT_TRUE(g.validate().empty());
}

/** All prebuilt accelerators validate and expose expected features. */
class PrebuiltTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(PrebuiltTest, ValidatesClean)
{
    std::string name = GetParam();
    Adg g;
    if (name == "softbrain")
        g = buildSoftbrain();
    else if (name == "maeri")
        g = buildMaeri();
    else if (name == "triggered")
        g = buildTriggered();
    else if (name == "spu")
        g = buildSpu();
    else if (name == "revel")
        g = buildRevel();
    else if (name == "diannao")
        g = buildDianNaoLike();
    else
        g = buildDseInitial();
    EXPECT_TRUE(g.validate().empty()) << name;
    EXPECT_GT(g.stats().numPes, 0);
    EXPECT_GT(g.stats().numMemories, 0);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, PrebuiltTest,
                         ::testing::Values("softbrain", "maeri",
                                           "triggered", "spu", "revel",
                                           "diannao", "dse_initial"));

TEST(Prebuilt, SoftbrainIsAllStaticDedicated)
{
    Adg g = buildSoftbrain();
    for (NodeId id : g.aliveNodes(NodeKind::Pe)) {
        EXPECT_EQ(g.node(id).pe().sched, Scheduling::Static);
        EXPECT_EQ(g.node(id).pe().sharing, Sharing::Dedicated);
    }
    for (NodeId id : g.aliveNodes(NodeKind::Memory))
        EXPECT_FALSE(g.node(id).mem().indirect);
}

TEST(Prebuilt, TriggeredIsDynamicShared)
{
    Adg g = buildTriggered();
    for (NodeId id : g.aliveNodes(NodeKind::Pe)) {
        EXPECT_EQ(g.node(id).pe().sched, Scheduling::Dynamic);
        EXPECT_EQ(g.node(id).pe().sharing, Sharing::Shared);
        EXPECT_GT(g.node(id).pe().maxInsts, 1);
    }
}

TEST(Prebuilt, SpuHasIndirectBankedSpad)
{
    Adg g = buildSpu();
    bool indirectSpad = false;
    for (NodeId id : g.aliveNodes(NodeKind::Memory)) {
        const auto &m = g.node(id).mem();
        if (m.kind == MemKind::Scratchpad)
            indirectSpad = m.indirect && m.atomicUpdate && m.numBanks > 1;
    }
    EXPECT_TRUE(indirectSpad);
}

TEST(Prebuilt, RevelIsHybrid)
{
    Adg g = buildRevel();
    int stat = 0, dyn = 0;
    for (NodeId id : g.aliveNodes(NodeKind::Pe)) {
        if (g.node(id).pe().sched == Scheduling::Static)
            ++stat;
        else
            ++dyn;
    }
    EXPECT_GT(stat, 0);
    EXPECT_GT(dyn, 0);
}

TEST(Adg, DefaultEdgeWidthIsMinOfEndpoints)
{
    Adg g;
    PeProps narrow = simplePe();
    narrow.datapathBits = 32;
    NodeId a = g.addPe(narrow);
    NodeId sw = g.addSwitch(SwitchProps{});  // 64-bit
    EdgeId e = g.connect(sw, a);
    EXPECT_EQ(g.edge(e).widthBits, 32);
}

} // namespace
} // namespace dsa::adg
