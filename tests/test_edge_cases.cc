/**
 * @file
 * Edge cases and error paths: malformed inputs are rejected loudly
 * (fatal/panic per the gem5 convention, or a thrown Status where the
 * caller must survive them, as with ADG text), boundary parameters
 * behave, and generated artifacts are structurally sound.
 */

#include <gtest/gtest.h>

#include "adg/prebuilt.h"
#include "base/status.h"
#include "hwgen/config_path.h"
#include "hwgen/verilog.h"
#include "ir/interp.h"
#include "mapper/scheduler.h"

namespace dsa {
namespace {

using ::testing::ExitedWithCode;

TEST(AdgErrors, RejectsMalformedText)
{
    // Malformed ADG text throws (recoverable — checkpoint loading and
    // worker frames must survive mangled designs) an InvalidArgument
    // whose message contains @p what.
    auto expectInvalid = [](const std::string &text, const char *what) {
        try {
            adg::Adg::fromText(text);
            ADD_FAILURE() << "malformed ADG text was accepted: " << text;
        } catch (const StatusException &e) {
            EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
            EXPECT_NE(e.status().message().find(what), std::string::npos)
                << e.status().toString();
        }
    };
    expectInvalid("adg v2\n", "unsupported ADG version");
    // Enum-name lookups come with a did-you-mean suggestion.
    expectInvalid("adg v1\nnode 0 bogus\n", "unknown node kind");
    expectInvalid("adg v1\nnode 0 bogus\n", "valid:");
    expectInvalid("adg v1\nfrobnicate 1 2 3\n", "unknown ADG line");
    expectInvalid("adg v1\nedge 0 5 6 64\n", "references unknown node");
}

TEST(AdgErrors, GraphMisusePanics)
{
    adg::Adg g;
    adg::PeProps pe;
    pe.ops = OpSet{OpCode::Add};
    adg::NodeId a = g.addPe(pe);
    EXPECT_DEATH(g.connect(a, a), "self loop");
    EXPECT_DEATH(g.connect(a, 99), "dead node");
    g.removeNode(a);
    EXPECT_DEATH(g.removeNode(a), "remove dead node");
}

TEST(AdgErrors, BadPeProps)
{
    adg::Adg g;
    adg::PeProps pe;
    pe.ops = OpSet{OpCode::Add};
    pe.datapathBits = 48;  // not a power of two
    EXPECT_DEATH(g.addPe(pe), "power-of-two");
    pe.datapathBits = 64;
    pe.maxInsts = 4;  // dedicated PE with multiple instructions
    EXPECT_DEATH(g.addPe(pe), "exactly one instruction");
}

TEST(InterpErrors, OutOfBoundsAborts)
{
    using namespace ir;
    KernelSource k;
    k.name = "oob";
    k.params["n"] = 4;
    k.arrays = {{"a", 2, 8, false, false}};
    k.body = {makeLoop(0, param("n"),
                       {makeStore("a", iterVar(0), intConst(1))}, true)};
    ArrayStore st(k);
    EXPECT_DEATH(interpret(k, st), "out of bounds");
}

TEST(InterpErrors, UnboundNamesAbort)
{
    using namespace ir;
    KernelSource k;
    k.name = "unbound";
    k.arrays = {{"a", 2, 8, false, false}};
    k.body = {makeStore("a", intConst(0), scalarRef("ghost"))};
    ArrayStore st(k);
    EXPECT_DEATH(interpret(k, st), "unbound scalar");
}

TEST(InterpErrors, LoadOutOfBoundsAborts)
{
    using namespace ir;
    KernelSource k;
    k.name = "oob-load";
    k.arrays = {{"a", 2, 8, false, false}, {"b", 1, 8, false, false}};
    k.body = {makeStore("b", intConst(0), load("a", intConst(2)))};
    ArrayStore st(k);
    EXPECT_DEATH(interpret(k, st), "load out of bounds: a\\[2\\] size 2");
}

TEST(InterpErrors, UnboundIterVarAborts)
{
    using namespace ir;
    KernelSource k;
    k.name = "unbound-iv";
    k.arrays = {{"a", 2, 8, false, false}};
    // Loop 0's variable is read after the loop has ended.
    k.body = {makeLoop(0, intConst(2),
                       {makeStore("a", iterVar(0), intConst(1))}),
              makeStore("a", iterVar(0), intConst(2))};
    ArrayStore st(k);
    EXPECT_DEATH(interpret(k, st), "unbound iter var i0");
}

TEST(InterpErrors, UnboundParamAborts)
{
    using namespace ir;
    KernelSource k;
    k.name = "unbound-param";
    k.arrays = {{"a", 2, 8, false, false}};
    k.body = {makeLoop(0, param("n"),
                       {makeStore("a", iterVar(0), intConst(1))})};
    ArrayStore st(k);
    EXPECT_DEATH(interpret(k, st), "unbound param n");
}

TEST(InterpErrors, MissingArrayAborts)
{
    using namespace ir;
    KernelSource k;
    k.name = "missing-array";
    k.arrays = {{"a", 2, 8, false, false}};
    k.body = {makeStore("ghost", intConst(0), intConst(1))};
    ArrayStore st(k);
    EXPECT_DEATH(interpret(k, st), "no array 'ghost'");
}

TEST(InterpErrors, ReduceIntoUnboundScalarAborts)
{
    using namespace ir;
    KernelSource k;
    k.name = "unbound-reduce";
    k.arrays = {{"a", 2, 8, false, false}};
    k.body = {makeReduce("acc", OpCode::Add, intConst(1))};
    ArrayStore st(k);
    EXPECT_DEATH(interpret(k, st), "reduce into unbound scalar acc");
}

TEST(InterpErrors, AccumulateAsExpressionAborts)
{
    using namespace ir;
    KernelSource k;
    k.name = "acc-expr";
    k.arrays = {{"a", 2, 8, false, false}};
    k.body = {makeStore("a", intConst(0), unary(OpCode::Acc, intConst(1)))};
    ArrayStore st(k);
    EXPECT_DEATH(interpret(k, st), "accumulate is not an expression-level op");
}

TEST(OpcodeErrors, UnknownNameFatal)
{
    EXPECT_EXIT(opFromName("warp9"), ExitedWithCode(1),
                "unknown opcode");
}

TEST(ConfigPathEdge, SinglePathOnTinyGraph)
{
    adg::Adg g;
    adg::PeProps pe;
    pe.ops = OpSet{OpCode::Add};
    adg::NodeId a = g.addPe(pe);
    adg::NodeId sw = g.addSwitch(adg::SwitchProps{});
    g.connect(sw, a);
    auto set = hwgen::generateConfigPaths(g, 1);
    EXPECT_EQ(hwgen::validateConfigPaths(g, set), "");
    EXPECT_EQ(set.paths.size(), 1u);
    EXPECT_GE(set.maxLength(), 2);
}

TEST(ConfigPathEdge, MorePathsThanNodes)
{
    adg::Adg g;
    adg::PeProps pe;
    pe.ops = OpSet{OpCode::Add};
    adg::NodeId a = g.addPe(pe);
    adg::NodeId sw = g.addSwitch(adg::SwitchProps{});
    g.connect(sw, a);
    auto set = hwgen::generateConfigPaths(g, 5);
    EXPECT_EQ(hwgen::validateConfigPaths(g, set), "");
}

TEST(VerilogEdge, BalancedModules)
{
    adg::Adg g = adg::buildDseInitial();
    auto paths = hwgen::generateConfigPaths(g, 3);
    std::string v = hwgen::emitVerilog(g, "top", paths);
    size_t modules = 0, ends = 0, pos = 0;
    while ((pos = v.find("\nmodule ", pos)) != std::string::npos) {
        ++modules;
        ++pos;
    }
    pos = 0;
    while ((pos = v.find("endmodule", pos)) != std::string::npos) {
        ++ends;
        ++pos;
    }
    EXPECT_EQ(modules, ends - (v.rfind("module ", 8) == 0 ? 0 : 0));
    EXPECT_GE(ends, 6u);  // five leaf shells + top
}

TEST(ScheduleEdge, EmptyScheduleCountsEverything)
{
    // An all-serialized program needs no placement at all.
    dfg::DecoupledProgram prog;
    prog.regions.emplace_back();
    prog.regions[0].serialized = true;
    auto s = mapper::Schedule::emptyFor(prog);
    EXPECT_EQ(s.countUnplaced(prog), 0);
}

TEST(RngEdge, ForkDiverges)
{
    Rng a(5);
    Rng b = a.fork();
    // The fork advances the parent; sequences should differ.
    bool anyDiff = false;
    Rng a2(5);
    for (int i = 0; i < 16; ++i)
        anyDiff |= a.uniformInt(0, 1 << 30) != a2.uniformInt(0, 1 << 30);
    (void)b;
    EXPECT_TRUE(anyDiff);
}

} // namespace
} // namespace dsa
