/** @file Simulator unit tests on small crafted kernels. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "adg/prebuilt.h"
#include "compiler/compile.h"
#include "mapper/scheduler.h"
#include "sim/simulator.h"

namespace dsa::sim {
namespace {

using namespace dsa::ir;

/** Full pipeline helper: lower/schedule/simulate/extract. */
struct Run
{
    bool ok = false;
    std::string error;
    int64_t cycles = 0;
    ArrayStore out;
};

Run
runKernel(const KernelSource &k, const ArrayStore &inputs,
          const adg::Adg &hw, int unroll = 1, int schedIters = 400)
{
    Run res;
    auto features = compiler::HwFeatures::fromAdg(hw);
    auto placement = compiler::Placement::autoLayout(k, features);
    auto lowered = compiler::lowerKernel(k, placement, features, {},
                                         unroll);
    if (!lowered.ok) {
        res.error = "lower: " + lowered.error;
        return res;
    }
    auto sched = mapper::scheduleProgram(
        lowered.version.program, hw,
        {.maxIters = schedIters, .seed = 13});
    if (!sched.cost.legal()) {
        res.error = "schedule illegal";
        return res;
    }
    auto img = MemImage::build(k, inputs, placement);
    SimOptions opts;
    opts.maxCycles = 5'000'000;
    auto sim = simulate(lowered.version.program, sched, hw, img, opts);
    if (!sim.ok) {
        res.error = "sim: " + sim.error;
        return res;
    }
    res.out = inputs;
    img.extract(k, placement, res.out);
    res.ok = true;
    res.cycles = sim.cycles;
    return res;
}

TEST(AddressSpace, LoadStoreRoundTrip)
{
    AddressSpace sp;
    sp.ensure(64);
    sp.store(8, 8, 0x1122334455667788ull);
    EXPECT_EQ(sp.load(8, 8), 0x1122334455667788ull);
    sp.store(0, 4, 0xAABBCCDDull);
    EXPECT_EQ(sp.load(0, 4), 0xAABBCCDDull);
    EXPECT_EQ(sp.load(2, 2), 0xAABBull);
}

TEST(MemImage, BuildAndExtract)
{
    KernelSource k;
    k.name = "t";
    k.arrays = {{"a", 4, 8, false, false}, {"b", 4, 4, false, false}};
    ArrayStore st(k);
    for (int i = 0; i < 4; ++i) {
        st.data("a")[i] = 1000 + i;
        st.data("b")[i] = static_cast<Value>(int64_t(-i));
    }
    compiler::HwFeatures f;
    auto placement = compiler::Placement::autoLayout(k, f);
    auto img = MemImage::build(k, st, placement);
    ArrayStore out(k);
    img.extract(k, placement, out);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(out.data("a")[i], st.data("a")[i]);
        // 4-byte ints sign-extend on extraction.
        EXPECT_EQ(static_cast<int64_t>(out.data("b")[i]), -i);
    }
}

TEST(Sim, ElementwiseAdd)
{
    constexpr int64_t n = 32;
    KernelSource k;
    k.name = "vadd";
    k.params["n"] = n;
    k.arrays = {{"a", n, 8, false, false},
                {"b", n, 8, false, false},
                {"c", n, 8, false, false}};
    k.body = {makeLoop(0, param("n"),
                       {makeStore("c", iterVar(0),
                                  binary(OpCode::Add, load("a", iterVar(0)),
                                         load("b", iterVar(0))))},
                       true)};
    ArrayStore st(k);
    for (int64_t i = 0; i < n; ++i) {
        st.data("a")[i] = static_cast<Value>(i);
        st.data("b")[i] = static_cast<Value>(i * 7);
    }
    auto res = runKernel(k, st, adg::buildSoftbrain());
    ASSERT_TRUE(res.ok) << res.error;
    for (int64_t i = 0; i < n; ++i)
        EXPECT_EQ(res.out.data("c")[i], static_cast<Value>(i * 8));
}

TEST(Sim, IotaStreamDeliversIndices)
{
    constexpr int64_t n = 16;
    KernelSource k;
    k.name = "iota";
    k.params["n"] = n;
    k.arrays = {{"c", n, 8, false, false}};
    k.body = {makeLoop(0, param("n"),
                       {makeStore("c", iterVar(0),
                                  binary(OpCode::Mul, iterVar(0),
                                         intConst(3)))},
                       true)};
    ArrayStore st(k);
    auto res = runKernel(k, st, adg::buildSoftbrain());
    ASSERT_TRUE(res.ok) << res.error;
    for (int64_t i = 0; i < n; ++i)
        EXPECT_EQ(res.out.data("c")[i], static_cast<Value>(i * 3));
}

TEST(Sim, SelectControlFlow)
{
    constexpr int64_t n = 24;
    KernelSource k;
    k.name = "sel";
    k.params["n"] = n;
    k.arrays = {{"a", n, 8, false, false}, {"b", n, 8, false, false}};
    k.body = {makeLoop(
        0, param("n"),
        {makeIf(binary(OpCode::CmpLT, load("a", iterVar(0)),
                       intConst(12)),
                {makeStore("b", iterVar(0), intConst(1))},
                {makeStore("b", iterVar(0), intConst(0))})},
        true)};
    ArrayStore st(k);
    for (int64_t i = 0; i < n; ++i)
        st.data("a")[i] = static_cast<Value>(i);
    auto res = runKernel(k, st, adg::buildSoftbrain());
    ASSERT_TRUE(res.ok) << res.error;
    for (int64_t i = 0; i < n; ++i)
        EXPECT_EQ(res.out.data("b")[i], i < 12 ? 1u : 0u);
}

TEST(Sim, ConditionalReduceWithIdentity)
{
    constexpr int64_t n = 20;
    KernelSource k;
    k.name = "condsum";
    k.params["n"] = n;
    k.arrays = {{"a", n, 8, false, false}, {"s", 1, 8, false, false}};
    k.body = {
        makeLet("acc", intConst(0)),
        makeLoop(0, param("n"),
                 {makeIf(binary(OpCode::CmpGE, load("a", iterVar(0)),
                                intConst(10)),
                         {makeReduce("acc", OpCode::Add,
                                     load("a", iterVar(0)))})},
                 true),
        makeStore("s", intConst(0), scalarRef("acc")),
    };
    ArrayStore st(k);
    int64_t expect = 0;
    for (int64_t i = 0; i < n; ++i) {
        st.data("a")[i] = static_cast<Value>(i);
        if (i >= 10)
            expect += i;
    }
    auto res = runKernel(k, st, adg::buildSoftbrain());
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(static_cast<int64_t>(res.out.data("s")[0]), expect);
}

TEST(Sim, MaxReduction)
{
    constexpr int64_t n = 32;
    KernelSource k;
    k.name = "maxr";
    k.params["n"] = n;
    k.arrays = {{"a", n, 8, false, false}, {"m", 1, 8, false, false}};
    k.body = {
        makeLet("acc", intConst(INT64_MIN)),
        makeLoop(0, param("n"),
                 {makeReduce("acc", OpCode::Max, load("a", iterVar(0)))},
                 true),
        makeStore("m", intConst(0), scalarRef("acc")),
    };
    ArrayStore st(k);
    for (int64_t i = 0; i < n; ++i)
        st.data("a")[i] = static_cast<Value>((i * 37) % 100);
    auto res = runKernel(k, st, adg::buildSoftbrain());
    ASSERT_TRUE(res.ok) << res.error;
    int64_t expect = INT64_MIN;
    for (int64_t i = 0; i < n; ++i)
        expect = std::max(expect, static_cast<int64_t>((i * 37) % 100));
    EXPECT_EQ(static_cast<int64_t>(res.out.data("m")[0]), expect);
}

/** Parameterized: dot product correct at several unroll factors. */
class UnrollSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnrollSweep, DotProductAllLanes)
{
    int unroll = GetParam();
    constexpr int64_t n = 64;
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
    ArrayStore st(k);
    double expect = 0;
    for (int64_t i = 0; i < n; ++i) {
        double av = 0.5 + i, bv = 1.0 / (1 + i);
        st.data("a")[i] = valueFromF64(av);
        st.data("b")[i] = valueFromF64(bv);
        expect += av * bv;
    }
    auto res = runKernel(k, st, adg::buildSoftbrain(), unroll);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_NEAR(valueAsF64(res.out.data("c")[0]), expect, 1e-9 * expect);
}

INSTANTIATE_TEST_SUITE_P(Lanes, UnrollSweep, ::testing::Values(1, 2, 4));

TEST(Sim, UnrollReducesCycles)
{
    constexpr int64_t n = 256;
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
    ArrayStore st(k);
    for (int64_t i = 0; i < n; ++i) {
        st.data("a")[i] = valueFromF64(1.0);
        st.data("b")[i] = valueFromF64(2.0);
    }
    auto r1 = runKernel(k, st, adg::buildSoftbrain(), 1);
    auto r4 = runKernel(k, st, adg::buildSoftbrain(), 4);
    ASSERT_TRUE(r1.ok && r4.ok) << r1.error << " / " << r4.error;
    EXPECT_LT(r4.cycles, r1.cycles);
}

TEST(Sim, ZeroTripReductionDeliversInit)
{
    // Inner extent is triangular (== outer iv); at the first outer
    // iteration it is zero and the accumulator init must come out.
    KernelSource k;
    k.name = "tri";
    k.params["n"] = 4;
    k.arrays = {{"a", 16, 8, false, false}, {"s", 4, 8, false, false}};
    k.body = {makeLoop(
        0, param("n"),
        {
            makeLet("acc", intConst(0)),
            makeLoop(1, iterVar(0),
                     {makeReduce("acc", OpCode::Add,
                                 load("a", binary(OpCode::Mul, iterVar(0),
                                                  intConst(4)) +
                                               iterVar(1)))},
                     true),
            makeStore("s", iterVar(0), scalarRef("acc")),
        })};
    // Force sequential phasing (write + read of s across loops is not
    // present, so this stays concurrent; triangular extents re-issue).
    ArrayStore st(k);
    for (int i = 0; i < 16; ++i)
        st.data("a")[i] = 1;
    auto res = runKernel(k, st, adg::buildSoftbrain());
    ASSERT_TRUE(res.ok) << res.error;
    for (int64_t j = 0; j < 4; ++j)
        EXPECT_EQ(res.out.data("s")[j], static_cast<Value>(j));
}

TEST(Sim, TraceEnvDoesNotChangeResult)
{
    constexpr int64_t n = 8;
    KernelSource k;
    k.name = "vadd";
    k.params["n"] = n;
    k.arrays = {{"a", n, 8, false, false}, {"c", n, 8, false, false}};
    k.body = {makeLoop(0, param("n"),
                       {makeStore("c", iterVar(0),
                                  binary(OpCode::Add, load("a", iterVar(0)),
                                         intConst(5)))},
                       true)};
    ArrayStore st(k);
    for (int64_t i = 0; i < n; ++i)
        st.data("a")[i] = static_cast<Value>(i);
    auto a = runKernel(k, st, adg::buildSoftbrain());
    ASSERT_TRUE(a.ok);
    EXPECT_EQ(a.out.data("c")[3], 8u);
}

TEST(SimEngine, NamesRoundTrip)
{
    for (Engine e :
         {Engine::Dense, Engine::Sparse, Engine::Compiled, Engine::Jit}) {
        auto parsed = parseEngine(engineName(e));
        ASSERT_TRUE(parsed.ok()) << engineName(e);
        EXPECT_EQ(*parsed, e);
    }
}

TEST(SimEngine, UnknownNameRejectedWithAcceptedNames)
{
    // Boolean-looking values are not engines: the old per-tier
    // variables silently ignored everything but "0".
    for (const char *bad : {"false", "0", "", "Jit", "compile"}) {
        auto parsed = parseEngine(bad);
        ASSERT_FALSE(parsed.ok()) << bad;
        EXPECT_EQ(parsed.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(parsed.status().message().find(
                      "valid: dense, sparse, compiled, jit"),
                  std::string::npos)
            << parsed.status().message();
    }
    EXPECT_NE(parseEngine("compile").status().message().find(
                  "did you mean 'compiled'?"),
              std::string::npos);
}

TEST(SimEngine, UnknownEnvironmentEngineIsFatal)
{
    // defaultEngine() reads DSA_SIM_ENGINE once per process, so the
    // check runs in a freshly exec'ed child.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            ::setenv("DSA_SIM_ENGINE", "false", 1);
            SimOptions opts;
            (void)opts;
        },
        ::testing::ExitedWithCode(1),
        "DSA_SIM_ENGINE: unknown simulator engine 'false'.*"
        "valid: dense, sparse, compiled, jit");
}

TEST(SimEngine, FirstDivergenceReportsRegionStats)
{
    SimResult ref;
    ref.ok = true;
    ref.cycles = 120;
    ref.regions.resize(2);
    for (RegionSimStats &r : ref.regions) {
        r.fires = 16;
        r.endCycle = 120;
        r.complete = true;
        r.state = "complete";
    }
    MemImage mem;
    EXPECT_EQ(firstDivergence(ref, ref, mem, mem), "");

    // Everything else equal: only region 1 fired once more.
    SimResult got = ref;
    got.regions[1].fires = 17;
    std::string diff = firstDivergence(ref, got, mem, mem);
    EXPECT_NE(diff.find("region 1 stats"), std::string::npos) << diff;
    EXPECT_NE(diff.find("fires=17"), std::string::npos) << diff;
}

} // namespace
} // namespace dsa::sim
