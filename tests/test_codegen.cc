/** @file Tests for control-program codegen, DFG text format, reports. */

#include <cstdio>

#include <gtest/gtest.h>

#include "adg/prebuilt.h"
#include "compiler/codegen.h"
#include "compiler/compile.h"
#include "dfg/dfg_text.h"
#include "mapper/scheduler.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace dsa {
namespace {

struct Compiled
{
    dfg::DecoupledProgram prog;
    mapper::Schedule sched;
    adg::Adg hw;
};

Compiled
compileOn(const std::string &workload, adg::Adg hw, int iters = 500)
{
    Compiled c;
    c.hw = std::move(hw);
    auto features = compiler::HwFeatures::fromAdg(c.hw);
    const auto &w = workloads::workload(workload);
    auto placement = compiler::Placement::autoLayout(w.kernel, features);
    auto r = compiler::lowerKernel(w.kernel, placement, features, {}, 1);
    EXPECT_TRUE(r.ok) << r.error;
    c.prog = r.version.program;
    c.sched = mapper::scheduleProgram(c.prog, c.hw,
                                      {.maxIters = iters, .seed = 3});
    return c;
}

TEST(Codegen, EmitsStreamCommands)
{
    auto c = compileOn("crs", adg::buildSpu(5, 5));
    compiler::CommandStats stats;
    std::string listing =
        compiler::emitControlProgram(c.prog, c.sched, c.hw, &stats);
    EXPECT_NE(listing.find("SS_CONFIG"), std::string::npos);
    EXPECT_NE(listing.find("SS_LINEAR_WRITE"), std::string::npos);
    EXPECT_NE(listing.find("SS_IND_READ"), std::string::npos);
    EXPECT_NE(listing.find("SS_WAIT_ALL"), std::string::npos);
    EXPECT_GE(stats.streamCommands, 3);
    EXPECT_GE(stats.configCommands, 1);
    EXPECT_GE(stats.barrierCommands, 1);
}

TEST(Codegen, SequentialProgramEmitsScript)
{
    auto c = compileOn("chol", adg::buildRevel(), 900);
    compiler::CommandStats stats;
    std::string listing =
        compiler::emitControlProgram(c.prog, c.sched, c.hw, &stats);
    EXPECT_NE(listing.find("issue_script"), std::string::npos);
    EXPECT_NE(listing.find("CALL region_"), std::string::npos);
    EXPECT_GT(stats.loopInstructions, 100);
}

TEST(Codegen, LoopAnnotationsForReissues)
{
    auto c = compileOn("mm", adg::buildSoftbrain());
    std::string listing =
        compiler::emitControlProgram(c.prog, c.sched, c.hw);
    EXPECT_NE(listing.find("LOOP i0 in [0, 64)"), std::string::npos);
}

TEST(DfgText, RoundTripLoweredRegion)
{
    auto c = compileOn("classifier", adg::buildSoftbrain());
    const auto &reg = c.prog.regions[0];
    std::string text = dfg::regionToText(reg);
    EXPECT_NE(text.find("input"), std::string::npos);
    EXPECT_NE(text.find("output"), std::string::npos);
    EXPECT_NE(text.find("acc"), std::string::npos);
}

TEST(DfgText, JoinControlSurvivesRoundTrip)
{
    auto c = compileOn("join", adg::buildSpu(5, 5));
    const auto &reg = c.prog.regions[0];
    std::string text = dfg::regionToText(reg);
    EXPECT_NE(text.find("ctrl=self"), std::string::npos);
    // Every controlled instruction's line carries its emit mask.
    int ctrlCount = 0;
    for (const auto &vx : reg.dfg.vertices()) {
        if (!vx.ctrl.active())
            continue;
        ++ctrlCount;
        size_t line = text.find("\n" + vx.name + " = ");
        ASSERT_NE(line, std::string::npos) << vx.name;
        std::string body = text.substr(line + 1,
                                       text.find('\n', line + 1) - line - 1);
        char emit[16];
        std::snprintf(emit, sizeof emit, " emit=0x%x", vx.ctrl.emitMask);
        EXPECT_NE(body.find(emit), std::string::npos) << body;
    }
    EXPECT_GT(ctrlCount, 0);
}

TEST(Report, UtilizationTables)
{
    auto c = compileOn("crs", adg::buildSpu(5, 5));
    ASSERT_TRUE(c.sched.cost.legal());
    const auto &w = workloads::workload("crs");
    auto golden = workloads::runGolden(w);
    auto features = compiler::HwFeatures::fromAdg(c.hw);
    auto placement = compiler::Placement::autoLayout(w.kernel, features);
    auto img = sim::MemImage::build(w.kernel, golden.initial, placement);
    auto res = sim::simulate(c.prog, c.sched, c.hw, img);
    ASSERT_TRUE(res.ok);
    EXPECT_FALSE(res.peFires.empty());
    EXPECT_FALSE(res.memBytes.empty());
    std::string report = sim::utilizationReport(res, c.hw);
    EXPECT_NE(report.find("cycles:"), std::string::npos);
    EXPECT_NE(report.find("B/cycle"), std::string::npos);
}

} // namespace
} // namespace dsa
