/**
 * @file
 * The `sim-fig10` workload: every registered workload at unroll 1 and
 * 4 on its Fig. 10 target accelerator, compiled and scheduled once,
 * then simulated on four input sets per pass with every output checked
 * against the golden interpreter. Set-up (golden runs, placement,
 * lowering, scheduling, and one warm pass that fills this run's JIT
 * object cache) is timed apart from the passes.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "adg/prebuilt.h"
#include "bench/e2e/e2e.h"
#include "compiler/compile.h"
#include "mapper/landmarks.h"
#include "mapper/scheduler.h"
#include "model/host_model.h"
#include "sim/jit/jit_runtime.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace dsa;

namespace e2e {

using Json = dsa::json::Value;

namespace {

using Scope = Tracer::Scope;

/**
 * The Fig. 10 target accelerators and scheduling budgets, fixed here
 * as they were in bench/bench_common.h when this workload was defined,
 * so that a change to the figure harness cannot silently change the
 * benchmark.
 */
adg::Adg
fig10Target(const std::string &name)
{
    if (name == "softbrain")
        return adg::buildSoftbrain(5, 5);
    if (name == "maeri")
        return adg::buildMaeri(16);
    if (name == "triggered")
        return adg::buildTriggered(4, 4);
    if (name == "spu")
        return adg::buildSpu(5, 5);
    if (name == "revel")
        return adg::buildRevel(4, 4);
    return adg::buildDseInitial();
}

int
schedBudget(const std::string &workload)
{
    if (workload == "fft")
        return 4000;
    if (workload == "md" || workload == "stencil-2d" || workload == "conv")
        return 2500;
    if (workload == "qr" || workload == "chol" ||
        workload == "sparse-cnn" || workload == "stencil-3d")
        return 1500;
    return 1000;
}

constexpr int kInputSets = 4;

/** One workload on its target, with its golden runs. */
struct Target
{
    const workloads::Workload *w = nullptr;
    adg::Adg hw;
    compiler::Placement placement;
    std::vector<workloads::GoldenRun> golden;
    std::vector<double> hostCycles;
};

/** One legal (workload, unroll) configuration. */
struct Config
{
    const Target *target = nullptr;
    int unroll = 1;
    dfg::DecoupledProgram prog;
    mapper::Schedule sched;
};

struct Setup
{
    std::vector<std::unique_ptr<Target>> targets;
    std::vector<Config> configs;
    mapper::SchedStats schedStats;
    uint64_t schedRuns = 0;
};

Setup
buildSetup(const Spec &spec, Tracer *tr)
{
    Setup su;
    const auto &all = workloads::allWorkloads();
    for (size_t i = 0; i < all.size(); ++i) {
        // The smoke size keeps every fourth workload.
        if (spec.smoke && i % 4 != 0)
            continue;
        auto t = std::make_unique<Target>();
        t->w = &all[i];
        t->hw = fig10Target(t->w->fig10Target);
        {
            Scope s(tr, "workloads.golden");
            for (int k = 0; k < kInputSets; ++k) {
                t->golden.push_back(workloads::runGolden(
                    *t->w, spec.seed + static_cast<uint64_t>(k)));
                t->hostCycles.push_back(
                    model::estimateHostCycles(t->golden.back().stats));
            }
        }
        compiler::HwFeatures features;
        {
            Scope s(tr, "compiler.place");
            features = compiler::HwFeatures::fromAdg(t->hw);
            t->placement = compiler::Placement::autoLayout(t->w->kernel,
                                                           features);
        }
        for (int u : {1, 4}) {
            compiler::LowerResult lowered;
            {
                Scope s(tr, "compiler.lower");
                lowered = compiler::lowerKernel(t->w->kernel, t->placement,
                                                features, {}, u);
            }
            if (!lowered.ok)
                continue;
            Config c;
            c.target = t.get();
            c.unroll = u;
            c.prog = std::move(lowered.version.program);
            mapper::SchedOptions so;
            so.maxIters = schedBudget(t->w->name) / (spec.smoke ? 10 : 1);
            so.seed = 7;
            {
                Scope s(tr, "mapper.schedule_init");
                mapper::SpatialScheduler scheduler(c.prog, t->hw, so);
                c.sched = scheduler.run();
                su.schedStats.merge(scheduler.stats());
            }
            ++su.schedRuns;
            if (c.sched.cost.legal())
                su.configs.push_back(std::move(c));
        }
        su.targets.push_back(std::move(t));
    }
    return su;
}

/** Totals of one pass over every (config, input set). */
struct Pass
{
    double wallS = 0;
    int64_t sims = 0;
    int failures = 0;
    int64_t cycles = 0;
    int64_t compiled = 0;
    int64_t replayed = 0;
    int64_t jit = 0;
    int64_t skipped = 0;
    int64_t generic = 0;
    /** Sum of log(host cycles / simulated cycles), for the geomean. */
    double logSpeedup = 0;
    std::vector<double> latencyMs;
};

Pass
runPass(const Setup &su, Tracer *tr)
{
    Pass p;
    auto t0 = Clock::now();
    for (const Config &c : su.configs) {
        const Target &t = *c.target;
        for (int k = 0; k < kInputSets; ++k) {
            const workloads::GoldenRun &g = t.golden[static_cast<size_t>(k)];
            sim::MemImage img;
            {
                Scope s(tr, "sim.image");
                img = sim::MemImage::build(t.w->kernel, g.initial,
                                           t.placement);
            }
            sim::SimResult res;
            {
                Scope s(tr, "sim.simulate");
                res = sim::simulate(c.prog, c.sched, t.hw, img);
                p.latencyMs.push_back(1e3 * s.elapsed());
            }
            Scope s(tr, "sim.check");
            ++p.sims;
            if (!res.ok) {
                ++p.failures;
                continue;
            }
            ir::ArrayStore out = g.initial;
            img.extract(t.w->kernel, t.placement, out);
            if (!workloads::checkOutputs(*t.w, g.final, out).empty())
                ++p.failures;
            p.cycles += res.cycles;
            p.compiled += res.cyclesCompiled;
            p.replayed += res.cyclesReplayed;
            p.jit += res.cyclesJit;
            p.skipped += res.cyclesSkipped;
            p.generic += res.cyclesGeneric;
            double simCycles =
                static_cast<double>(std::max<int64_t>(1, res.cycles));
            p.logSpeedup += std::log(
                t.hostCycles[static_cast<size_t>(k)] / simCycles);
        }
    }
    p.wallS = secondsSince(t0);
    return p;
}

} // namespace

Json
runSim(const Spec &spec)
{
    // Compile JIT kernels synchronously: the warm pass then leaves
    // every kernel ready, so the timed passes all run the same engine
    // mix instead of picking up background compiles part-way.
    ::setenv("DSA_SIM_JIT_SYNC", "1", 1);

    std::unique_ptr<Tracer> tracer;
    if (spec.traced)
        tracer = std::make_unique<Tracer>();
    Tracer *tr = tracer.get();
    auto t0 = Clock::now();

    Setup su = buildSetup(spec, tr);
    int failures = 0;
    int64_t sims = 0;
    {
        Scope s(tr, "sim.warm_pass");
        Pass warm = runPass(su, nullptr);
        failures += warm.failures;
        sims += warm.sims;
    }
    double setupS = secondsSince(t0);

    std::vector<Pass> passes;
    auto t1 = Clock::now();
    const size_t minPasses = spec.smoke ? 1 : 3;
    while (passes.size() < minPasses || secondsSince(t1) < spec.seconds)
        passes.push_back(runPass(su, tr));
    double wallS = secondsSince(t0);

    Json passDocs = Json::array();
    std::vector<double> latencies;
    Pass total;
    for (const Pass &p : passes) {
        failures += p.failures;
        // Simulation is deterministic: every pass must simulate exactly
        // the cycles the first one did.
        if (p.cycles != passes.front().cycles)
            ++failures;
        sims += p.sims;
        total.cycles += p.cycles;
        total.compiled += p.compiled;
        total.replayed += p.replayed;
        total.jit += p.jit;
        total.skipped += p.skipped;
        total.generic += p.generic;
        latencies.insert(latencies.end(), p.latencyMs.begin(),
                         p.latencyMs.end());
        Json pd = Json::object();
        pd.set("wall_s", Json::number(p.wallS));
        pd.set("sims", Json::number(p.sims));
        passDocs.push(std::move(pd));
    }
    const Pass &first = passes.front();
    const double quality = std::exp(
        first.logSpeedup /
        static_cast<double>(std::max<int64_t>(1, first.sims)));

    Metrics m;
    bool wrote = true;
    if (tr) {
        m["workloads.golden_s"] = tr->total("workloads.golden");
        m["compiler.place_s"] = tr->total("compiler.place");
        m["compiler.lower_s"] = tr->total("compiler.lower");
        m["mapper.schedule_init_s"] = tr->total("mapper.schedule_init");
        m["mapper.legal_ratio"] =
            ratio(su.configs.size(), su.schedRuns - su.configs.size());
        addSchedMetrics(m, su.schedStats);

        const double simulateS = tr->total("sim.simulate");
        const double wallCycles = static_cast<double>(std::max<int64_t>(
            1, total.compiled + total.skipped + total.generic));
        auto frac = [&](int64_t c) {
            return static_cast<double>(c) / wallCycles;
        };
        m["sim.simulate_s"] = simulateS;
        m["sim.image_s"] = tr->total("sim.image");
        m["sim.check_s"] = tr->total("sim.check");
        m["sim.simulate_p50_ms"] = quantile(latencies, 0.5);
        m["sim.simulate_p99_ms"] = quantile(latencies, 0.99);
        m["sim.host_ns_per_cycle"] =
            1e9 * simulateS /
            static_cast<double>(std::max<int64_t>(1, total.cycles));
        m["sim.cycles_total"] = static_cast<double>(first.cycles);
        m["sim.cycles_compiled_frac"] = frac(total.compiled);
        m["sim.cycles_replayed_frac"] = frac(total.replayed);
        m["sim.cycles_jit_frac"] = frac(total.jit);
        m["sim.cycles_skipped_frac"] = frac(total.skipped);
        m["sim.cycles_generic_frac"] = frac(total.generic);
        sim::jit::JitStats js = sim::jit::JitRuntime::instance().stats();
        m["sim.jit.compiles"] = static_cast<double>(js.compiles);
        m["sim.jit.compile_ms"] = js.compileMs;
        m["sim.jit.mem_hits"] = static_cast<double>(js.memHits);
        m["sim.jit.disk_hits"] = static_cast<double>(js.diskHits);
        m["sim.speedup_geomean"] = quality;
        m["trace.wall_s"] = wallS;
        m["trace.coverage"] = tr->coverage(wallS);
        wrote = writeJsonFile(spec.tracePath,
                              tr->chromeTrace(runMeta(spec)));
    }

    Json doc = Json::object();
    doc.set("setup_s", Json::number(setupS));
    doc.set("passes", std::move(passDocs));
    doc.set("attempted", Json::number(sims));
    doc.set("failures",
            Json::number(static_cast<int64_t>(failures + (wrote ? 0 : 1))));
    doc.set("configs", Json::number(static_cast<int64_t>(su.configs.size())));
    doc.set("quality", Json::number(quality));
    if (tr)
        doc.set("layers", metricsToJson(m));
    return doc;
}

} // namespace e2e
