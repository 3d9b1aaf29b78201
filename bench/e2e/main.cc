/**
 * @file
 * Entry point of the end-to-end benchmark (see README.md beside this
 * file).
 *
 *   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             --tmp DIR --out DIR [--benchmark-json FILE]
 *   e2e_bench --smoke --tmp DIR --out DIR --benchmark-json FILE
 *
 * One coordinating process runs each rep in a fresh child (this
 * binary re-executed with `__child`), one child at a time, so
 * process-wide caches and singletons never warm up across reps. A
 * child uses at most four threads or four worker subprocesses.
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * holding the end-to-end metrics (--trace 0) or the per-layer metrics
 * of a traced run (--trace 1). Any failed operation or correctness
 * gate makes `correct` false and the exit status 1.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/subprocess.h"
#include "bench/e2e/e2e.h"
#include "dse/worker_pool.h"

extern char **environ;

using dsa::json::Value;

namespace e2e {
namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics; every workload reports every one. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics of a traced run; layers a workload does not
 *  exercise report 0. */
const MetricDef kLayers[] = {
    {"mapper.schedule_init_s", "s"},
    {"mapper.schedule_repair_s", "s"},
    {"mapper.schedule_repair_p50_ms", "ms"},
    {"mapper.schedule_repair_p90_ms", "ms"},
    {"mapper.legal_ratio", "ratio"},
    {"mapper.iterations", "count"},
    {"mapper.route_calls", "count"},
    {"mapper.route_cache.hit_ratio", "ratio"},
    {"mapper.astar_searches", "count"},
    {"mapper.nodes_expanded", "count"},
    {"mapper.probe_memo.hit_ratio", "ratio"},
    {"mapper.landmark_cache.hit_ratio", "ratio"},
    {"compiler.place_s", "s"},
    {"compiler.lower_s", "s"},
    {"compiler.cache.placement_hit_ratio", "ratio"},
    {"compiler.cache.lower_hit_ratio", "ratio"},
    {"model.perf_s", "s"},
    {"model.cost_s", "s"},
    {"model.cost_memo.hit_ratio", "ratio"},
    {"workloads.golden_s", "s"},
    {"dse.explorer_ctor_s", "s"},
    {"dse.mutate_s", "s"},
    {"dse.fingerprint_s", "s"},
    {"dse.eval_cache.find_s", "s"},
    {"dse.eval_cache.hit_ratio", "ratio"},
    {"dse.store.load_s", "s"},
    {"dse.store.records_loaded", "count"},
    {"dse.store.quarantined", "count"},
    {"dse.store.append_s", "s"},
    {"dse.store.appends", "count"},
    {"dse.pareto.add_s", "s"},
    {"dse.dedup_collapsed", "count"},
    {"dse.best_objective", "score"},
    {"dse.front_hypervolume", "score"},
    {"ipc.spawn_s", "s"},
    {"ipc.batch_s", "s"},
    {"ipc.overhead_s", "s"},
    {"ipc.dispatched", "count"},
    {"ipc.redispatched", "count"},
    {"ipc.degraded", "count"},
    {"ipc.deaths", "count"},
    {"sim.simulate_s", "s"},
    {"sim.image_s", "s"},
    {"sim.check_s", "s"},
    {"sim.simulate_p50_ms", "ms"},
    {"sim.simulate_p99_ms", "ms"},
    {"sim.host_ns_per_cycle", "ns"},
    {"sim.cycles_total", "count"},
    {"sim.cycles_compiled_frac", "ratio"},
    {"sim.cycles_replayed_frac", "ratio"},
    {"sim.cycles_jit_frac", "ratio"},
    {"sim.cycles_skipped_frac", "ratio"},
    {"sim.cycles_generic_frac", "ratio"},
    {"sim.jit.compiles", "count"},
    {"sim.jit.compile_ms", "ms"},
    {"sim.jit.mem_hits", "count"},
    {"sim.jit.disk_hits", "count"},
    {"sim.speedup_geomean", "ratio"},
    {"trace.wall_s", "s"},
    {"trace.coverage", "ratio"},
};

const char *const kWorkloads[] = {"dse-cold", "dse-warm",
                                  "dse-pareto-workers", "sim-fig10"};

/** Traced runs whose spans cover less of the wall time are rejected. */
constexpr double kMinCoverage = 0.95;

struct Options
{
    std::string workload;
    uint64_t seed = 7;
    double seconds = 24;
    bool trace = false;
    bool smoke = false;
    std::string tmp;
    std::string out;
    std::string benchmarkJson;
};

/** What one workload run measured and how many operations failed. */
struct Outcome
{
    Metrics metrics;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** The deterministic result quality (best objective, front
     *  hypervolume, or simulated speedup over the host model). */
    double quality = 0;
};

void
fail(Outcome &o, const std::string &why)
{
    ++o.failed;
    std::fprintf(stderr, "e2e: FAIL: %s\n", why.c_str());
}

int64_t
intField(const Value &doc, const char *key)
{
    const Value *v = doc.find(key);
    return v ? v->asInt64() : 0;
}

double
numField(const Value &doc, const char *key)
{
    const Value *v = doc.find(key);
    return v ? v->asDouble() : 0;
}

std::string
strField(const Value &doc, const char *key)
{
    const Value *v = doc.find(key);
    return v ? v->asString() : std::string();
}

/** One finished child: its result document and peak memory. */
struct Child
{
    bool ok = false;
    Value doc;
    double peakRssMb = 0;
};

/**
 * Run @p spec in a fresh child process and wait for it. The peak RSS
 * is wait4's, which covers the child and every descendant it reaped
 * (the DSE worker subprocesses).
 */
Child
runChild(const Options &o, const Spec &spec)
{
    static int serial = 0;
    const std::string exe = dsa::Subprocess::selfExe();
    const std::string specText = specToJson(spec).dump();
    const std::string outPath =
        o.tmp + "/child-" + std::to_string(serial++) + ".json";
    std::vector<char *> argv = {const_cast<char *>(exe.c_str()),
                                const_cast<char *>("__child"),
                                const_cast<char *>(specText.c_str()),
                                const_cast<char *>(outPath.c_str()),
                                nullptr};
    Child c;
    pid_t pid = -1;
    if (::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(),
                      environ) != 0)
        return c;
    int status = 0;
    rusage ru{};
    if (::wait4(pid, &status, 0, &ru) != pid)
        return c;
    c.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return c;
    std::ifstream in(outPath);
    std::stringstream ss;
    ss << in.rdbuf();
    auto doc = dsa::json::parse(ss.str());
    std::filesystem::remove(outPath);
    if (!doc.ok())
        return c;
    c.doc = std::move(doc.value());
    c.ok = true;
    return c;
}

Spec
baseSpec(const Options &o)
{
    Spec s;
    s.workload = o.workload;
    s.seed = o.seed;
    s.smoke = o.smoke;
    s.seconds = o.seconds;
    return s;
}

/** Work and wall time of one timed rep (or simulation pass). */
struct Sample
{
    double work = 0;
    double seconds = 0;
};

/**
 * Work per second over the faster half of @p samples. Other tenants of
 * a shared host only ever slow a rep down, and on the host this was
 * calibrated on they do so in bursts of a few seconds; dropping the
 * slower half keeps those bursts out of the number without letting one
 * lucky rep set it.
 */
double
fastHalfRate(std::vector<Sample> samples)
{
    std::sort(samples.begin(), samples.end(),
              [](const Sample &a, const Sample &b) {
                  return a.work * b.seconds > b.work * a.seconds;
              });
    double work = 0, seconds = 0;
    for (size_t i = 0; i < (samples.size() + 1) / 2; ++i) {
        work += samples[i].work;
        seconds += samples[i].seconds;
    }
    return seconds > 0 ? work / seconds : 0;
}

/**
 * The median of the faster half of @p xs (their lower quartile). As
 * in fastHalfRate, contention only ever slows a sample down; on the
 * calibration host it makes set-up times bimodal (about 1.4 times as
 * long while a burst lasts), and a plain median jumps between the two
 * modes whenever about half the samples fall in a burst.
 */
double
fastHalfMedian(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.25);
}

/** Set-up samples per DSE run besides the reps', each in its own
 *  process. */
constexpr int kSetupSamples = 16;

/**
 * Timed DSE reps until the time is up (at least three). setup_s is
 * fastHalfMedian of the explorer construction times of the reps and of
 * kSetupSamples construct-only processes, which run between the reps,
 * spread evenly over the timed window; ops_per_s is candidates
 * evaluated per second of `Explorer::run` wall time (fastHalfRate over
 * the reps).
 */
Outcome
timedDse(const Options &o)
{
    Outcome out;
    const bool warm = o.workload == "dse-warm";
    const bool pareto = o.workload == "dse-pareto-workers";
    Spec spec = baseSpec(o);
    std::string refDigest;
    if (warm) {
        // Prepare step: the cold exploration that fills the store.
        spec.storeDir = o.tmp + "/warm-store";
        Child prep = runChild(o, spec);
        if (!prep.ok) {
            fail(out, "dse-warm prepare run failed");
            return out;
        }
        out.attempted += intField(prep.doc, "candidates");
        out.failed += intField(prep.doc, "failures");
        refDigest = strField(prep.doc, "digest");
    }

    std::vector<double> ctorS;
    Spec setup = spec;
    setup.setupOnly = true;
    if (pareto)
        setup.storeDir = o.tmp + "/store-setup";
    const int setupSamples = o.smoke ? 1 : kSetupSamples;
    int setupTaken = 0;
    auto sampleSetup = [&] {
        Child c = runChild(o, setup);
        if (pareto)
            std::filesystem::remove_all(setup.storeDir);
        if (!c.ok) {
            fail(out, o.workload + " set-up process failed");
            return false;
        }
        ctorS.push_back(numField(c.doc, "ctor_s"));
        ++setupTaken;
        return true;
    };
    if (!sampleSetup())
        return out;

    std::vector<Sample> reps;
    double peakRss = 0;
    const int minReps = o.smoke ? 1 : 3;
    auto t0 = Clock::now();
    for (int rep = 1; rep <= minReps || secondsSince(t0) < o.seconds;
         ++rep) {
        const double due =
            setupSamples * std::min(1.0, secondsSince(t0) / o.seconds);
        while (setupTaken < due)
            if (!sampleSetup())
                return out;
        if (pareto)
            spec.storeDir = o.tmp + "/store-" + std::to_string(rep);
        Child c = runChild(o, spec);
        if (pareto)
            std::filesystem::remove_all(spec.storeDir);
        if (!c.ok) {
            ++out.attempted;
            fail(out, o.workload + " rep process failed");
            break;
        }
        const Value &d = c.doc;
        out.attempted += intField(d, "candidates");
        out.failed += intField(d, "failures");
        const std::string dig = strField(d, "digest");
        if (refDigest.empty())
            refDigest = dig;
        else if (dig != refDigest)
            fail(out, o.workload + " trace digest " + dig +
                          " differs from " + refDigest);
        if (warm && intField(d, "eval_misses") != 0)
            fail(out, "dse-warm replay missed the eval cache");
        ctorS.push_back(numField(d, "ctor_s"));
        reps.push_back({static_cast<double>(intField(d, "candidates")),
                        numField(d, "run_s")});
        peakRss = std::max(peakRss, c.peakRssMb);
        out.quality = numField(d, "quality");
        std::fprintf(stderr,
                     "e2e: rep %d: set-up %.3f s, run %.3f s, %lld "
                     "candidates, %.1f MB, digest %s\n",
                     rep, ctorS.back(), numField(d, "run_s"),
                     static_cast<long long>(intField(d, "candidates")),
                     c.peakRssMb, dig.c_str());
    }
    while (setupTaken < setupSamples)
        if (!sampleSetup())
            return out;
    out.metrics["setup_s"] = fastHalfMedian(ctorS);
    out.metrics["ops_per_s"] = fastHalfRate(reps);
    out.metrics["peak_rss_mb"] = peakRss;
    return out;
}

/** The sweep in one process: set-up once, then timed passes. */
Outcome
timedSim(const Options &o)
{
    Outcome out;
    Child run = runChild(o, baseSpec(o));
    if (!run.ok) {
        fail(out, "sim-fig10 process failed");
        return out;
    }
    const Value &d = run.doc;
    out.attempted = intField(d, "attempted");
    out.failed = intField(d, "failures");
    std::vector<Sample> passes;
    for (const Value &p : d.find("passes")->items()) {
        passes.push_back({static_cast<double>(intField(p, "sims")),
                          numField(p, "wall_s")});
        std::fprintf(stderr, "e2e: pass %zu: %.3f s, %.0f simulations\n",
                     passes.size(), passes.back().seconds,
                     passes.back().work);
    }
    out.metrics["setup_s"] = numField(d, "setup_s");
    out.metrics["ops_per_s"] = fastHalfRate(passes);
    out.metrics["peak_rss_mb"] = run.peakRssMb;
    out.quality = numField(d, "quality");
    std::fprintf(stderr,
                 "e2e: set-up %.3f s, %zu passes over %lld configs, "
                 "%.1f simulations/s\n",
                 out.metrics["setup_s"], passes.size(),
                 static_cast<long long>(intField(d, "configs")),
                 out.metrics["ops_per_s"]);
    return out;
}

/**
 * Traced run: for a DSE workload, the production reference run and the
 * traced walk, whose digests must agree; for the sweep, one traced
 * child. The child writes the Chrome trace; the per-layer metrics come
 * back in its result.
 */
Outcome
tracedRun(const Options &o)
{
    Outcome out;
    Spec spec = baseSpec(o);
    std::string refDigest;
    if (o.workload != "sim-fig10") {
        if (o.workload != "dse-cold")
            spec.storeDir = o.tmp + "/" + o.workload + "-ref-store";
        Child ref = runChild(o, spec);
        if (!ref.ok) {
            fail(out, o.workload + " reference run failed");
            return out;
        }
        out.attempted += intField(ref.doc, "candidates");
        out.failed += intField(ref.doc, "failures");
        refDigest = strField(ref.doc, "digest");
        // The warm walk replays from the reference run's store; the
        // worker walk starts a fresh one, as every rep does.
        if (o.workload == "dse-pareto-workers")
            spec.storeDir = o.tmp + "/" + o.workload + "-walk-store";
    }
    spec.traced = true;
    spec.tracePath = o.out + "/" + o.workload + ".trace.json";
    Child walk = runChild(o, spec);
    if (!walk.ok) {
        fail(out, o.workload + " traced run failed");
        return out;
    }
    const Value &d = walk.doc;
    out.attempted += d.find("attempted") ? intField(d, "attempted")
                                         : intField(d, "candidates");
    out.failed += intField(d, "failures");
    if (!refDigest.empty() && strField(d, "digest") != refDigest)
        fail(out, o.workload + " traced walk digest differs from the "
                               "production run's");
    for (const auto &[name, v] : d.find("layers")->members())
        out.metrics[name] = v.asDouble();
    if (o.workload == "dse-warm" &&
        out.metrics["dse.eval_cache.hit_ratio"] != 1.0)
        fail(out, "dse-warm traced walk missed the eval cache");
    if (out.metrics["trace.coverage"] < kMinCoverage)
        fail(out, o.workload + " trace coverage " +
                      std::to_string(out.metrics["trace.coverage"]) +
                      " is below the minimum");
    return out;
}

Value
metaDoc(const Options &o)
{
    Spec spec = baseSpec(o);
    Value m = runMeta(spec);
    m.set("seconds", Value::number(o.seconds));
    m.set("trace", Value::boolean(o.trace));
    return m;
}

/**
 * Runs one workload and returns the result line. Metric names come
 * from the fixed tables, so every run prints the same set; a name the
 * workload produced outside the table is a failure.
 */
Value
runWorkload(const Options &o, Outcome &out)
{
    if (o.trace)
        out = tracedRun(o);
    else if (o.workload == "sim-fig10")
        out = timedSim(o);
    else
        out = timedDse(o);

    Value metrics = Value::object();
    size_t known = 0;
    auto emit = [&](const MetricDef &def) {
        auto it = out.metrics.find(def.name);
        known += it != out.metrics.end();
        Value mv = Value::object();
        mv.set("value",
               Value::number(it != out.metrics.end() ? it->second : 0.0));
        mv.set("unit", Value::str(def.unit));
        metrics.set(def.name, std::move(mv));
    };
    if (o.trace)
        for (const MetricDef &def : kLayers)
            emit(def);
    else
        for (const MetricDef &def : kEndToEnd)
            emit(def);
    if (known != out.metrics.size())
        fail(out, "the workload produced a metric missing from the table");

    Value record = Value::object();
    record.set("meta", metaDoc(o));
    record.set("attempted", Value::number(out.attempted));
    record.set("failed", Value::number(out.failed));
    if (!o.trace)
        record.set("quality", Value::number(out.quality));
    record.set("metrics", metrics);
    writeJsonFile(o.out + "/" + o.workload +
                      (o.trace ? ".layers.json" : ".timed.json"),
                  record);

    Value line = Value::object();
    line.set("correct", Value::boolean(out.failed == 0));
    line.set("attempted", Value::number(std::max<int64_t>(1, out.attempted)));
    line.set("failed", Value::number(out.failed));
    line.set("metrics", std::move(metrics));
    return line;
}

dsa::Result<Value>
readJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return dsa::Status::notFound("cannot open " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    return dsa::json::parse(ss.str());
}

/** The names and units of @p section of BENCHMARK.json match @p line. */
bool
matchesBenchmark(const Value &bench, const char *section, const Value &line)
{
    const Value *defs = bench.find(section);
    const Value *metrics = line.find("metrics");
    if (!defs || !metrics || defs->size() != metrics->members().size())
        return false;
    for (const Value &def : defs->items()) {
        const Value *m = metrics->find(def.find("name")->asString());
        if (!m || m->find("unit")->asString() != def.find("unit")->asString())
            return false;
    }
    return true;
}

/**
 * Self-check at about a tenth of the size, one rep each: every
 * workload runs timed and traced, its metric names and units match
 * BENCHMARK.json both ways, the trace parses, and coverage holds.
 */
int
smoke(Options o)
{
    auto bench = readJson(o.benchmarkJson);
    if (!bench.ok()) {
        std::fprintf(stderr, "e2e: cannot read %s\n",
                     o.benchmarkJson.c_str());
        return 1;
    }
    bool ok = true;
    o.smoke = true;
    o.seconds = 0;
    for (const char *w : kWorkloads) {
        o.workload = w;
        for (bool trace : {false, true}) {
            o.trace = trace;
            Outcome out;
            Value line = runWorkload(o, out);
            bool names = matchesBenchmark(
                bench.value(), trace ? "per_layer" : "end_to_end", line);
            bool traceOk = true;
            if (trace) {
                auto doc = readJson(o.out + "/" + w + ".trace.json");
                traceOk = doc.ok() && doc.value().find("traceEvents");
            }
            bool pass = line.find("correct")->asBool() && names && traceOk;
            std::fprintf(stderr,
                         "e2e smoke: %-18s %-6s %s (metrics %s, trace %s)\n",
                         w, trace ? "traced" : "timed",
                         pass ? "ok" : "FAIL", names ? "ok" : "mismatch",
                         traceOk ? "ok" : "unreadable");
            ok = ok && pass;
        }
    }
    std::printf("{\"smoke\": %s}\n", ok ? "true" : "false");
    return ok ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] --tmp DIR --out DIR\n"
                 "       e2e_bench --smoke --tmp DIR --out DIR "
                 "--benchmark-json FILE\n"
                 "workloads: dse-cold dse-warm dse-pareto-workers "
                 "sim-fig10\n");
    return 2;
}

int
childMain(const char *specText, const char *outPath)
{
    try {
        auto parsed = dsa::json::parse(specText);
        if (!parsed.ok())
            return 1;
        Spec spec = specFromJson(parsed.value());
        Value doc =
            spec.workload == "sim-fig10" ? runSim(spec) : runDse(spec);
        return writeJsonFile(outPath, doc) ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e child: %s\n", e.what());
        return 1;
    }
}

} // namespace
} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    // The worker pool re-executes this binary as its evaluation worker.
    if (argc > 1 && std::strcmp(argv[1], "__dse-worker") == 0)
        return dsa::dse::workerMain();
    if (argc == 4 && std::strcmp(argv[1], "__child") == 0)
        return childMain(argv[2], argv[3]);

    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (!v)
            return usage();
        ++i;
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--tmp")
            o.tmp = v;
        else if (a == "--out")
            o.out = v;
        else if (a == "--benchmark-json")
            o.benchmarkJson = v;
        else
            return usage();
    }
    if (o.tmp.empty() || o.out.empty())
        return usage();
    std::filesystem::create_directories(o.out);
    if (o.smoke)
        return smoke(o);

    bool known = false;
    for (const char *w : kWorkloads)
        known = known || o.workload == w;
    if (!known)
        return usage();
    std::fprintf(stderr, "e2e: %s\n", metaDoc(o).dump().c_str());
    Outcome out;
    Value line = runWorkload(o, out);
    std::printf("%s\n", line.dump().c_str());
    return out.failed == 0 ? 0 : 1;
}
