/**
 * @file
 * DSE evaluation-memoization micro-benchmark: runs the same
 * exploration three times per suite —
 *   1. "uncached": every cache disabled (always-recompute baseline);
 *   2. "cached": eval cache + compile cache + cost memo + batch dedup
 *      enabled, cold (measures forward-run caching and shows there is
 *      no cache-cold regression);
 *   3. "replay": the identical exploration again, warm-started from
 *      the cache store the cold cached run appended every fresh
 *      evaluation to — every evaluation hits, so the replay skips all
 *      compile + schedule work (the "resume does not re-pay" path).
 * All three must produce bit-identical results; the harness aborts on
 * any divergence. Reports candidates/second plus per-cache hit rates
 * as JSON (written by scripts/bench_dse.sh into BENCH_dse.json).
 *
 * A fourth and fifth run per suite exercise the multi-objective mode:
 * the same exploration with --pareto semantics at 1 thread and at N
 * threads. The two fronts must be bit-identical (the harness aborts on
 * a nondeterministic front); the JSON records the front size, final
 * hypervolume, the hypervolume-vs-candidates curve, and whether some
 * front point dominates (or matches) the scalar run's best design.
 *
 * Finally, a multi-process sweep re-runs the exploration with
 * --workers N for N in {1, 2, 4}, all sharing one on-disk eval-cache
 * store: N=1 runs cold and populates the store, N=2 and N=4 warm-start
 * from it. The harness aborts on any divergence from the in-process
 * run and records candidates/second, the warm shared-cache hit rate,
 * and store load/append counts per N. (This binary doubles as the
 * worker subprocess via the `__dse-worker` argv marker.)
 *
 * Usage: micro_dse [out.json] [iters] [batch] [threads] [schedIters]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>

#include "adg/prebuilt.h"
#include "base/thread_pool.h"
#include "dse/explorer.h"
#include "dse/worker_pool.h"
#include "workloads/workload.h"

using namespace dsa;

namespace {

struct Timed
{
    dse::DseResult res;
    double seconds = 0;
    double candidatesPerSec = 0;
};

Timed
timedRun(const char *suite, const dse::DseOptions &opts)
{
    dse::Explorer ex(workloads::suiteWorkloads(suite), opts);
    auto t0 = std::chrono::steady_clock::now();
    Timed t;
    t.res = ex.run(adg::buildDseInitial());
    t.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    // Every history record is one candidate evaluation outcome (the
    // two seed evaluations included) — the unit of work the caches
    // accelerate.
    t.candidatesPerSec =
        static_cast<double>(t.res.history.size()) / t.seconds;
    return t;
}

double
rate(uint64_t hits, uint64_t misses)
{
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
}

/** Remove a flat directory (the per-suite cache-store scratch dirs). */
void
rmTree(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (dirent *e = ::readdir(d)) {
            std::string n = e->d_name;
            if (n != "." && n != "..")
                std::remove((dir + "/" + n).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // The worker pool re-execs this binary as its evaluation worker.
    if (argc > 1 && std::string(argv[1]) == "__dse-worker")
        return dse::workerMain();

    std::string outPath = argc > 1 ? argv[1] : "BENCH_dse.json";
    int iters = argc > 2 ? std::atoi(argv[2]) : 60;
    int batch = argc > 3 ? std::atoi(argv[3]) : 6;
    int threads = argc > 4 ? std::atoi(argv[4]) : 0;
    int schedIters = argc > 5 ? std::atoi(argv[5]) : 40;
    if (threads <= 0)
        threads = ThreadPool::hardwareThreads();

    const char *suites[] = {"PolyBench", "Dsp"};

    // Recorded so a committed BENCH_dse.json names the build it was
    // measured from (scripts/bench_dse.sh exports this and refuses to
    // record non-Release builds untagged) and the host's core count,
    // which bounds what the thread and worker rows can show.
    const char *buildType = std::getenv("DSA_BENCH_BUILD_TYPE");
    std::string json = "{\n  \"build_type\": \"" +
                       std::string(buildType ? buildType : "unknown") +
                       "\",\n  \"num_cpus\": " +
                       std::to_string(ThreadPool::hardwareThreads()) +
                       ",\n  \"benchmarks\": [\n";
    bool first = true;
    for (const char *suite : suites) {
        dse::DseOptions base;
        base.maxIters = iters;
        base.noImproveExit = iters;
        base.schedIters = schedIters;
        base.unrollFactors = {1, 4};
        base.seed = 7;
        base.threads = threads;
        base.candidateBatch = batch;

        dse::DseOptions cold = base;
        cold.memoize = false;
        cold.dedupBatch = false;

        // The cold cached run appends every fresh evaluation to a
        // store; the replay run warm-starts from that store.
        std::string replayStore =
            std::string("bench_dse_") + suite + ".replay.store";
        rmTree(replayStore);
        dse::DseOptions cachedOpts = base;
        cachedOpts.cacheStoreDir = replayStore;

        std::printf("== %s: %d iters, batch %d, %d threads ==\n", suite,
                    iters, batch, threads);
        Timed uncached = timedRun(suite, cold);
        std::printf("  uncached: %.1fs, %.2f candidates/s\n",
                    uncached.seconds, uncached.candidatesPerSec);
        Timed cached = timedRun(suite, cachedOpts);
        const dse::DseCacheStats &cs = cached.res.cacheStats;
        std::printf("  cached:   %.1fs, %.2f candidates/s (%.2fx)\n",
                    cached.seconds, cached.candidatesPerSec,
                    cached.candidatesPerSec / uncached.candidatesPerSec);
        std::printf("  eval %.0f%% hit, placement %.0f%%, lowering "
                    "%.0f%%, cost %.0f%%, dedup-collapsed %llu\n",
                    100 * rate(cs.evalHits, cs.evalMisses),
                    100 * rate(cs.placementHits, cs.placementMisses),
                    100 * rate(cs.lowerHits, cs.lowerMisses),
                    100 * rate(cs.costHits, cs.costMisses),
                    static_cast<unsigned long long>(cs.dedupCollapsed));

        if (cs.storeAppends == 0) {
            std::fprintf(stderr, "FATAL: no persisted eval cache in %s\n",
                         replayStore.c_str());
            return 1;
        }
        Timed replay = timedRun(suite, cachedOpts);
        const dse::DseCacheStats &rs = replay.res.cacheStats;
        std::printf("  replay:   %.1fs, %.2f candidates/s (%.2fx), "
                    "eval %.0f%% hit\n",
                    replay.seconds, replay.candidatesPerSec,
                    replay.candidatesPerSec / uncached.candidatesPerSec,
                    100 * rate(rs.evalHits, rs.evalMisses));
        rmTree(replayStore);

        // The caches must not change a single bit of the outcome;
        // a mismatch invalidates the whole benchmark.
        bool identical =
            cached.res.best.toText() == uncached.res.best.toText() &&
            cached.res.bestObjective == uncached.res.bestObjective &&
            cached.res.history.size() == uncached.res.history.size() &&
            replay.res.best.toText() == uncached.res.best.toText() &&
            replay.res.bestObjective == uncached.res.bestObjective &&
            replay.res.history.size() == uncached.res.history.size();
        if (!identical) {
            std::fprintf(stderr,
                         "FATAL: cached/replay and uncached runs "
                         "diverged on %s\n",
                         suite);
            return 1;
        }

        // Multi-objective mode: serial and parallel runs must grow the
        // exact same front (hypervolume acceptance updates the archive
        // strictly serially, so thread count may change nothing).
        dse::DseOptions ps = base;
        ps.pareto = true;
        ps.paretoFrontSize = 16;
        ps.threads = 1;
        Timed pSerial = timedRun(suite, ps);
        ps.threads = threads;
        Timed pPar = timedRun(suite, ps);
        bool sameFront =
            pSerial.res.front.size() == pPar.res.front.size() &&
            pSerial.res.frontHypervolume == pPar.res.frontHypervolume;
        for (size_t i = 0; sameFront && i < pSerial.res.front.size();
             ++i) {
            const dse::ParetoRecord &a = pSerial.res.front[i];
            const dse::ParetoRecord &b = pPar.res.front[i];
            sameFront = a.perf == b.perf && a.areaMm2 == b.areaMm2 &&
                        a.powerMw == b.powerMw &&
                        a.objective == b.objective && a.iter == b.iter;
        }
        if (!sameFront) {
            std::fprintf(stderr,
                         "FATAL: pareto front nondeterministic across "
                         "thread counts on %s\n",
                         suite);
            return 1;
        }
        std::printf("  pareto:   %.1fs serial / %.1fs parallel, "
                    "%zu-point front, hypervolume %.3f\n",
                    pSerial.seconds, pPar.seconds,
                    pPar.res.front.size(), pPar.res.frontHypervolume);

        // Hypervolume-vs-candidates: one [evaluated-candidates, hv]
        // sample per hypervolume change (the curve is a step function,
        // so only the steps carry information).
        std::string curve;
        double lastHv = -1;
        size_t nCands = 0;
        for (const auto &h : pPar.res.history) {
            ++nCands;
            if (h.hypervolume == lastHv)
                continue;
            char pb[96];
            std::snprintf(pb, sizeof pb, "%s[%zu, %.6f]",
                          curve.empty() ? "" : ", ", nCands,
                          h.hypervolume);
            curve += pb;
            lastHv = h.hypervolume;
        }
        bool dominatesScalar = false;
        for (const auto &p : pPar.res.front)
            dominatesScalar |= p.perf >= cached.res.bestPerf &&
                               p.areaMm2 <= cached.res.bestCost.areaMm2 &&
                               p.powerMw <= cached.res.bestCost.powerMw;

        // Multi-process sweep: crash-isolated worker subprocesses
        // sharing one on-disk eval-cache store. N=1 runs cold and
        // populates the store; N=2 and N=4 warm-start from it. The
        // transport must not change a single bit of the outcome.
        std::string storeDir = std::string("bench_dse_") + suite + ".store";
        rmTree(storeDir);
        std::string workersJson;
        for (int nw : {1, 2, 4}) {
            dse::DseOptions wo = base;
            wo.workers = nw;
            wo.cacheStoreDir = storeDir;
            Timed wt = timedRun(suite, wo);
            if (wt.res.best.toText() != uncached.res.best.toText() ||
                wt.res.bestObjective != uncached.res.bestObjective ||
                wt.res.history.size() != uncached.res.history.size()) {
                std::fprintf(stderr,
                             "FATAL: --workers %d diverged from the "
                             "in-process run on %s\n",
                             nw, suite);
                return 1;
            }
            const dse::DseCacheStats &wcs = wt.res.cacheStats;
            const dse::WorkerPoolStats &wws = wt.res.workerStats;
            std::printf("  workers=%d: %.1fs, %.2f candidates/s, "
                        "eval %.0f%% hit, store %llu loaded / %llu "
                        "appended\n",
                        nw, wt.seconds, wt.candidatesPerSec,
                        100 * rate(wcs.evalHits, wcs.evalMisses),
                        static_cast<unsigned long long>(wcs.storeLoaded),
                        static_cast<unsigned long long>(wcs.storeAppends));
            char wb[320];
            std::snprintf(
                wb, sizeof wb,
                "%s{\"workers\": %d, \"seconds\": %.3f, "
                "\"candidates_per_sec\": %.3f, \"eval_hit_rate\": %.4f, "
                "\"store_loaded\": %llu, \"store_appends\": %llu, "
                "\"degraded\": %llu}",
                workersJson.empty() ? "" : ", ", nw, wt.seconds,
                wt.candidatesPerSec, rate(wcs.evalHits, wcs.evalMisses),
                static_cast<unsigned long long>(wcs.storeLoaded),
                static_cast<unsigned long long>(wcs.storeAppends),
                static_cast<unsigned long long>(wws.degraded));
            workersJson += wb;
        }
        rmTree(storeDir);

        char buf[8192];  // roomy: the hv curve rides along as a %s
        std::snprintf(
            buf, sizeof buf,
            "%s    {\n"
            "      \"suite\": \"%s\",\n"
            "      \"iters\": %d,\n"
            "      \"batch\": %d,\n"
            "      \"threads\": %d,\n"
            "      \"candidates\": %zu,\n"
            "      \"identical_results\": true,\n"
            "      \"uncached\": {\"seconds\": %.3f, "
            "\"candidates_per_sec\": %.3f},\n"
            "      \"cached\": {\"seconds\": %.3f, "
            "\"candidates_per_sec\": %.3f,\n"
            "        \"eval_hit_rate\": %.4f, \"placement_hit_rate\": "
            "%.4f,\n"
            "        \"lower_hit_rate\": %.4f, \"cost_hit_rate\": %.4f,\n"
            "        \"eval_entries\": %llu, \"dedup_collapsed\": %llu},\n"
            "      \"replay\": {\"seconds\": %.3f, "
            "\"candidates_per_sec\": %.3f,\n"
            "        \"eval_hit_rate\": %.4f},\n"
            "      \"cached_speedup\": %.3f,\n"
            "      \"replay_speedup\": %.3f,\n"
            "      \"pareto\": {\"serial_seconds\": %.3f, "
            "\"parallel_seconds\": %.3f,\n"
            "        \"front_size\": %zu, \"hypervolume\": %.6f,\n"
            "        \"identical_across_threads\": true,\n"
            "        \"dominates_scalar\": %s,\n"
            "        \"hv_vs_candidates\": [%s]},\n"
            "      \"workers_shared_store\": [%s]\n"
            "    }",
            first ? "" : ",\n", suite, iters, batch, threads,
            cached.res.history.size(), uncached.seconds,
            uncached.candidatesPerSec, cached.seconds,
            cached.candidatesPerSec, rate(cs.evalHits, cs.evalMisses),
            rate(cs.placementHits, cs.placementMisses),
            rate(cs.lowerHits, cs.lowerMisses),
            rate(cs.costHits, cs.costMisses),
            static_cast<unsigned long long>(cs.evalEntries),
            static_cast<unsigned long long>(cs.dedupCollapsed),
            replay.seconds, replay.candidatesPerSec,
            rate(rs.evalHits, rs.evalMisses),
            cached.candidatesPerSec / uncached.candidatesPerSec,
            replay.candidatesPerSec / uncached.candidatesPerSec,
            pSerial.seconds, pPar.seconds, pPar.res.front.size(),
            pPar.res.frontHypervolume, dominatesScalar ? "true" : "false",
            curve.c_str(), workersJson.c_str());
        json += buf;
        first = false;
    }
    json += "\n  ]\n}\n";

    std::ofstream out(outPath);
    out << json;
    std::printf("wrote %s\n", outPath.c_str());
    return 0;
}
