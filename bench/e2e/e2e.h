/**
 * @file
 * Shared pieces of the end-to-end benchmark binary: the in-memory span
 * tracer, small statistics helpers, and the entry points of the two
 * workload families (DSE explorations and the Fig. 10 simulation
 * sweep). Every entry point runs inside a child process the coordinator
 * spawned, so process-wide caches start cold for each one.
 */

#ifndef DSA_BENCH_E2E_E2E_H
#define DSA_BENCH_E2E_E2E_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/json.h"

namespace dsa::mapper {
struct SchedStats;
} // namespace dsa::mapper

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Named per-layer measurements of one traced run. */
using Metrics = std::map<std::string, double>;

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);
/** Linear-interpolated quantile @p q in [0, 1] of @p xs (0 when empty). */
double quantile(std::vector<double> xs, double q);
/** @p hits / (@p hits + @p misses), 0 when nothing was attempted. */
double ratio(uint64_t hits, uint64_t misses);

/** The scheduler counters and the landmark-cache hit ratio. */
void addSchedMetrics(Metrics &m, const dsa::mapper::SchedStats &s);
dsa::json::Value metricsToJson(const Metrics &m);

/**
 * Single-threaded span recorder. Spans nest: one opened while another
 * is open becomes its child. Everything stays in memory until the run
 * writes it out as Chrome trace-event JSON.
 */
class Tracer
{
  public:
    Tracer();

    /** RAII span; a null tracer makes it a no-op. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the span opened. */
        double elapsed() const;

      private:
        Tracer *t_;
        int idx_ = -1;
        Clock::time_point start_;
    };

    /** Summed duration of every span named @p name, in seconds. */
    double total(const std::string &name) const;
    /** Durations of the spans named @p name, in seconds, in order. */
    std::vector<double> durations(const std::string &name) const;
    /** Summed duration of the top-level spans over @p wallS. */
    double coverage(double wallS) const;
    /** Chrome trace-event document (complete "X" events). */
    dsa::json::Value chromeTrace(const dsa::json::Value &meta) const;

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        double startUs = 0;
        double durUs = -1; ///< -1 while open
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
    int open_ = -1;
};

/**
 * Sizing of one workload run. The full size is the benchmark; the
 * smoke size (about a tenth) only checks that everything runs.
 */
struct Spec
{
    std::string workload;
    uint64_t seed = 7;
    bool smoke = false;
    bool traced = false;
    /** DSE: construct the explorer and stop (a set-up sample). */
    bool setupOnly = false;
    /** Eval-cache store directory ("" = none). */
    std::string storeDir;
    /** Timed seconds (the simulation sweep's pass loop). */
    double seconds = 24;
    /** Chrome trace output path (traced runs). */
    std::string tracePath;
};

dsa::json::Value specToJson(const Spec &s);
Spec specFromJson(const dsa::json::Value &v);

/**
 * One DSE exploration in this process. Untraced: the production
 * `Explorer::run`, timed around construction and the run. Traced: the
 * serial walk through the public calls with a span around each.
 * Returns the child's result document.
 */
dsa::json::Value runDse(const Spec &spec);

/** The Fig. 10 simulation sweep (set-up, warm-up, timed passes). */
dsa::json::Value runSim(const Spec &spec);

/** Run metadata recorded beside every output. */
dsa::json::Value runMeta(const Spec &spec);

/** Write @p doc to @p path; false on I/O failure. */
bool writeJsonFile(const std::string &path, const dsa::json::Value &doc);

} // namespace e2e

#endif // DSA_BENCH_E2E_E2E_H
