#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench/e2e/e2e.h"
#include "mapper/landmarks.h"
#include "mapper/scheduler.h"

using dsa::json::Value;

namespace e2e {

double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
ratio(uint64_t hits, uint64_t misses)
{
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
}

void
addSchedMetrics(Metrics &m, const dsa::mapper::SchedStats &s)
{
    m["mapper.iterations"] = static_cast<double>(s.iterations);
    m["mapper.route_calls"] = static_cast<double>(s.routeCalls);
    m["mapper.route_cache.hit_ratio"] = ratio(s.cacheHits, s.cacheMisses);
    m["mapper.astar_searches"] = static_cast<double>(s.astarSearches);
    m["mapper.nodes_expanded"] = static_cast<double>(s.nodesExpanded);
    m["mapper.probe_memo.hit_ratio"] =
        ratio(s.probeMemoHits, s.probeMemoMisses);
    dsa::mapper::LandmarkCacheStats lc = dsa::mapper::landmarkCacheStats();
    m["mapper.landmark_cache.hit_ratio"] = ratio(lc.hits, lc.misses);
}

Value
metricsToJson(const Metrics &m)
{
    Value v = Value::object();
    for (const auto &[name, value] : m)
        v.set(name, Value::number(value));
    return v;
}

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer *t, const char *name)
    : t_(t), start_(Clock::now())
{
    if (!t_)
        return;
    Span s;
    s.name = name;
    s.parent = t_->open_;
    s.startUs = std::chrono::duration<double, std::micro>(start_ -
                                                          t_->origin_)
                    .count();
    idx_ = static_cast<int>(t_->spans_.size());
    t_->spans_.push_back(std::move(s));
    t_->open_ = idx_;
}

Tracer::Scope::~Scope()
{
    if (!t_)
        return;
    Span &s = t_->spans_[static_cast<size_t>(idx_)];
    s.durUs = std::chrono::duration<double, std::micro>(Clock::now() -
                                                        start_)
                  .count();
    t_->open_ = s.parent;
}

double
Tracer::Scope::elapsed() const
{
    return secondsSince(start_);
}

double
Tracer::total(const std::string &name) const
{
    double us = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            us += s.durUs;
    return us * 1e-6;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.durUs * 1e-6);
    return out;
}

double
Tracer::coverage(double wallS) const
{
    // Top-level spans never overlap (one thread, strictly nested), so
    // their summed duration is the traced time attributed to a layer.
    double us = 0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            us += s.durUs;
    return wallS > 0 ? us * 1e-6 / wallS : 0;
}

Value
Tracer::chromeTrace(const Value &meta) const
{
    Value events = Value::array();
    for (const Span &s : spans_) {
        Value e = Value::object();
        e.set("name", Value::str(s.name));
        e.set("cat", Value::str(s.name.substr(0, s.name.find('.'))));
        e.set("ph", Value::str("X"));
        e.set("ts", Value::number(s.startUs));
        e.set("dur", Value::number(s.durUs));
        e.set("pid", Value::number(static_cast<int64_t>(1)));
        e.set("tid", Value::number(static_cast<int64_t>(1)));
        events.push(std::move(e));
    }
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Value::str("ms"));
    doc.set("metadata", meta);
    return doc;
}

Value
specToJson(const Spec &s)
{
    Value v = Value::object();
    v.set("workload", Value::str(s.workload));
    v.set("seed", Value::number(static_cast<int64_t>(s.seed)));
    v.set("smoke", Value::boolean(s.smoke));
    v.set("traced", Value::boolean(s.traced));
    v.set("setup_only", Value::boolean(s.setupOnly));
    v.set("store_dir", Value::str(s.storeDir));
    v.set("seconds", Value::number(s.seconds));
    v.set("trace_path", Value::str(s.tracePath));
    return v;
}

Spec
specFromJson(const Value &v)
{
    Spec s;
    s.workload = v.find("workload")->asString();
    s.seed = static_cast<uint64_t>(v.find("seed")->asInt64());
    s.smoke = v.find("smoke")->asBool();
    s.traced = v.find("traced")->asBool();
    s.setupOnly = v.find("setup_only")->asBool();
    s.storeDir = v.find("store_dir")->asString();
    s.seconds = v.find("seconds")->asDouble();
    s.tracePath = v.find("trace_path")->asString();
    return s;
}

Value
runMeta(const Spec &spec)
{
    const char *commit = std::getenv("E2E_COMMIT");
    Value m = Value::object();
    m.set("workload", Value::str(spec.workload));
    m.set("seed", Value::number(static_cast<int64_t>(spec.seed)));
    m.set("smoke", Value::boolean(spec.smoke));
    m.set("build_type", Value::str(E2E_BUILD_TYPE));
    m.set("compiler", Value::str(E2E_COMPILER));
    m.set("nproc", Value::number(static_cast<int64_t>(
                       std::thread::hardware_concurrency())));
    m.set("commit", Value::str(commit && *commit ? commit : "unknown"));
    return m;
}

bool
writeJsonFile(const std::string &path, const Value &doc)
{
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out.flush());
}

} // namespace e2e
