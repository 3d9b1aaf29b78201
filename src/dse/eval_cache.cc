#include "dse/eval_cache.h"

#include "base/hashing.h"

namespace dsa::dse {

namespace {

uint64_t
hashRoute(uint64_t h, const mapper::Route &route)
{
    h = hashCombine(h, static_cast<uint64_t>(route.size()));
    for (adg::EdgeId e : route)
        h = hashCombine(h, static_cast<uint64_t>(e));
    return h;
}

} // namespace

uint64_t
hashSchedule(const mapper::Schedule &s)
{
    uint64_t h = 0x73636865642d6873ull; // "sched-hs"
    h = hashCombine(h, static_cast<uint64_t>(s.regions.size()));
    for (const auto &r : s.regions) {
        h = hashCombine(h, static_cast<uint64_t>(r.serialized));
        h = hashCombine(h, static_cast<uint64_t>(r.vertexMap.size()));
        for (adg::NodeId v : r.vertexMap)
            h = hashCombine(h, static_cast<uint64_t>(v));
        h = hashCombine(h, static_cast<uint64_t>(r.streamMap.size()));
        for (adg::NodeId v : r.streamMap)
            h = hashCombine(h, static_cast<uint64_t>(v));
        h = hashCombine(h, static_cast<uint64_t>(r.vertexTime.size()));
        for (int t : r.vertexTime)
            h = hashCombine(h, static_cast<uint64_t>(t));
        h = hashCombine(h, static_cast<uint64_t>(r.routes.size()));
        for (const auto &[key, route] : r.routes) {
            h = hashCombine(h, static_cast<uint64_t>(key.first));
            h = hashCombine(h, static_cast<uint64_t>(key.second));
            h = hashRoute(h, route);
        }
        h = hashCombine(h, static_cast<uint64_t>(r.recurrenceRoutes.size()));
        for (const auto &[sid, route] : r.recurrenceRoutes) {
            h = hashCombine(h, static_cast<uint64_t>(sid));
            h = hashRoute(h, route);
        }
    }
    h = hashCombine(h, static_cast<uint64_t>(s.forwardRoutes.size()));
    for (const auto &[fi, route] : s.forwardRoutes) {
        h = hashCombine(h, static_cast<uint64_t>(fi));
        h = hashRoute(h, route);
    }
    h = hashCombine(h, static_cast<uint64_t>(s.cost.unplaced));
    h = hashCombine(h, static_cast<uint64_t>(s.cost.overuse));
    h = hashCombine(h, static_cast<uint64_t>(s.cost.violations));
    h = hashCombine(h, static_cast<uint64_t>(s.cost.maxIi));
    h = hashCombine(h, static_cast<uint64_t>(s.cost.recurrenceLatency));
    h = hashCombine(h, static_cast<uint64_t>(s.cost.wirelength));
    return h;
}

uint64_t
hashScheduleCache(const ScheduleCache &cache)
{
    // std::map iteration is ordered, so the fold is deterministic.
    uint64_t h = 0x72657061697263ull; // "repairc"
    h = hashCombine(h, static_cast<uint64_t>(cache.size()));
    for (const auto &[key, entry] : cache) {
        h = hashCombine(h, static_cast<uint64_t>(key.first));
        h = hashCombine(h, static_cast<uint64_t>(key.second));
        h = hashCombine(h, static_cast<uint64_t>(entry.hasLegal));
        if (entry.hasLegal)
            h = hashCombine(h, hashSchedule(entry.sched));
    }
    return h;
}

std::shared_ptr<const EvalCacheEntry>
EvalCache::find(const EvalKey &key)
{
    Shard &shard = shards_[EvalKeyHash{}(key) % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void
EvalCache::insert(const EvalKey &key,
                  std::shared_ptr<const EvalCacheEntry> entry)
{
    Shard &shard = shards_[EvalKeyHash{}(key) % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.entries.emplace(key, std::move(entry));
    if (inserted)
        inserts_.fetch_add(1, std::memory_order_relaxed);
}

void
EvalCache::restore(const EvalKey &key,
                   std::shared_ptr<const EvalCacheEntry> entry)
{
    Shard &shard = shards_[EvalKeyHash{}(key) % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.emplace(key, std::move(entry));
}

EvalCacheStats
EvalCache::stats() const
{
    EvalCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.inserts = inserts_.load(std::memory_order_relaxed);
    return s;
}

size_t
EvalCache::size() const
{
    size_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        n += shard.entries.size();
    }
    return n;
}

} // namespace dsa::dse
