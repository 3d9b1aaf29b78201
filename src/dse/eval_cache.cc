#include "dse/eval_cache.h"

#include "base/hashing.h"
#include "dse/entry_codec.h"

namespace dsa::dse {

uint64_t
hashScheduleCache(const ScheduleCache &cache)
{
    std::string bytes = encodeScheduleCache(cache);
    return xxhash64(bytes.data(), bytes.size());
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
