/**
 * @file
 * Design-level evaluation cache for DSE.
 *
 * `Explorer::evaluateDesign` is the exploration's unit of cost: one
 * full compile + schedule + estimate sweep over the (kernel, unroll)
 * grid. When the anneal revisits a design it has already evaluated —
 * a noop mutation, an add-then-remove round-trip, a duplicate mutant
 * in a batch, or a resumed run re-walking accepted steps — the result
 * is already known. This cache maps an evaluation key to the complete
 * evaluation outcome: objective, perf, cost, and the per-task
 * (lowered, legal, cycles, schedule) tuples. The explorer's run loop
 * is its only user: it replays a hit and a fresh outcome alike through
 * the one function that writes outcomes into a repair cache
 * (`Explorer::replayEvalEntry`), so a cached evaluation leaves the
 * repair cache in the exact state a recomputation would.
 *
 * Key design. The structural fingerprint alone would be wrong: the
 * annealer is labeling-sensitive (nodes are visited in ID order and
 * repair schedules store raw IDs), so isomorphic-but-relabeled designs
 * may evaluate differently. The key is therefore
 * (structural Fp128, labeling hash, context hash), where the context
 * hash covers everything else evaluateDesign reads: the incoming
 * repair-cache content, the repair flag, and the evaluation-shaping
 * options (kernels, unroll factors, seed, iteration budgets). Between
 * accepted steps the context is frozen, which is exactly when revisits
 * happen — so round-trip mutants hit.
 *
 * Entries are only inserted for fault-free evaluations, and are pure
 * functions of their key — so lookup timing (and hence thread count)
 * cannot change results, only hit/miss statistics. Sharded,
 * mutex-striped, insert-once. Contents persist through the cache
 * store (dse/cache_store.h), not through checkpoints: every fresh
 * evaluation is appended there, and a run or resume with a store
 * warms its cache from it. Without a store a resumed run starts cold
 * and recomputes revisits, with bit-identical results. The stats
 * counters are never persisted (they describe a process).
 */

#ifndef DSA_DSE_EVAL_CACHE_H
#define DSA_DSE_EVAL_CACHE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adg/fingerprint.h"
#include "mapper/schedule.h"
#include "model/cost.h"

namespace dsa::dse {

/**
 * Per-(kernel, unroll) repair cache. Only *legal* schedules are kept
 * as repair seeds: an entry whose last attempt was illegal keeps its
 * previous legal schedule (if any) so repair can restart from the
 * best known mapping instead of being poisoned by a broken one. An
 * entry with no legal schedule yet only marks the version as
 * attempted (so it gets the per-step budget, not the initial one) and
 * makes repair restart from scratch.
 */
struct ScheduleCacheEntry
{
    /** Last *legal* schedule for this version (valid iff hasLegal). */
    mapper::Schedule sched;
    bool hasLegal = false;
};

using ScheduleCache = std::map<std::pair<int, int>, ScheduleCacheEntry>;

/** Exact content hash of a schedule (routes, maps, times, cost). */
uint64_t hashSchedule(const mapper::Schedule &s);

/** Exact content hash of a repair cache (keys + entries, in order). */
uint64_t hashScheduleCache(const ScheduleCache &cache);

/** Key of one memoized evaluation (see file comment). */
struct EvalKey
{
    adg::Fp128 structural;
    uint64_t labeling = 0;
    uint64_t context = 0;

    bool operator==(const EvalKey &) const = default;
    bool
    operator<(const EvalKey &o) const
    {
        if (!(structural == o.structural))
            return structural < o.structural;
        if (labeling != o.labeling)
            return labeling < o.labeling;
        return context < o.context;
    }
};

struct EvalKeyHash
{
    size_t
    operator()(const EvalKey &k) const
    {
        // Components are already well-mixed 64-bit hashes.
        return static_cast<size_t>(k.structural.lo ^ (k.structural.hi << 1) ^
                                   (k.labeling >> 1) ^ k.context);
    }
};

/** One (kernel, unroll) task's outcome, in task order. */
struct EvalTaskOutcome
{
    bool lowered = false;
    bool legal = false;
    double cycles = 1e30;
    /** The task's schedule (meaningful iff legal). */
    mapper::Schedule sched;
};

/** Complete outcome of one evaluateDesign call. */
struct EvalCacheEntry
{
    double objective = 0;
    double perf = 0;
    model::ComponentCost cost;
    std::vector<EvalTaskOutcome> tasks;
};

struct EvalCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
};

/** Sharded, insert-once map from EvalKey to evaluation outcome. */
class EvalCache
{
  public:
    /** Entry for @p key, or null (counts a hit or a miss). */
    std::shared_ptr<const EvalCacheEntry> find(const EvalKey &key);

    /** Insert-once (first writer wins; counts an insert when kept). */
    void insert(const EvalKey &key,
                std::shared_ptr<const EvalCacheEntry> entry);

    /** insert() without touching the stats counters — a store load
     *  repopulates state, it does not perform work. */
    void restore(const EvalKey &key,
                 std::shared_ptr<const EvalCacheEntry> entry);

    EvalCacheStats stats() const;
    size_t size() const;

  private:
    static constexpr size_t kShards = 16;
    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<EvalKey, std::shared_ptr<const EvalCacheEntry>,
                           EvalKeyHash>
            entries;
    };
    Shard shards_[kShards];
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> inserts_{0};
};

} // namespace dsa::dse

#endif // DSA_DSE_EVAL_CACHE_H
