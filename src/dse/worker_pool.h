/**
 * @file
 * Crash-isolated multi-process candidate evaluation.
 *
 * A WorkerPool supervises N worker subprocesses (the host binary
 * re-exec'ed with the `__dse-worker` argv marker), speaking a JSON
 * pipe protocol in Subprocess frames:
 *
 *   coordinator -> worker   {type:"init", workloads:[...], options:{...}}
 *   worker -> coordinator   {type:"ready"}
 *   coordinator -> worker   {type:"eval", id:N, repair:b,
 *                            schedules:"<hex>", cands:["<adg text>", ...]}
 *   worker -> coordinator   {type:"result", id:N,
 *                            results:[{code,msg,entry:"<hex>"?}, ...]}
 *   coordinator -> worker   {type:"shutdown"}
 *
 * The two heavy fields travel in the binary encoding of
 * dse/entry_codec.h, as hex text inside the JSON envelope: `schedules`
 * is the encoded repair cache and each result's `entry` a full encoded
 * EvalCacheEntry with its key — the same bytes the cache store writes
 * per record. A field that is not hex or does not decode is a corrupt
 * frame.
 *
 * A worker is a bare Explorer::evaluateDesign: it evaluates each
 * candidate with no eval cache and no cache store, and replies with
 * the outcome. The coordinator memoizes, appends and replays a reply
 * exactly as it does an outcome it computed itself, so a
 * worker-evaluated candidate updates the exploration state through
 * the same code, the exploring process stays the store's only writer,
 * and traces are bit-identical to `--workers 0` by construction.
 *
 * Failure handling per shard (a worker death, pipe EOF, corrupt frame,
 * a reply entry under another candidate's key, or response timeout)
 * walks a capped-backoff ladder:
 *   1. re-dispatch the shard to the next live worker;
 *   2. restart the dead worker (up to two times) and re-dispatch;
 *   3. degrade: evaluate the shard in-process via the caller-supplied
 *      fallback.
 * Workers are stateless between requests (each eval ships the full
 * repair cache), so any retry is safe, and every rung produces the
 * same entries — only latency differs.
 */

#ifndef DSA_DSE_WORKER_POOL_H
#define DSA_DSE_WORKER_POOL_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/status.h"
#include "base/subprocess.h"
#include "dse/eval_cache.h"
#include "dse/explorer.h"

namespace dsa::dse {

/** argv[1] marker every host binary's main() dispatches on to become
 *  a worker (bench/e2e matches this literal, so it never changes). */
inline constexpr const char *kWorkerArg = "__dse-worker";

struct WorkerPoolOptions
{
    /** Worker subprocesses to supervise (>= 1). */
    int workers = 1;
    /** Binary to exec (default: this process's executable). */
    std::string program;
    /** Workload names the workers resolve via the registry. */
    std::vector<std::string> workloadNames;
    /** Options shipped to workers (already shaped: workers=0 etc.). */
    DseOptions dse;
    /** Extra child environment (`KEY=VALUE`; the fault-injection knob). */
    std::vector<std::string> extraEnv;
    /** Per-request response watchdog (0 = unlimited). */
    int64_t requestTimeoutMs = 0;
};

class WorkerPool
{
  public:
    explicit WorkerPool(WorkerPoolOptions opts);
    ~WorkerPool(); ///< shuts the workers down

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Spawn + handshake every worker. OK when at least one worker came
     * up; the full-failure error otherwise (callers then run entirely
     * in-process).
     */
    Status start();

    /**
     * Evaluate @p cands (shard i%N -> worker i, fixed draw order)
     * against the shared repair cache @p schedules. @p inProcess is
     * the degradation floor: called with a candidate index, it must
     * evaluate locally and never fail to return. The result vector is
     * index-aligned with @p cands. When given, @p keys (index-aligned
     * with @p cands) are the eval keys the replies must carry: a reply
     * entry under any other key fails its frame as a protocol error.
     */
    std::vector<WorkerEvalOutcome>
    evaluateBatch(const std::vector<const adg::Adg *> &cands,
                  const ScheduleCache &schedules, bool repair,
                  const std::function<WorkerEvalOutcome(size_t)> &inProcess,
                  const std::vector<EvalKey> *keys = nullptr);

    /** Graceful shutdown (frame, then EOF, then SIGKILL). */
    void shutdown();

    const WorkerPoolStats &stats() const { return stats_; }

  private:
    struct Worker
    {
        std::unique_ptr<Subprocess> proc;
        bool ready = false;
        /** Slot incarnation, bumped on every spawn and retirement. A
         *  request records the generation it was sent under; a mismatch
         *  at await time means the slot was respawned in between — the
         *  live process never saw the request, so waiting on it would
         *  block forever (or SIGKILL an innocent worker on timeout). */
        uint64_t gen = 0;
        /** Out-of-order responses (a redispatched shard's reply can
         *  arrive behind the reply of the shard we are waiting on). */
        std::map<uint64_t, json::Value> pending;
    };

    Status spawnWorker(size_t i);
    void failWorker(size_t i, const Status &why);
    void noteError(const Status &s);
    /** First live worker != @p except; -1 when none. */
    int pickLiveWorker(size_t except) const;

    WorkerPoolOptions opts_;
    std::vector<Worker> workers_;
    WorkerPoolStats stats_;
    uint64_t nextRequestId_ = 1;
    bool started_ = false;
};

/**
 * Worker-process entry point: speak the protocol on stdin/stdout until
 * EOF or a shutdown frame. Host binaries dispatch to this from main()
 * when argv[1] is `__dse-worker`. Returns the process exit code.
 */
int workerMain();

} // namespace dsa::dse

#endif // DSA_DSE_WORKER_POOL_H
