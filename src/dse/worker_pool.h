/**
 * @file
 * Crash-isolated multi-process candidate evaluation.
 *
 * A WorkerPool supervises N worker subprocesses (the host binary
 * re-exec'ed with the `__dse-worker` argv marker). Each Subprocess
 * frame on their pipes carries one WorkerFrame in the binary encoding
 * of dse/entry_codec.h, whose strict decoder reads both ends:
 *
 *   coordinator -> worker   init(workload names, options record)
 *   worker -> coordinator   ready, or error(message)
 *   coordinator -> worker   eval(id, repair, repair cache, ADG texts)
 *   worker -> coordinator   result(id, per candidate: status code and
 *                           message, or the encoded entry with its key)
 *   coordinator -> worker   shutdown
 *
 * The options record is the one a checkpoint holds, and a result's
 * entry is the same bytes a cache-store record holds. Workers start
 * together: start() launches every worker, then awaits each ready in
 * worker order. A worker that reads a frame it cannot decode, or one
 * it does not expect, exits with code 1 rather than wait for a frame
 * that may never come.
 *
 * A worker is a bare Explorer::evaluateDesign: it evaluates each
 * candidate with no eval cache and no cache store, and replies with
 * the outcome. The coordinator memoizes, appends and replays a reply
 * exactly as it does an outcome it computed itself, so a
 * worker-evaluated candidate updates the exploration state through
 * the same code, the exploring process stays the store's only writer,
 * and traces are bit-identical to `--workers 0` by construction.
 *
 * A worker has at most one request outstanding, so a reply always
 * answers it. evaluateBatch runs in three steps:
 *   1. dispatch: shard s goes to worker s if it is live; otherwise
 *      the shard is deferred;
 *   2. collect: every dispatched shard is awaited in shard order. A
 *      timeout, EOF, undecodable frame, or a reply with another id,
 *      another candidate count, or an entry under another candidate's
 *      key retires the worker (SIGKILL) and defers the shard;
 *   3. recover: deferred shards go one at a time, each awaited before
 *      the next is sent, to a live (hence idle) worker, or, when none
 *      is left, to the shard's own slot restarted with capped backoff
 *      (up to two restarts per shard). A shard that still fails is
 *      evaluated in-process by the caller-supplied fallback.
 * Workers are stateless between requests (each eval ships the full
 * repair cache), so any retry is safe, and every rung produces the
 * same entries — only latency differs.
 */

#ifndef DSA_DSE_WORKER_POOL_H
#define DSA_DSE_WORKER_POOL_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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
     * Spawn every worker and send each its init frame, then await
     * each handshake in worker order. OK when at least one worker
     * came up; the full-failure error otherwise (callers then run
     * entirely in-process).
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
        /** Id of the one request the worker has not answered yet; 0
         *  when it is idle. */
        uint64_t inFlight = 0;
    };

    /** Spawn worker @p i and send it the init frame. */
    Status launchWorker(size_t i);
    /** Await launched worker @p i's handshake. */
    Status awaitReady(size_t i);
    /** launchWorker, then awaitReady (a restart). */
    Status spawnWorker(size_t i);
    void failWorker(size_t i, const Status &why);
    void noteError(const Status &s);
    bool live(size_t i) const;

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
