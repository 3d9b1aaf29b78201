#include "dse/worker_pool.h"

#include <algorithm>
#include <csignal>
#include <utility>

#include <unistd.h>

#include "adg/fingerprint.h"
#include "base/fault.h"
#include "base/logging.h"
#include "dse/entry_codec.h"
#include "workloads/workload.h"

namespace dsa::dse {

namespace {

/** Generous cap for worker startup: the handshake covers the worker's
 *  Explorer construction (golden interpreter runs for every workload),
 *  which sanitized builds stretch considerably. */
constexpr int64_t kInitTimeoutMs = 120000;

/** Worker restarts per shard before degrading to in-process. */
constexpr int kMaxRestarts = 2;

/** Capped exponential backoff between shard retries. */
constexpr int64_t kBackoffBaseMs = 10;
constexpr int64_t kBackoffCapMs = 500;

void
sleepMs(int64_t ms)
{
    if (ms > 0)
        ::usleep(static_cast<useconds_t>(ms) * 1000);
}

Status
protocolError(const std::string &what)
{
    return Status::dataLoss("worker protocol: " + what);
}

} // namespace

WorkerPool::WorkerPool(WorkerPoolOptions opts) : opts_(std::move(opts))
{
    if (opts_.program.empty())
        opts_.program = Subprocess::selfExe();
    opts_.workers = std::max(1, opts_.workers);
}

WorkerPool::~WorkerPool() { shutdown(); }

void
WorkerPool::noteError(const Status &s)
{
    if (stats_.firstError.ok() && !s.ok())
        stats_.firstError = s;
}

bool
WorkerPool::live(size_t i) const
{
    return workers_[i].ready && workers_[i].proc;
}

Status
WorkerPool::launchWorker(size_t i)
{
    Worker &w = workers_[i];
    w.proc.reset();
    w.ready = false;
    w.inFlight = 0;

    Subprocess::Options so;
    so.argv = {opts_.program, kWorkerArg};
    so.extraEnv = opts_.extraEnv;
    auto spawned = Subprocess::spawn(std::move(so));
    if (!spawned.ok()) {
        noteError(spawned.status());
        return spawned.status();
    }
    w.proc = std::move(spawned.value());
    ++stats_.spawned;

    WorkerFrame init;
    init.type = FrameType::Init;
    init.workloads = opts_.workloadNames;
    init.options = opts_.dse;
    Status s = w.proc->writeFrame(encodeFrame(init));
    if (!s.ok())
        failWorker(i, s);
    return s;
}

Status
WorkerPool::awaitReady(size_t i)
{
    Worker &w = workers_[i];
    auto bytes = w.proc->readFrame(Deadline::afterMs(kInitTimeoutMs));
    auto reply = bytes.ok() ? decodeFrame(bytes.value())
                            : Result<WorkerFrame>(bytes.status());
    Status s;
    if (!reply.ok())
        s = reply.status();
    else if (reply.value().type == FrameType::Error)
        s = protocolError("worker handshake failed: " +
                          reply.value().message);
    else if (reply.value().type != FrameType::Ready)
        s = protocolError("worker handshake failed: unexpected reply");
    if (!s.ok()) {
        failWorker(i, s);
        return s;
    }
    w.ready = true;
    return Status();
}

Status
WorkerPool::spawnWorker(size_t i)
{
    Status s = launchWorker(i);
    return s.ok() ? awaitReady(i) : s;
}

Status
WorkerPool::start()
{
    DSA_ASSERT(!started_, "WorkerPool::start called twice");
    started_ = true;
    workers_.resize(static_cast<size_t>(opts_.workers));
    // Launch every worker before awaiting any, so their start-ups
    // (exec plus the Explorer construction) overlap.
    std::vector<Status> up(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i)
        up[i] = launchWorker(i);
    Status lastErr;
    size_t alive = 0;
    for (size_t i = 0; i < workers_.size(); ++i) {
        if (up[i].ok())
            up[i] = awaitReady(i);
        if (up[i].ok())
            ++alive;
        else
            lastErr = up[i];
    }
    if (alive == 0)
        return lastErr.ok()
            ? Status::internal("worker pool: no worker came up")
            : lastErr;
    if (alive < workers_.size())
        DSA_WARN("worker pool: only ", alive, " of ", workers_.size(),
                 " workers came up: ", lastErr.toString());
    return Status();
}

void
WorkerPool::failWorker(size_t i, const Status &why)
{
    Worker &w = workers_[i];
    noteError(why);
    if (w.proc) {
        w.proc->kill(SIGKILL);
        w.proc->wait(Deadline::afterMs(2000));
        w.proc.reset();
    }
    w.ready = false;
    w.inFlight = 0;
}

std::vector<WorkerEvalOutcome>
WorkerPool::evaluateBatch(
    const std::vector<const adg::Adg *> &cands,
    const ScheduleCache &schedules, bool repair,
    const std::function<WorkerEvalOutcome(size_t)> &inProcess,
    const std::vector<EvalKey> *keys)
{
    std::vector<WorkerEvalOutcome> out(cands.size());
    if (cands.empty())
        return out;
    DSA_ASSERT(started_, "WorkerPool::evaluateBatch before start()");

    // Fixed draw-order sharding: candidate i -> shard i % N, independent
    // of which workers happen to be alive. (Placement never influences
    // results — every rung of the ladder produces the same entries — but
    // a stable assignment makes traces and stats reproducible.)
    const size_t nShards = workers_.size();
    std::vector<std::vector<size_t>> shards(nShards);
    for (size_t i = 0; i < cands.size(); ++i)
        shards[i % nShards].push_back(i);

    WorkerFrame req;
    req.type = FrameType::Eval;
    req.repair = repair;
    req.schedules = schedules;

    // Send shard @p s to idle worker @p w; false (worker retired) when
    // the pipe refuses the frame.
    auto sendShard = [&](size_t w, size_t s) {
        Worker &wk = workers_[w];
        DSA_ASSERT(wk.inFlight == 0, "worker ", w,
                   " already has a request outstanding");
        req.id = nextRequestId_++;
        req.cands.clear();
        for (size_t i : shards[s])
            req.cands.push_back(cands[i]->toText());
        Status st = wk.proc->writeFrame(encodeFrame(req));
        if (!st.ok()) {
            ++stats_.deaths;
            failWorker(w, st);
            return false;
        }
        wk.inFlight = req.id;
        ++stats_.dispatched;
        return true;
    };

    // Await worker @p w's reply to shard @p s, its one outstanding
    // request; fills out[] on success. Any failure retires the worker
    // and reports false so the shard can be retried elsewhere.
    auto awaitShard = [&](size_t w, size_t s) {
        Worker &wk = workers_[w];
        const std::vector<size_t> &idx = shards[s];
        auto bytes = wk.proc->readFrame(
            opts_.requestTimeoutMs > 0
                ? Deadline::afterMs(opts_.requestTimeoutMs)
                : Deadline::never());
        if (!bytes.ok()) {
            if (bytes.status().code() == StatusCode::DeadlineExceeded)
                ++stats_.timeouts;
            else
                ++stats_.deaths;
            failWorker(w, bytes.status());
            return false;
        }
        auto reply = decodeFrame(bytes.value());
        Status bad;
        if (!reply.ok())
            bad = reply.status();
        else if (reply.value().type != FrameType::Result ||
                 reply.value().id != wk.inFlight)
            bad = protocolError("reply does not answer the request");
        else if (reply.value().outcomes.size() != idx.size())
            bad = protocolError("result count mismatch");
        if (!bad.ok()) {
            ++stats_.deaths;
            failWorker(w, bad);
            return false;
        }
        // All-or-nothing: a misfiled entry must not leave a
        // half-written batch behind.
        std::vector<FrameOutcome> &outcomes = reply.value().outcomes;
        for (size_t j = 0; j < idx.size(); ++j) {
            if (keys && outcomes[j].status.ok() &&
                !(outcomes[j].record.key == (*keys)[idx[j]])) {
                failWorker(w, protocolError(
                                  "result key does not match its candidate"));
                return false;
            }
        }
        for (size_t j = 0; j < idx.size(); ++j)
            out[idx[j]] = {std::move(outcomes[j].status),
                           std::move(outcomes[j].record.entry)};
        wk.inFlight = 0;
        return true;
    };

    // 1. Dispatch: shard s to worker s while it is live.
    std::vector<bool> sent(nShards, false);
    for (size_t s = 0; s < nShards; ++s)
        sent[s] = !shards[s].empty() && live(s) && sendShard(s, s);

    // 2. Collect in shard order; a failure defers the shard.
    std::vector<size_t> deferred;
    for (size_t s = 0; s < nShards; ++s)
        if (!shards[s].empty() && !(sent[s] && awaitShard(s, s)))
            deferred.push_back(s);

    // 3. Recover one shard at a time on a live worker (all are idle
    //    now) or the shard's own slot restarted with capped backoff,
    //    then degrade to in-process evaluation. Every failed attempt
    //    retires a worker and live workers only come from the capped
    //    restarts, so the loop ends.
    for (size_t s : deferred) {
        bool done = false;
        int restartsUsed = 0;
        int64_t backoff = kBackoffBaseMs;
        while (!done) {
            size_t w = 0;
            while (w < nShards && !live(w))
                ++w;
            if (w == nShards) {
                if (restartsUsed >= kMaxRestarts)
                    break;
                ++restartsUsed;
                ++stats_.restarts;
                sleepMs(backoff);
                backoff = std::min(backoff * 2, kBackoffCapMs);
                if (!spawnWorker(s).ok())
                    continue;
                w = s;
            }
            ++stats_.redispatched;
            done = sendShard(w, s) && awaitShard(w, s);
            if (!done) {
                sleepMs(backoff);
                backoff = std::min(backoff * 2, kBackoffCapMs);
            }
        }
        if (!done) {
            for (size_t i : shards[s])
                out[i] = inProcess(i);
            stats_.degraded += shards[s].size();
        }
    }
    return out;
}

void
WorkerPool::shutdown()
{
    WorkerFrame bye;
    bye.type = FrameType::Shutdown;
    for (Worker &w : workers_) {
        if (!w.proc)
            continue;
        if (w.ready)
            (void)w.proc->writeFrame(encodeFrame(bye));
        w.proc->closePipes();
        w.proc->wait(Deadline::afterMs(2000));
        w.proc.reset(); // destructor SIGKILLs a straggler
        w.ready = false;
    }
    workers_.clear();
    started_ = false;
}

// ---------------------------------------------------------------------------
// Worker-process side.

namespace {

Status
workerInit(const WorkerFrame &init, std::unique_ptr<Explorer> &explorer)
{
    std::vector<const workloads::Workload *> set;
    for (const std::string &name : init.workloads) {
        auto found = workloads::findWorkload(name);
        if (!found.ok())
            return Status(found.status().code(),
                          "worker: " + found.status().message());
        set.push_back(*found);
    }
    if (set.empty())
        return protocolError("init frame carries no workloads");

    DseOptions o = init.options;
    // The worker is a pure evaluation engine: never nested workers,
    // never a cache store (the coordinator memoizes and appends every
    // reply), never checkpoints, never post-run validation — and one
    // thread, so N workers never oversubscribe the machine
    // N*threads-fold. None of this can shift results: evaluateDesign
    // is thread-count invariant and these knobs shape the run loop,
    // not evaluation.
    o.workers = 0;
    o.threads = 1;
    o.cacheStoreDir.clear();
    o.checkpointPath.clear();
    o.haltAfterCheckpoints = 0;
    o.simValidateBest = false;

    explorer = std::make_unique<Explorer>(std::move(set), o);
    return Status();
}

WorkerFrame
workerEval(const WorkerFrame &req, Explorer &explorer)
{
    WorkerFrame reply;
    reply.type = FrameType::Result;
    reply.id = req.id;
    // Every candidate repairs from the same base cache: hash it once.
    const uint64_t baseHash = hashScheduleCache(req.schedules);
    for (const std::string &text : req.cands) {
        // The test harness's crash lever: die exactly where a real
        // OOM-kill or machine loss would hit — mid-batch, schedules
        // half-computed, the reply never sent.
        fault::maybeKill("worker.eval.kill");

        FrameOutcome o;
        try {
            adg::Adg adg = adg::Adg::fromText(text);
            WorkerEvalOutcome out =
                explorer.evaluateDesign(adg, req.schedules, req.repair);
            o.status = out.status;
            if (out.status.ok())
                o.record = {explorer.makeEvalKey(adg::canonicalKey(adg),
                                                 baseHash, req.repair),
                            std::move(out.entry)};
        } catch (...) {
            o = {Status::fromCurrentException(), {}};
        }
        // The coordinator's reply check lever: an entry filed under a
        // key its candidate does not have.
        if (o.status.ok() && fault::shouldFire("worker.reply.key"))
            o.record.key.labeling ^= 1;
        reply.outcomes.push_back(std::move(o));
    }
    return reply;
}

} // namespace

int
workerMain()
{
    // Claim the protocol channel before anything else can print to it:
    // frames go to the duplicated fd, while fd 1 (DSA_WARN from library
    // code, stray printf) is rerouted to stderr.
    int proto = ::dup(1);
    if (proto < 0)
        return 1;
    ::dup2(2, 1);

    std::unique_ptr<Explorer> explorer;
    for (;;) {
        auto bytes = readFrameFd(0, Deadline::never());
        if (!bytes.ok())
            return 0; // coordinator closed our stdin: clean exit
        auto frame = decodeFrame(bytes.value());
        if (!frame.ok()) {
            DSA_WARN("dse worker: ", frame.status().toString());
            return 1;
        }
        WorkerFrame reply;
        switch (frame.value().type) {
        case FrameType::Shutdown:
            return 0;
        case FrameType::Init: {
            Status s = workerInit(frame.value(), explorer);
            reply.type = s.ok() ? FrameType::Ready : FrameType::Error;
            reply.message = s.ok() ? "" : s.toString();
            break;
        }
        case FrameType::Eval:
            if (!explorer) {
                DSA_WARN("dse worker: eval before init");
                return 1;
            }
            reply = workerEval(frame.value(), *explorer);
            // Deterministic hang lever for the coordinator's watchdog
            // tests: the reply exists but never leaves the process in
            // time.
            fault::maybeStallMs("worker.pipe.stall", 5000);
            break;
        default:
            DSA_WARN("dse worker: unexpected frame type ",
                     static_cast<int>(frame.value().type));
            return 1;
        }
        if (!writeFrameFd(proto, encodeFrame(reply)).ok())
            return 1; // coordinator gone (timeout kill, shutdown)
    }
}

} // namespace dsa::dse
