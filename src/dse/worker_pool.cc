#include "dse/worker_pool.h"

#include <algorithm>
#include <csignal>
#include <utility>

#include <unistd.h>

#include "adg/fingerprint.h"
#include "base/fault.h"
#include "base/logging.h"
#include "base/strings.h"
#include "dse/checkpoint.h"
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

const json::Value *
objField(const json::Value &doc, const char *key, json::Value::Kind kind)
{
    const json::Value *v = doc.find(key);
    if (!v || v->kind() != kind)
        return nullptr;
    return v;
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

Status
WorkerPool::spawnWorker(size_t i)
{
    Worker &w = workers_[i];
    ++w.gen;
    w.proc.reset();
    w.ready = false;
    w.pending.clear();

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

    json::Value init = json::Value::object();
    init.set("type", json::Value::str("init"));
    json::Value wl = json::Value::array();
    for (const std::string &name : opts_.workloadNames)
        wl.push(json::Value::str(name));
    init.set("workloads", std::move(wl));
    init.set("options", dseOptionsToJson(opts_.dse));
    Status ws = w.proc->writeFrame(init.dump());
    if (!ws.ok()) {
        failWorker(i, ws);
        return ws;
    }

    auto reply = w.proc->readFrame(Deadline::afterMs(kInitTimeoutMs));
    if (!reply.ok()) {
        failWorker(i, reply.status());
        return reply.status();
    }
    auto doc = json::parse(reply.value());
    if (!doc.ok()) {
        failWorker(i, doc.status());
        return doc.status();
    }
    const json::Value *type =
        objField(doc.value(), "type", json::Value::Kind::String);
    if (!type || type->asString() != "ready") {
        const json::Value *msg =
            objField(doc.value(), "msg", json::Value::Kind::String);
        Status s = protocolError("worker handshake failed: " +
                                 (msg ? msg->asString()
                                      : std::string("unexpected reply")));
        failWorker(i, s);
        return s;
    }
    w.ready = true;
    return Status();
}

Status
WorkerPool::start()
{
    DSA_ASSERT(!started_, "WorkerPool::start called twice");
    started_ = true;
    workers_.resize(static_cast<size_t>(opts_.workers));
    Status lastErr;
    size_t live = 0;
    for (size_t i = 0; i < workers_.size(); ++i) {
        Status s = spawnWorker(i);
        if (s.ok())
            ++live;
        else
            lastErr = s;
    }
    if (live == 0)
        return lastErr.ok()
            ? Status::internal("worker pool: no worker came up")
            : lastErr;
    if (live < workers_.size())
        DSA_WARN("worker pool: only ", live, " of ", workers_.size(),
                 " workers came up: ", lastErr.toString());
    return Status();
}

void
WorkerPool::failWorker(size_t i, const Status &why)
{
    Worker &w = workers_[i];
    ++w.gen;
    noteError(why);
    if (w.proc) {
        w.proc->kill(SIGKILL);
        w.proc->wait(Deadline::afterMs(2000));
        w.proc.reset();
    }
    w.ready = false;
    w.pending.clear();
}

int
WorkerPool::pickLiveWorker(size_t except) const
{
    for (size_t i = 0; i < workers_.size(); ++i)
        if (i != except && workers_[i].ready && workers_[i].proc)
            return static_cast<int>(i);
    return -1;
}

std::vector<WorkerEvalOutcome>
WorkerPool::evaluateBatch(
    const std::vector<const adg::Adg *> &cands,
    const ScheduleCache &schedules, bool repair,
    const std::function<WorkerEvalOutcome(size_t)> &inProcess)
{
    std::vector<WorkerEvalOutcome> out(cands.size());
    if (cands.empty())
        return out;
    DSA_ASSERT(started_, "WorkerPool::evaluateBatch before start()");

    // Encoded once per batch; each request embeds a copy.
    json::Value schedHex =
        json::Value::str(toHex(encodeScheduleCache(schedules)));

    // Fixed draw-order sharding: candidate i -> shard i % N, independent
    // of which workers happen to be alive. (Placement never influences
    // results — every rung of the ladder produces the same entries — but
    // a stable assignment makes traces and stats reproducible.)
    const size_t nShards = workers_.size();
    std::vector<std::vector<size_t>> shards(nShards);
    for (size_t i = 0; i < cands.size(); ++i)
        shards[i % nShards].push_back(i);

    // A worker is the target of its own shard when alive, else the
    // first live worker (several shards may then queue on one pipe —
    // the worker drains them in order).
    auto pickTarget = [&](size_t preferred) {
        if (workers_[preferred].ready && workers_[preferred].proc)
            return static_cast<int>(preferred);
        return pickLiveWorker(preferred);
    };

    auto sendShard = [&](size_t w,
                         const std::vector<size_t> &idx) -> Result<uint64_t> {
        uint64_t id = nextRequestId_++;
        json::Value req = json::Value::object();
        req.set("type", json::Value::str("eval"));
        req.set("id", json::Value::number(static_cast<int64_t>(id)));
        req.set("repair", json::Value::boolean(repair));
        req.set("schedules", schedHex);
        json::Value arr = json::Value::array();
        for (size_t i : idx)
            arr.push(json::Value::str(cands[i]->toText()));
        req.set("cands", std::move(arr));
        Status s = workers_[w].proc->writeFrame(req.dump());
        if (!s.ok()) {
            ++stats_.deaths;
            failWorker(w, s);
            return s;
        }
        ++stats_.dispatched;
        return id;
    };

    // Wait for request @p id, sent to slot @p w under generation
    // @p gen; fills out[] on success. Any failure (timeout, EOF,
    // malformed reply) retires the worker and reports false so the
    // ladder can retry the shard elsewhere.
    auto awaitShard = [&](size_t w, uint64_t gen, uint64_t id,
                          const std::vector<size_t> &idx) -> bool {
        Worker &wk = workers_[w];
        json::Value resp;
        for (;;) {
            auto it = wk.pending.find(id);
            if (it != wk.pending.end()) {
                resp = std::move(it->second);
                wk.pending.erase(it);
                break;
            }
            // The slot may have been retired — or retired *and
            // respawned* — while an earlier shard's recovery ran
            // through it (its death was counted then). A respawned
            // slot has a live process that never received this
            // request, so reading its pipe would block until the
            // watchdog (forever with the unlimited default); the
            // generation mismatch reports the loss to the ladder
            // instead.
            if (!wk.proc || wk.gen != gen)
                return false;
            Deadline dl = opts_.requestTimeoutMs > 0
                ? Deadline::afterMs(opts_.requestTimeoutMs)
                : Deadline::never();
            auto frame = wk.proc->readFrame(dl);
            if (!frame.ok()) {
                if (frame.status().code() == StatusCode::DeadlineExceeded)
                    ++stats_.timeouts;
                else
                    ++stats_.deaths;
                failWorker(w, frame.status());
                return false;
            }
            auto doc = json::parse(frame.value());
            if (!doc.ok()) {
                ++stats_.deaths;
                failWorker(w, doc.status());
                return false;
            }
            const json::Value *type =
                objField(doc.value(), "type", json::Value::Kind::String);
            const json::Value *rid =
                objField(doc.value(), "id", json::Value::Kind::Number);
            if (!type || type->asString() != "result" || !rid) {
                ++stats_.deaths;
                failWorker(w, protocolError("unexpected frame type"));
                return false;
            }
            uint64_t got = static_cast<uint64_t>(rid->asInt64());
            if (got == id) {
                resp = std::move(doc.value());
                break;
            }
            // A reply to a request this shard (or another) abandoned
            // after a redispatch; keep it in case its id comes up.
            wk.pending[got] = std::move(doc.value());
        }

        const json::Value *rs = resp.find("results");
        if (!rs || !rs->isArray() || rs->size() != idx.size()) {
            ++stats_.deaths;
            failWorker(w, protocolError("result count mismatch"));
            return false;
        }
        // Decode all-or-nothing: a half-garbled reply must not leave a
        // half-written batch behind.
        std::vector<WorkerEvalOutcome> decoded(idx.size());
        for (size_t j = 0; j < idx.size(); ++j) {
            const json::Value &item = rs->at(j);
            const json::Value *code =
                objField(item, "code", json::Value::Kind::Number);
            if (!item.isObject() || !code) {
                failWorker(w, protocolError("malformed result item"));
                return false;
            }
            int64_t c = code->asInt64();
            if (c < 0 || c > static_cast<int64_t>(StatusCode::Internal)) {
                failWorker(w, protocolError("result status out of range"));
                return false;
            }
            if (c == 0) {
                const json::Value *entry =
                    objField(item, "entry", json::Value::Kind::String);
                if (!entry) {
                    failWorker(w, protocolError("ok result without entry"));
                    return false;
                }
                auto bytes = fromHex(entry->asString());
                if (!bytes) {
                    failWorker(w, protocolError("result entry is not hex"));
                    return false;
                }
                auto rec = decodeEvalEntry(*bytes);
                if (!rec.ok()) {
                    failWorker(w, rec.status());
                    return false;
                }
                decoded[j] = {Status(), rec.value().entry};
            } else {
                const json::Value *msg =
                    objField(item, "msg", json::Value::Kind::String);
                decoded[j] = {Status(static_cast<StatusCode>(c),
                                     msg ? msg->asString() : "worker eval"),
                              nullptr};
            }
        }
        for (size_t j = 0; j < idx.size(); ++j)
            out[idx[j]] = std::move(decoded[j]);
        return true;
    };

    // Overlap phase: one request per shard, all in flight at once.
    struct InFlight
    {
        size_t worker = 0;
        uint64_t gen = 0;
        uint64_t id = 0;
        bool sent = false;
        bool done = false;
    };
    std::vector<InFlight> flight(nShards);
    for (size_t s = 0; s < nShards; ++s) {
        if (shards[s].empty()) {
            flight[s].done = true;
            continue;
        }
        int w = pickTarget(s);
        if (w < 0)
            continue; // ladder below restarts or degrades
        auto sent = sendShard(static_cast<size_t>(w), shards[s]);
        if (sent.ok())
            flight[s] = {static_cast<size_t>(w), workers_[w].gen,
                         sent.value(), true, false};
    }

    // Collect + recovery ladder, shard by shard in fixed order:
    // re-dispatch to a live worker, restart with capped backoff, and
    // finally degrade into in-process evaluation.
    for (size_t s = 0; s < nShards; ++s) {
        InFlight &f = flight[s];
        if (f.done)
            continue;
        bool done =
            f.sent && awaitShard(f.worker, f.gen, f.id, shards[s]);
        int restartsUsed = 0;
        int64_t backoff = kBackoffBaseMs;
        size_t attempts = done ? 0 : 1;
        const size_t maxAttempts =
            nShards + static_cast<size_t>(kMaxRestarts) + 1;
        while (!done && attempts <= maxAttempts) {
            int w = pickTarget(s);
            if (w < 0) {
                if (restartsUsed >= kMaxRestarts)
                    break;
                ++restartsUsed;
                ++stats_.restarts;
                sleepMs(backoff);
                backoff = std::min(backoff * 2, kBackoffCapMs);
                if (!spawnWorker(s).ok()) {
                    ++attempts;
                    continue;
                }
                w = static_cast<int>(s);
            }
            ++attempts;
            ++stats_.redispatched;
            auto sent = sendShard(static_cast<size_t>(w), shards[s]);
            if (sent.ok() &&
                awaitShard(static_cast<size_t>(w), workers_[w].gen,
                           sent.value(), shards[s])) {
                done = true;
                break;
            }
            sleepMs(backoff);
            backoff = std::min(backoff * 2, kBackoffCapMs);
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
    for (size_t i = 0; i < workers_.size(); ++i) {
        Worker &w = workers_[i];
        if (!w.proc)
            continue;
        if (w.ready) {
            json::Value bye = json::Value::object();
            bye.set("type", json::Value::str("shutdown"));
            (void)w.proc->writeFrame(bye.dump());
        }
        w.proc->closePipes();
        w.proc->wait(Deadline::afterMs(2000));
        w.proc.reset(); // destructor SIGKILLs a straggler
        w.ready = false;
        w.pending.clear();
    }
    workers_.clear();
    started_ = false;
}

// ---------------------------------------------------------------------------
// Worker-process side.

namespace {

/** One worker's protocol state after a successful init. */
struct WorkerState
{
    std::unique_ptr<Explorer> explorer;
    bool repairDefault = true;
};

Status
workerInit(const json::Value &doc, WorkerState &st)
{
    const json::Value *wl = doc.find("workloads");
    const json::Value *oj = doc.find("options");
    if (!wl || !wl->isArray() || !oj || !oj->isObject())
        return protocolError("init frame missing workloads/options");

    std::vector<const workloads::Workload *> set;
    for (const json::Value &n : wl->items()) {
        if (n.kind() != json::Value::Kind::String)
            return protocolError("init workload name is not a string");
        auto found = workloads::findWorkload(n.asString());
        if (!found.ok())
            return Status(found.status().code(),
                          "worker: " + found.status().message());
        set.push_back(*found);
    }
    if (set.empty())
        return protocolError("init frame carries no workloads");

    auto opts = dseOptionsFromJson(*oj);
    if (!opts.ok())
        return opts.status();
    DseOptions o = std::move(opts.value());
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

    st.repairDefault = o.useRepair;
    st.explorer = std::make_unique<Explorer>(std::move(set), o);
    return Status();
}

json::Value
workerEval(const json::Value &doc, WorkerState &st)
{
    json::Value reply = json::Value::object();
    reply.set("type", json::Value::str("result"));
    const json::Value *rid = doc.find("id");
    reply.set("id", rid && rid->kind() == json::Value::Kind::Number
                  ? *rid
                  : json::Value::number(static_cast<int64_t>(0)));
    json::Value results = json::Value::array();

    const json::Value *sj = doc.find("schedules");
    const json::Value *cj = doc.find("cands");
    const json::Value *rj = doc.find("repair");
    ScheduleCache base;
    Status reqStatus;
    if (!sj || sj->kind() != json::Value::Kind::String || !cj ||
        !cj->isArray())
        reqStatus = protocolError("eval frame missing schedules/cands");
    if (reqStatus.ok()) {
        auto bytes = fromHex(sj->asString());
        auto sc = bytes ? decodeScheduleCache(*bytes)
                        : Result<ScheduleCache>(
                              protocolError("eval schedules are not hex"));
        if (!sc.ok())
            reqStatus = sc.status();
        else
            base = std::move(sc.value());
    }
    // Every candidate repairs from the same base cache: hash it once.
    uint64_t baseHash = reqStatus.ok() ? hashScheduleCache(base) : 0;
    bool repair = rj && rj->kind() == json::Value::Kind::Bool
        ? rj->asBool()
        : st.repairDefault;

    size_t n = reqStatus.ok() ? cj->size() : 0;
    for (size_t i = 0; i < n; ++i) {
        // The test harness's crash lever: die exactly where a real
        // OOM-kill or machine loss would hit — mid-batch, schedules
        // half-computed, the reply never sent.
        fault::maybeKill("worker.eval.kill");

        json::Value r = json::Value::object();
        WorkerEvalOutcome out;
        EvalKey key;
        try {
            adg::Adg adg = adg::Adg::fromText(cj->at(i).asString());
            out = st.explorer->evaluateDesign(adg, base, repair);
            if (out.status.ok())
                key = st.explorer->makeEvalKey(adg::canonicalKey(adg),
                                               baseHash, repair);
        } catch (...) {
            out = {Status::fromCurrentException(), nullptr};
        }
        r.set("code", json::Value::number(
                          static_cast<int64_t>(out.status.code())));
        if (!out.status.ok())
            r.set("msg", json::Value::str(out.status.message()));
        if (out.entry)
            r.set("entry",
                  json::Value::str(toHex(encodeEvalEntry(key, *out.entry))));
        results.push(std::move(r));
    }
    if (!reqStatus.ok() && cj && cj->isArray()) {
        // Per-candidate error items for a request we could not parse:
        // the coordinator treats the reply as authoritative and falls
        // back in-process candidate by candidate.
        for (size_t i = 0; i < cj->size(); ++i) {
            json::Value r = json::Value::object();
            r.set("code", json::Value::number(static_cast<int64_t>(
                              reqStatus.code())));
            r.set("msg", json::Value::str(reqStatus.message()));
            results.push(std::move(r));
        }
    }
    reply.set("results", std::move(results));
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

    WorkerState st;
    bool inited = false;
    for (;;) {
        auto frame = readFrameFd(0, Deadline::never());
        if (!frame.ok())
            return 0; // coordinator closed our stdin: clean exit
        auto doc = json::parse(frame.value());
        if (!doc.ok()) {
            DSA_WARN("dse worker: dropping malformed frame: ",
                     doc.status().toString());
            continue;
        }
        const json::Value *type =
            objField(doc.value(), "type", json::Value::Kind::String);
        if (!type)
            continue;
        const std::string &t = type->asString();
        if (t == "shutdown")
            return 0;
        if (t == "init") {
            Status s = workerInit(doc.value(), st);
            inited = s.ok();
            json::Value reply = json::Value::object();
            reply.set("type", json::Value::str(inited ? "ready" : "error"));
            if (!s.ok())
                reply.set("msg", json::Value::str(s.toString()));
            if (!writeFrameFd(proto, reply.dump()).ok())
                return 1;
            continue;
        }
        if (t == "eval") {
            if (!inited) {
                DSA_WARN("dse worker: eval before init");
                return 1;
            }
            json::Value reply = workerEval(doc.value(), st);
            // Deterministic hang lever for the coordinator's watchdog
            // tests: the reply exists but never leaves the process in
            // time.
            fault::maybeStallMs("worker.pipe.stall", 5000);
            if (!writeFrameFd(proto, reply.dump()).ok())
                return 1; // coordinator gone (timeout kill, shutdown)
            continue;
        }
        DSA_WARN("dse worker: unknown frame type '", t, "'");
    }
}

} // namespace dsa::dse
