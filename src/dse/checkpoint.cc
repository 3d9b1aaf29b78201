#include "dse/checkpoint.h"

#include <utility>

#include "base/files.h"
#include "base/strings.h"
#include "dse/entry_codec.h"

namespace dsa::dse {

using json::Value;

namespace {

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

Value
intVecToJson(const std::vector<int> &v)
{
    Value arr = Value::array();
    for (int n : v)
        arr.push(Value::number(static_cast<int64_t>(n)));
    return arr;
}

Value
costToJson(const model::ComponentCost &c)
{
    Value arr = Value::array();
    arr.push(Value::number(c.areaMm2));
    arr.push(Value::number(c.powerMw));
    return arr;
}

Value
resultToJson(const DseResult &r)
{
    Value doc = Value::object();
    doc.set("best", Value::str(r.best.toText()));
    doc.set("bestObjective", Value::number(r.bestObjective));
    doc.set("bestPerf", Value::number(r.bestPerf));
    doc.set("bestCost", costToJson(r.bestCost));
    doc.set("initialObjective", Value::number(r.initialObjective));
    doc.set("initialCost", costToJson(r.initialCost));
    Value hist = Value::array();
    for (const auto &h : r.history) {
        Value entry = Value::array();
        entry.push(Value::number(static_cast<int64_t>(h.iter)));
        entry.push(Value::number(h.areaMm2));
        entry.push(Value::number(h.powerMw));
        entry.push(Value::number(h.perf));
        entry.push(Value::number(h.objective));
        entry.push(Value::boolean(h.accepted));
        entry.push(Value::number(h.hypervolume));
        hist.push(std::move(entry));
    }
    doc.set("history", std::move(hist));
    doc.set("evalFailures", Value::number(static_cast<int64_t>(r.evalFailures)));
    doc.set("checkpointsWritten",
            Value::number(static_cast<int64_t>(r.checkpointsWritten)));
    doc.set("stopReason", Value::str(r.stopReason));
    doc.set("statusCode",
            Value::number(static_cast<int64_t>(static_cast<int>(r.status.code()))));
    doc.set("statusMessage", Value::str(r.status.message()));
    return doc;
}

Value
dseOptionsToJson(const DseOptions &o)
{
    Value doc = Value::object();
    doc.set("maxIters", Value::number(static_cast<int64_t>(o.maxIters)));
    doc.set("noImproveExit",
            Value::number(static_cast<int64_t>(o.noImproveExit)));
    doc.set("infeasibleExit",
            Value::number(static_cast<int64_t>(o.infeasibleExit)));
    // uint64 seeds may exceed int64; keep the exact decimal as a string.
    doc.set("seed", Value::str(std::to_string(o.seed)));
    doc.set("schedIters", Value::number(static_cast<int64_t>(o.schedIters)));
    doc.set("initSchedIters",
            Value::number(static_cast<int64_t>(o.initSchedIters)));
    doc.set("useRepair", Value::boolean(o.useRepair));
    doc.set("areaBudgetMm2", Value::number(o.areaBudgetMm2));
    doc.set("powerBudgetMw", Value::number(o.powerBudgetMw));
    doc.set("unrollFactors", intVecToJson(o.unrollFactors));
    doc.set("threads", Value::number(static_cast<int64_t>(o.threads)));
    doc.set("candidateBatch",
            Value::number(static_cast<int64_t>(o.candidateBatch)));
    doc.set("schedChains",
            Value::number(static_cast<int64_t>(o.schedChains)));
    doc.set("checkpointPath", Value::str(o.checkpointPath));
    doc.set("checkpointEvery",
            Value::number(static_cast<int64_t>(o.checkpointEvery)));
    doc.set("wallBudgetMs", Value::number(o.wallBudgetMs));
    doc.set("candidateTimeMs", Value::number(o.candidateTimeMs));
    doc.set("memoize", Value::boolean(o.memoize));
    doc.set("dedupBatch", Value::boolean(o.dedupBatch));
    doc.set("checkCostOracle", Value::boolean(o.checkCostOracle));
    doc.set("pareto", Value::boolean(o.pareto));
    doc.set("paretoFrontSize",
            Value::number(static_cast<int64_t>(o.paretoFrontSize)));
    doc.set("structuredMoves", Value::boolean(o.structuredMoves));
    doc.set("powerObjectiveWeight", Value::number(o.powerObjectiveWeight));
    // Multi-process knobs. Like threads, they shape transport only —
    // never the produced trace — so resuming with different values is
    // legal, and none of them enter the eval-context hash.
    doc.set("workers", Value::number(static_cast<int64_t>(o.workers)));
    doc.set("cacheStoreDir", Value::str(o.cacheStoreDir));
    doc.set("workerRequestTimeoutMs",
            Value::number(o.workerRequestTimeoutMs));
    return doc;
}

Value
frontToJson(const ParetoFront &front)
{
    Value doc = Value::object();
    doc.set("refAreaMm2", Value::number(front.refAreaMm2()));
    doc.set("refPowerMw", Value::number(front.refPowerMw()));
    doc.set("maxSize", Value::number(static_cast<int64_t>(front.maxSize())));
    Value pts = Value::array();
    for (const ParetoPoint &p : front.points()) {
        Value pj = Value::object();
        pj.set("adg", Value::str(p.adg.toText()));
        pj.set("perf", Value::number(p.perf));
        pj.set("areaMm2", Value::number(p.areaMm2));
        pj.set("powerMw", Value::number(p.powerMw));
        pj.set("objective", Value::number(p.objective));
        pj.set("iter", Value::number(static_cast<int64_t>(p.iter)));
        pj.set("seq", Value::str(std::to_string(p.seq)));
        pts.push(std::move(pj));
    }
    doc.set("points", std::move(pts));
    return doc;
}

// ---------------------------------------------------------------------
// Readers (every access checked; corrupt input -> Status, never crash)
// ---------------------------------------------------------------------

/** Accumulating field reader: first error wins, later reads no-op. */
struct Reader
{
    Status err;

    const Value *
    field(const Value &obj, const char *key, Value::Kind kind,
          const char *what)
    {
        if (!err.ok())
            return nullptr;
        if (!obj.isObject()) {
            err = Status::dataLoss(std::string(what) + " is not an object");
            return nullptr;
        }
        const Value *v = obj.find(key);
        if (!v) {
            err = Status::dataLoss(std::string(what) + " missing field '" +
                                   key + "'");
            return nullptr;
        }
        if (v->kind() != kind) {
            err = Status::dataLoss(std::string(what) + " field '" + key +
                                   "' has the wrong type");
            return nullptr;
        }
        return v;
    }

    int64_t
    getInt(const Value &obj, const char *key, const char *what)
    {
        const Value *v = field(obj, key, Value::Kind::Number, what);
        return v ? v->asInt64() : 0;
    }

    double
    getDouble(const Value &obj, const char *key, const char *what)
    {
        const Value *v = field(obj, key, Value::Kind::Number, what);
        return v ? v->asDouble() : 0;
    }

    bool
    getBool(const Value &obj, const char *key, const char *what)
    {
        const Value *v = field(obj, key, Value::Kind::Bool, what);
        return v && v->asBool();
    }

    /** Full-range uint64 stored as a decimal string (see seed). */
    uint64_t
    getU64(const Value &obj, const char *key, const char *what)
    {
        std::string text = getString(obj, key, what);
        auto v = parseNumber<uint64_t>(text);
        if (err.ok() && !v)
            err = Status::dataLoss(std::string(what) + " field '" + key +
                                   "' is not a decimal integer");
        return v.value_or(0);
    }

    std::string
    getString(const Value &obj, const char *key, const char *what)
    {
        const Value *v = field(obj, key, Value::Kind::String, what);
        return v ? v->asString() : std::string();
    }

    /** Array element, with bounds + kind check. */
    const Value *
    elem(const Value &arr, size_t i, Value::Kind kind, const char *what)
    {
        if (!err.ok())
            return nullptr;
        if (i >= arr.size() || arr.at(i).kind() != kind) {
            err = Status::dataLoss(std::string(what) +
                                   " has a malformed element");
            return nullptr;
        }
        return &arr.at(i);
    }

    std::vector<int>
    intVec(const Value &obj, const char *key, const char *what)
    {
        std::vector<int> out;
        const Value *arr = field(obj, key, Value::Kind::Array, what);
        if (!arr)
            return out;
        for (size_t i = 0; i < arr->size(); ++i) {
            const Value *v = elem(*arr, i, Value::Kind::Number, what);
            if (!v)
                return out;
            out.push_back(static_cast<int>(v->asInt64()));
        }
        return out;
    }

    adg::Adg
    adgText(const Value &obj, const char *key, const char *what)
    {
        std::string text = getString(obj, key, what);
        if (!err.ok())
            return adg::Adg();
        // fromText throws (std::stol and friends) on mangled text —
        // convert to a structured checkpoint error instead of escaping.
        try {
            return adg::Adg::fromText(text);
        } catch (...) {
            err = Status::dataLoss(std::string(what) + " field '" + key +
                                   "' holds unparseable ADG text: " +
                                   Status::fromCurrentException().message());
            return adg::Adg();
        }
    }
};

model::ComponentCost
costFromJson(Reader &rd, const Value &obj, const char *key, const char *what)
{
    model::ComponentCost c;
    const Value *arr = rd.field(obj, key, Value::Kind::Array, what);
    if (!arr || arr->size() != 2) {
        if (rd.err.ok())
            rd.err = Status::dataLoss(std::string(what) + " field '" + key +
                                      "' has a malformed element");
        return c;
    }
    const Value *a = rd.elem(*arr, 0, Value::Kind::Number, key);
    const Value *p = rd.elem(*arr, 1, Value::Kind::Number, key);
    if (a && p) {
        c.areaMm2 = a->asDouble();
        c.powerMw = p->asDouble();
    }
    return c;
}

DseResult
resultFromJson(Reader &rd, const Value &doc)
{
    DseResult r;
    r.best = rd.adgText(doc, "best", "result");
    r.bestObjective = rd.getDouble(doc, "bestObjective", "result");
    r.bestPerf = rd.getDouble(doc, "bestPerf", "result");
    r.bestCost = costFromJson(rd, doc, "bestCost", "result");
    r.initialObjective = rd.getDouble(doc, "initialObjective", "result");
    r.initialCost = costFromJson(rd, doc, "initialCost", "result");
    const Value *hist = rd.field(doc, "history", Value::Kind::Array, "result");
    if (!hist)
        return r;
    for (size_t i = 0; i < hist->size(); ++i) {
        const Value *entry =
            rd.elem(*hist, i, Value::Kind::Array, "history record");
        if (!entry || entry->size() != 7) {
            if (rd.err.ok())
                rd.err = Status::dataLoss("history record is malformed");
            return r;
        }
        DseIterRecord h;
        const Value *it =
            rd.elem(*entry, 0, Value::Kind::Number, "history record");
        const Value *area =
            rd.elem(*entry, 1, Value::Kind::Number, "history record");
        const Value *power =
            rd.elem(*entry, 2, Value::Kind::Number, "history record");
        const Value *perf =
            rd.elem(*entry, 3, Value::Kind::Number, "history record");
        const Value *obj =
            rd.elem(*entry, 4, Value::Kind::Number, "history record");
        const Value *acc =
            rd.elem(*entry, 5, Value::Kind::Bool, "history record");
        const Value *hv =
            rd.elem(*entry, 6, Value::Kind::Number, "history record");
        if (!it || !area || !power || !perf || !obj || !acc || !hv)
            return r;
        h.iter = static_cast<int>(it->asInt64());
        h.areaMm2 = area->asDouble();
        h.powerMw = power->asDouble();
        h.perf = perf->asDouble();
        h.objective = obj->asDouble();
        h.accepted = acc->asBool();
        h.hypervolume = hv->asDouble();
        r.history.push_back(h);
    }
    r.evalFailures =
        static_cast<int>(rd.getInt(doc, "evalFailures", "result"));
    r.checkpointsWritten =
        static_cast<int>(rd.getInt(doc, "checkpointsWritten", "result"));
    r.stopReason = rd.getString(doc, "stopReason", "result");
    int64_t code = rd.getInt(doc, "statusCode", "result");
    std::string msg = rd.getString(doc, "statusMessage", "result");
    if (rd.err.ok()) {
        if (code < 0 || code > static_cast<int64_t>(StatusCode::Internal))
            rd.err = Status::dataLoss("result status code out of range");
        else
            r.status = Status(static_cast<StatusCode>(code), msg);
    }
    return r;
}

DseOptions
optionsFromJson(Reader &rd, const Value &doc)
{
    DseOptions o;
    o.maxIters = static_cast<int>(rd.getInt(doc, "maxIters", "options"));
    o.noImproveExit =
        static_cast<int>(rd.getInt(doc, "noImproveExit", "options"));
    o.infeasibleExit =
        static_cast<int>(rd.getInt(doc, "infeasibleExit", "options"));
    o.seed = rd.getU64(doc, "seed", "options");
    o.schedIters = static_cast<int>(rd.getInt(doc, "schedIters", "options"));
    o.initSchedIters =
        static_cast<int>(rd.getInt(doc, "initSchedIters", "options"));
    o.useRepair = rd.getBool(doc, "useRepair", "options");
    o.areaBudgetMm2 = rd.getDouble(doc, "areaBudgetMm2", "options");
    o.powerBudgetMw = rd.getDouble(doc, "powerBudgetMw", "options");
    o.unrollFactors = rd.intVec(doc, "unrollFactors", "options");
    o.threads = static_cast<int>(rd.getInt(doc, "threads", "options"));
    o.candidateBatch =
        static_cast<int>(rd.getInt(doc, "candidateBatch", "options"));
    o.schedChains = static_cast<int>(rd.getInt(doc, "schedChains", "options"));
    o.checkpointPath = rd.getString(doc, "checkpointPath", "options");
    o.checkpointEvery =
        static_cast<int>(rd.getInt(doc, "checkpointEvery", "options"));
    o.wallBudgetMs = rd.getInt(doc, "wallBudgetMs", "options");
    o.candidateTimeMs = rd.getInt(doc, "candidateTimeMs", "options");
    o.memoize = rd.getBool(doc, "memoize", "options");
    o.dedupBatch = rd.getBool(doc, "dedupBatch", "options");
    o.checkCostOracle = rd.getBool(doc, "checkCostOracle", "options");
    o.pareto = rd.getBool(doc, "pareto", "options");
    o.paretoFrontSize =
        static_cast<int>(rd.getInt(doc, "paretoFrontSize", "options"));
    o.structuredMoves = rd.getBool(doc, "structuredMoves", "options");
    o.powerObjectiveWeight =
        rd.getDouble(doc, "powerObjectiveWeight", "options");
    o.workers = static_cast<int>(rd.getInt(doc, "workers", "options"));
    o.cacheStoreDir = rd.getString(doc, "cacheStoreDir", "options");
    o.workerRequestTimeoutMs =
        rd.getInt(doc, "workerRequestTimeoutMs", "options");
    return o;
}

ParetoFront
frontFromJson(Reader &rd, const Value &doc)
{
    double refA = rd.getDouble(doc, "refAreaMm2", "pareto front");
    double refP = rd.getDouble(doc, "refPowerMw", "pareto front");
    int maxSize =
        static_cast<int>(rd.getInt(doc, "maxSize", "pareto front"));
    const Value *pts =
        rd.field(doc, "points", Value::Kind::Array, "pareto front");
    std::vector<ParetoPoint> points;
    if (pts) {
        for (size_t i = 0; i < pts->size(); ++i) {
            const Value *pj =
                rd.elem(*pts, i, Value::Kind::Object, "pareto point");
            if (!pj)
                break;
            ParetoPoint p;
            p.adg = rd.adgText(*pj, "adg", "pareto point");
            p.perf = rd.getDouble(*pj, "perf", "pareto point");
            p.areaMm2 = rd.getDouble(*pj, "areaMm2", "pareto point");
            p.powerMw = rd.getDouble(*pj, "powerMw", "pareto point");
            p.objective = rd.getDouble(*pj, "objective", "pareto point");
            p.iter = static_cast<int>(rd.getInt(*pj, "iter", "pareto point"));
            p.seq = rd.getU64(*pj, "seq", "pareto point");
            if (!rd.err.ok())
                break;
            points.push_back(std::move(p));
        }
    }
    if (!rd.err.ok() || refA <= 0 || refP <= 0 || maxSize < 2) {
        if (rd.err.ok())
            rd.err = Status::dataLoss("pareto front header is malformed");
        return ParetoFront();
    }
    return ParetoFront::restore(refA, refP, maxSize, std::move(points));
}

} // namespace

std::string
dseOptionsToText(const DseOptions &opts)
{
    return dseOptionsToJson(opts).dump();
}

Result<DseOptions>
dseOptionsFromText(const std::string &text)
{
    auto doc = json::parse(text);
    if (!doc.ok())
        return Status::dataLoss("options: " + doc.status().message());
    if (!doc.value().isObject())
        return Status::dataLoss("options is not an object");
    Reader rd;
    DseOptions o = optionsFromJson(rd, doc.value());
    if (!rd.err.ok())
        return rd.err;
    return o;
}

Value
checkpointToJson(const std::vector<std::string> &workloadNames,
                 const DseOptions &opts, const DseRunState &state)
{
    Value doc = Value::object();
    doc.set("format", Value::str("dsagen-dse-checkpoint"));
    doc.set("version", Value::number(static_cast<int64_t>(kCheckpointVersion)));
    Value wls = Value::array();
    for (const auto &n : workloadNames)
        wls.push(Value::str(n));
    doc.set("workloads", std::move(wls));
    doc.set("options", dseOptionsToJson(opts));

    Value st = Value::object();
    st.set("current", Value::str(state.current.toText()));
    st.set("curObj", Value::number(state.curObj));
    st.set("iter", Value::number(static_cast<int64_t>(state.iter)));
    st.set("noImprove", Value::number(static_cast<int64_t>(state.noImprove)));
    st.set("infeasibleStreak",
           Value::number(static_cast<int64_t>(state.infeasibleStreak)));
    st.set("acceptedSinceCkpt",
           Value::number(static_cast<int64_t>(state.acceptedSinceCkpt)));
    st.set("rng", Value::str(state.rng.saveState()));
    st.set("schedules",
           Value::str(toHex(encodeScheduleCache(state.schedules))));
    st.set("result", resultToJson(state.result));
    // Scalar runs carry a default-constructed (zero-capacity) front;
    // serializing it would fail restore()'s invariants, so it is
    // written only when Pareto mode actually initialized one.
    if (state.front.maxSize() > 0)
        st.set("front", frontToJson(state.front));
    doc.set("state", std::move(st));
    return doc;
}

Result<DseCheckpoint>
checkpointFromJson(const Value &doc)
{
    Reader rd;
    DseCheckpoint ck;
    std::string format = rd.getString(doc, "format", "checkpoint");
    if (rd.err.ok() && format != "dsagen-dse-checkpoint")
        return Status::invalidArgument("not a DSE checkpoint (format '" +
                                       format + "')");
    int64_t version = rd.getInt(doc, "version", "checkpoint");
    if (rd.err.ok() && version != kCheckpointVersion)
        return Status::invalidArgument(
            "unsupported checkpoint version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kCheckpointVersion) + ")");

    const Value *wls =
        rd.field(doc, "workloads", Value::Kind::Array, "checkpoint");
    if (wls) {
        for (size_t i = 0; i < wls->size(); ++i) {
            const Value *n =
                rd.elem(*wls, i, Value::Kind::String, "workload list");
            if (!n)
                break;
            ck.workloadNames.push_back(n->asString());
        }
    }

    const Value *opts =
        rd.field(doc, "options", Value::Kind::Object, "checkpoint");
    if (opts)
        ck.options = optionsFromJson(rd, *opts);

    const Value *st = rd.field(doc, "state", Value::Kind::Object, "checkpoint");
    if (st) {
        ck.state.current = rd.adgText(*st, "current", "state");
        ck.state.curObj = rd.getDouble(*st, "curObj", "state");
        ck.state.iter = static_cast<int>(rd.getInt(*st, "iter", "state"));
        ck.state.noImprove =
            static_cast<int>(rd.getInt(*st, "noImprove", "state"));
        ck.state.infeasibleStreak =
            static_cast<int>(rd.getInt(*st, "infeasibleStreak", "state"));
        ck.state.acceptedSinceCkpt =
            static_cast<int>(rd.getInt(*st, "acceptedSinceCkpt", "state"));
        std::string rng = rd.getString(*st, "rng", "state");
        if (rd.err.ok() && !ck.state.rng.loadState(rng))
            rd.err = Status::dataLoss("state rng stream is malformed");
        std::string cache = rd.getString(*st, "schedules", "state");
        if (rd.err.ok()) {
            auto bytes = fromHex(cache);
            auto sc = bytes ? decodeScheduleCache(*bytes)
                            : Result<ScheduleCache>(Status::dataLoss(
                                  "state field 'schedules' is not hex"));
            if (sc.ok())
                ck.state.schedules = std::move(sc.value());
            else
                rd.err = sc.status();
        }
        const Value *res =
            rd.field(*st, "result", Value::Kind::Object, "state");
        if (res)
            ck.state.result = resultFromJson(rd, *res);
        // Required of Pareto runs only: scalar runs write no front
        // (see checkpointToJson).
        if (rd.err.ok() && ck.options.pareto) {
            const Value *fr =
                rd.field(*st, "front", Value::Kind::Object, "state");
            if (fr)
                ck.state.front = frontFromJson(rd, *fr);
        }
    }

    if (!rd.err.ok())
        return rd.err;
    return ck;
}

Status
saveCheckpoint(const std::vector<std::string> &workloadNames,
               const DseOptions &opts, const DseRunState &state,
               const std::string &path)
{
    std::string text = checkpointToJson(workloadNames, opts, state).dump();
    text += '\n';
    return writeFileAtomic(path, text, "checkpoint.tear");
}

Result<DseCheckpoint>
loadCheckpoint(const std::string &path)
{
    auto text = readFile(path);
    if (!text.ok())
        return Status(text.status().code(),
                      "checkpoint: " + text.status().message());
    auto parsed = json::parse(*text);
    if (!parsed.ok())
        return Status::dataLoss("checkpoint '" + path +
                                "' is corrupt: " + parsed.status().message());
    auto ck = checkpointFromJson(parsed.value());
    if (!ck.ok())
        return Status(ck.status().code(), "checkpoint '" + path + "': " +
                                              ck.status().message());
    return ck;
}

} // namespace dsa::dse
