#include "dse/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "base/fault.h"
#include "base/subprocess.h"

namespace dsa::dse {

using json::Value;

namespace {

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

Value
routeToJson(const mapper::Route &route)
{
    Value arr = Value::array();
    for (adg::EdgeId e : route)
        arr.push(Value::number(static_cast<int64_t>(e)));
    return arr;
}

Value
intVecToJson(const std::vector<int> &v)
{
    Value arr = Value::array();
    for (int n : v)
        arr.push(Value::number(static_cast<int64_t>(n)));
    return arr;
}

Value
scheduleToJson(const mapper::Schedule &s)
{
    Value doc = Value::object();
    Value regions = Value::array();
    for (const auto &r : s.regions) {
        Value rj = Value::object();
        rj.set("ser", Value::boolean(r.serialized));
        rj.set("vmap", intVecToJson(r.vertexMap));
        rj.set("smap", intVecToJson(r.streamMap));
        rj.set("vtime", intVecToJson(r.vertexTime));
        Value routes = Value::array();
        for (const auto &[key, route] : r.routes) {
            Value entry = Value::array();
            entry.push(Value::number(static_cast<int64_t>(key.first)));
            entry.push(Value::number(static_cast<int64_t>(key.second)));
            entry.push(routeToJson(route));
            routes.push(std::move(entry));
        }
        rj.set("routes", std::move(routes));
        Value rec = Value::array();
        for (const auto &[sid, route] : r.recurrenceRoutes) {
            Value entry = Value::array();
            entry.push(Value::number(static_cast<int64_t>(sid)));
            entry.push(routeToJson(route));
            rec.push(std::move(entry));
        }
        rj.set("rec", std::move(rec));
        regions.push(std::move(rj));
    }
    doc.set("regions", std::move(regions));
    Value fwd = Value::array();
    for (const auto &[fi, route] : s.forwardRoutes) {
        Value entry = Value::array();
        entry.push(Value::number(static_cast<int64_t>(fi)));
        entry.push(routeToJson(route));
        fwd.push(std::move(entry));
    }
    doc.set("fwd", std::move(fwd));
    Value cost = Value::array();
    cost.push(Value::number(static_cast<int64_t>(s.cost.unplaced)));
    cost.push(Value::number(static_cast<int64_t>(s.cost.overuse)));
    cost.push(Value::number(static_cast<int64_t>(s.cost.violations)));
    cost.push(Value::number(static_cast<int64_t>(s.cost.maxIi)));
    cost.push(Value::number(static_cast<int64_t>(s.cost.recurrenceLatency)));
    cost.push(Value::number(static_cast<int64_t>(s.cost.wirelength)));
    doc.set("cost", std::move(cost));
    return doc;
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
optionsToJson(const DseOptions &o)
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

std::string
u64ToText(uint64_t v)
{
    return std::to_string(v);
}

Value
evalCacheToJson(const EvalCache &cache)
{
    // sortedEntries() is ordered by key, so the same cache contents
    // always serialize to the same bytes — checkpoint files stay
    // comparable across runs, thread counts, and resumes.
    Value arr = Value::array();
    for (const auto &[key, entry] : cache.sortedEntries())
        arr.push(evalEntryToJson(key, *entry));
    return arr;
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

    /** Like getBool, but a *missing* field yields @p dflt — used for
     *  fields added after version 1 shipped, so old checkpoints still
     *  load. A present-but-mistyped field is still an error. */
    bool
    getBoolOr(const Value &obj, const char *key, bool dflt, const char *what)
    {
        if (!err.ok() || !obj.isObject())
            return dflt;
        const Value *v = obj.find(key);
        if (!v)
            return dflt;
        if (v->kind() != Value::Kind::Bool) {
            err = Status::dataLoss(std::string(what) + " field '" + key +
                                   "' has the wrong type");
            return dflt;
        }
        return v->asBool();
    }

    /** getInt with a default for fields added after version 1. */
    int64_t
    getIntOr(const Value &obj, const char *key, int64_t dflt,
             const char *what)
    {
        if (!err.ok() || !obj.isObject())
            return dflt;
        const Value *v = obj.find(key);
        if (!v)
            return dflt;
        if (v->kind() != Value::Kind::Number) {
            err = Status::dataLoss(std::string(what) + " field '" + key +
                                   "' has the wrong type");
            return dflt;
        }
        return v->asInt64();
    }

    /** getDouble with a default for fields added after version 1. */
    double
    getDoubleOr(const Value &obj, const char *key, double dflt,
                const char *what)
    {
        if (!err.ok() || !obj.isObject())
            return dflt;
        const Value *v = obj.find(key);
        if (!v)
            return dflt;
        if (v->kind() != Value::Kind::Number) {
            err = Status::dataLoss(std::string(what) + " field '" + key +
                                   "' has the wrong type");
            return dflt;
        }
        return v->asDouble();
    }

    /** getString with a default for fields added after version 1. */
    std::string
    getStringOr(const Value &obj, const char *key, const std::string &dflt,
                const char *what)
    {
        if (!err.ok() || !obj.isObject())
            return dflt;
        const Value *v = obj.find(key);
        if (!v)
            return dflt;
        if (v->kind() != Value::Kind::String) {
            err = Status::dataLoss(std::string(what) + " field '" + key +
                                   "' has the wrong type");
            return dflt;
        }
        return v->asString();
    }

    /** Full-range uint64 stored as a decimal string (see seed). */
    uint64_t
    getU64(const Value &obj, const char *key, const char *what)
    {
        std::string text = getString(obj, key, what);
        if (!err.ok())
            return 0;
        char *end = nullptr;
        uint64_t v = std::strtoull(text.c_str(), &end, 10);
        if (!end || end == text.c_str() || *end != '\0') {
            err = Status::dataLoss(std::string(what) + " field '" + key +
                                   "' is not a decimal integer");
            return 0;
        }
        return v;
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

    mapper::Route
    route(const Value &v, const char *what)
    {
        mapper::Route out;
        if (!err.ok())
            return out;
        if (!v.isArray()) {
            err = Status::dataLoss(std::string(what) + " route is not an array");
            return out;
        }
        for (size_t i = 0; i < v.size(); ++i) {
            const Value *e = elem(v, i, Value::Kind::Number, what);
            if (!e)
                return out;
            out.push_back(static_cast<adg::EdgeId>(e->asInt64()));
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

mapper::Schedule
scheduleFromJson(Reader &rd, const Value &doc)
{
    mapper::Schedule s;
    const Value *regions =
        rd.field(doc, "regions", Value::Kind::Array, "schedule");
    if (!regions)
        return s;
    for (size_t i = 0; i < regions->size(); ++i) {
        const Value *rj = rd.elem(*regions, i, Value::Kind::Object, "schedule");
        if (!rj)
            return s;
        mapper::RegionSchedule r;
        r.serialized = rd.getBool(*rj, "ser", "schedule region");
        auto vmap = rd.intVec(*rj, "vmap", "schedule region");
        r.vertexMap.assign(vmap.begin(), vmap.end());
        auto smap = rd.intVec(*rj, "smap", "schedule region");
        r.streamMap.assign(smap.begin(), smap.end());
        r.vertexTime = rd.intVec(*rj, "vtime", "schedule region");
        const Value *routes =
            rd.field(*rj, "routes", Value::Kind::Array, "schedule region");
        if (!routes)
            return s;
        for (size_t j = 0; j < routes->size(); ++j) {
            const Value *entry =
                rd.elem(*routes, j, Value::Kind::Array, "schedule route");
            if (!entry || entry->size() != 3)
                return s;
            const Value *vx =
                rd.elem(*entry, 0, Value::Kind::Number, "schedule route");
            const Value *op =
                rd.elem(*entry, 1, Value::Kind::Number, "schedule route");
            if (!vx || !op)
                return s;
            auto key =
                std::make_pair(static_cast<dfg::VertexId>(vx->asInt64()),
                               static_cast<int>(op->asInt64()));
            r.routes[key] = rd.route(entry->at(2), "schedule");
        }
        const Value *rec =
            rd.field(*rj, "rec", Value::Kind::Array, "schedule region");
        if (!rec)
            return s;
        for (size_t j = 0; j < rec->size(); ++j) {
            const Value *entry =
                rd.elem(*rec, j, Value::Kind::Array, "recurrence route");
            if (!entry || entry->size() != 2)
                return s;
            const Value *sid =
                rd.elem(*entry, 0, Value::Kind::Number, "recurrence route");
            if (!sid)
                return s;
            r.recurrenceRoutes[static_cast<int>(sid->asInt64())] =
                rd.route(entry->at(1), "recurrence");
        }
        s.regions.push_back(std::move(r));
    }
    const Value *fwd = rd.field(doc, "fwd", Value::Kind::Array, "schedule");
    if (!fwd)
        return s;
    for (size_t j = 0; j < fwd->size(); ++j) {
        const Value *entry =
            rd.elem(*fwd, j, Value::Kind::Array, "forward route");
        if (!entry || entry->size() != 2)
            return s;
        const Value *fi =
            rd.elem(*entry, 0, Value::Kind::Number, "forward route");
        if (!fi)
            return s;
        s.forwardRoutes[static_cast<int>(fi->asInt64())] =
            rd.route(entry->at(1), "forward");
    }
    const Value *cost = rd.field(doc, "cost", Value::Kind::Array, "schedule");
    if (!cost || cost->size() != 6) {
        if (rd.err.ok())
            rd.err = Status::dataLoss("schedule cost has a malformed element");
        return s;
    }
    int vals[6] = {};
    for (size_t i = 0; i < 6; ++i) {
        const Value *v = rd.elem(*cost, i, Value::Kind::Number, "cost");
        if (!v)
            return s;
        vals[i] = static_cast<int>(v->asInt64());
    }
    s.cost.unplaced = vals[0];
    s.cost.overuse = vals[1];
    s.cost.violations = vals[2];
    s.cost.maxIi = vals[3];
    s.cost.recurrenceLatency = vals[4];
    s.cost.wirelength = vals[5];
    return s;
}

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
        // 6 elements in version-1 files from before the hypervolume
        // column; 7 with it. Old records read back with hv = 0.
        if (!entry || (entry->size() != 6 && entry->size() != 7)) {
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
        if (!it || !area || !power || !perf || !obj || !acc)
            return r;
        h.iter = static_cast<int>(it->asInt64());
        h.areaMm2 = area->asDouble();
        h.powerMw = power->asDouble();
        h.perf = perf->asDouble();
        h.objective = obj->asDouble();
        h.accepted = acc->asBool();
        if (entry->size() == 7) {
            const Value *hv =
                rd.elem(*entry, 6, Value::Kind::Number, "history record");
            if (!hv)
                return r;
            h.hypervolume = hv->asDouble();
        }
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
    std::string seed = rd.getString(doc, "seed", "options");
    if (rd.err.ok()) {
        char *end = nullptr;
        o.seed = std::strtoull(seed.c_str(), &end, 10);
        if (!end || *end != '\0')
            rd.err = Status::dataLoss("options seed '" + seed +
                                      "' is not a decimal integer");
    }
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
    // Added after the first checkpoint format shipped: default, don't
    // reject, so older checkpoints stay resumable.
    o.schedChains = static_cast<int>(
        rd.getIntOr(doc, "schedChains", o.schedChains, "options"));
    o.checkpointPath = rd.getString(doc, "checkpointPath", "options");
    o.checkpointEvery =
        static_cast<int>(rd.getInt(doc, "checkpointEvery", "options"));
    o.wallBudgetMs = rd.getInt(doc, "wallBudgetMs", "options");
    o.candidateTimeMs = rd.getInt(doc, "candidateTimeMs", "options");
    // Memoization toggles postdate the first version-1 checkpoints;
    // missing fields fall back to the defaults (results are identical
    // with the caches on or off, so the fallback is safe). Files
    // written before `memoize` carry three per-layer switches that
    // every caller set together; the first of them stands for all.
    o.memoize = rd.getBoolOr(
        doc, "memoize",
        rd.getBoolOr(doc, "evalCache", o.memoize, "options"), "options");
    o.dedupBatch = rd.getBoolOr(doc, "dedupBatch", o.dedupBatch, "options");
    o.checkCostOracle =
        rd.getBoolOr(doc, "checkCostOracle", o.checkCostOracle, "options");
    // Pareto-mode fields postdate the memoization toggles; the same
    // missing-field tolerance applies (defaults reproduce the old
    // scalar behaviour exactly).
    o.pareto = rd.getBoolOr(doc, "pareto", o.pareto, "options");
    o.paretoFrontSize = static_cast<int>(
        rd.getIntOr(doc, "paretoFrontSize", o.paretoFrontSize, "options"));
    o.structuredMoves =
        rd.getBoolOr(doc, "structuredMoves", o.structuredMoves, "options");
    o.powerObjectiveWeight = rd.getDoubleOr(
        doc, "powerObjectiveWeight", o.powerObjectiveWeight, "options");
    // Multi-process fields postdate all of the above; same tolerance.
    o.workers =
        static_cast<int>(rd.getIntOr(doc, "workers", o.workers, "options"));
    o.cacheStoreDir =
        rd.getStringOr(doc, "cacheStoreDir", o.cacheStoreDir, "options");
    o.workerRequestTimeoutMs = rd.getIntOr(
        doc, "workerRequestTimeoutMs", o.workerRequestTimeoutMs, "options");
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

/** Shared per-entry reader (checkpoint eval-cache array + store records). */
bool
readEvalEntry(Reader &rd, const Value &ej, EvalKey &key, EvalCacheEntry &entry)
{
    key.structural.hi = rd.getU64(ej, "fpHi", "eval cache entry");
    key.structural.lo = rd.getU64(ej, "fpLo", "eval cache entry");
    key.labeling = rd.getU64(ej, "lab", "eval cache entry");
    key.context = rd.getU64(ej, "ctx", "eval cache entry");
    entry.objective = rd.getDouble(ej, "objective", "eval cache entry");
    entry.perf = rd.getDouble(ej, "perf", "eval cache entry");
    entry.cost = costFromJson(rd, ej, "cost", "eval cache entry");
    const Value *tasks =
        rd.field(ej, "tasks", Value::Kind::Array, "eval cache entry");
    if (!tasks)
        return false;
    for (size_t j = 0; j < tasks->size(); ++j) {
        const Value *tj =
            rd.elem(*tasks, j, Value::Kind::Object, "eval cache task");
        if (!tj)
            return false;
        EvalTaskOutcome t;
        t.lowered = rd.getBool(*tj, "lowered", "eval cache task");
        t.legal = rd.getBool(*tj, "legal", "eval cache task");
        t.cycles = rd.getDouble(*tj, "cycles", "eval cache task");
        if (rd.err.ok() && t.legal) {
            const Value *sj =
                rd.field(*tj, "sched", Value::Kind::Object, "eval cache task");
            if (sj)
                t.sched = scheduleFromJson(rd, *sj);
        }
        if (!rd.err.ok())
            return false;
        entry.tasks.push_back(std::move(t));
    }
    return rd.err.ok();
}

std::shared_ptr<EvalCache>
evalCacheFromJson(Reader &rd, const Value &arr)
{
    auto cache = std::make_shared<EvalCache>();
    for (size_t i = 0; i < arr.size(); ++i) {
        const Value *ej = rd.elem(arr, i, Value::Kind::Object, "eval cache");
        if (!ej)
            break;
        EvalKey key;
        EvalCacheEntry entry;
        if (!readEvalEntry(rd, *ej, key, entry))
            break;
        cache->restore(key,
                       std::make_shared<EvalCacheEntry>(std::move(entry)));
    }
    return cache;
}

} // namespace

Value
evalEntryToJson(const EvalKey &key, const EvalCacheEntry &entry)
{
    Value ej = Value::object();
    ej.set("fpHi", Value::str(u64ToText(key.structural.hi)));
    ej.set("fpLo", Value::str(u64ToText(key.structural.lo)));
    ej.set("lab", Value::str(u64ToText(key.labeling)));
    ej.set("ctx", Value::str(u64ToText(key.context)));
    ej.set("objective", Value::number(entry.objective));
    ej.set("perf", Value::number(entry.perf));
    ej.set("cost", costToJson(entry.cost));
    Value tasks = Value::array();
    for (const auto &t : entry.tasks) {
        Value tj = Value::object();
        tj.set("lowered", Value::boolean(t.lowered));
        tj.set("legal", Value::boolean(t.legal));
        tj.set("cycles", Value::number(t.cycles));
        if (t.legal)
            tj.set("sched", scheduleToJson(t.sched));
        tasks.push(std::move(tj));
    }
    ej.set("tasks", std::move(tasks));
    return ej;
}

Result<EvalStoreRecord>
evalEntryFromJson(const Value &doc)
{
    Reader rd;
    EvalKey key;
    EvalCacheEntry entry;
    if (!doc.isObject())
        return Status::dataLoss("eval cache entry is not an object");
    readEvalEntry(rd, doc, key, entry);
    if (!rd.err.ok())
        return rd.err;
    EvalStoreRecord rec;
    rec.key = key;
    rec.entry = std::make_shared<EvalCacheEntry>(std::move(entry));
    return rec;
}

Value
scheduleCacheToJson(const ScheduleCache &cache)
{
    Value arr = Value::array();
    for (const auto &[key, entry] : cache) {
        Value ej = Value::object();
        ej.set("k", Value::number(static_cast<int64_t>(key.first)));
        ej.set("u", Value::number(static_cast<int64_t>(key.second)));
        ej.set("hasLegal", Value::boolean(entry.hasLegal));
        if (entry.hasLegal)
            ej.set("sched", scheduleToJson(entry.sched));
        arr.push(std::move(ej));
    }
    return arr;
}

Result<ScheduleCache>
scheduleCacheFromJson(const Value &arr)
{
    Reader rd;
    ScheduleCache cache;
    if (!arr.isArray())
        return Status::dataLoss("schedule cache is not an array");
    for (size_t i = 0; i < arr.size(); ++i) {
        const Value *ej = rd.elem(arr, i, Value::Kind::Object,
                                  "schedule cache");
        if (!ej)
            break;
        int k = static_cast<int>(rd.getInt(*ej, "k", "schedule cache entry"));
        int u = static_cast<int>(rd.getInt(*ej, "u", "schedule cache entry"));
        ScheduleCacheEntry entry;
        entry.hasLegal = rd.getBool(*ej, "hasLegal", "schedule cache entry");
        if (rd.err.ok() && entry.hasLegal) {
            const Value *sj = rd.field(*ej, "sched", Value::Kind::Object,
                                       "schedule cache entry");
            if (sj)
                entry.sched = scheduleFromJson(rd, *sj);
        }
        if (!rd.err.ok())
            break;
        cache[{k, u}] = std::move(entry);
    }
    if (!rd.err.ok())
        return rd.err;
    return cache;
}

Value
dseOptionsToJson(const DseOptions &opts)
{
    return optionsToJson(opts);
}

Result<DseOptions>
dseOptionsFromJson(const Value &doc)
{
    Reader rd;
    if (!doc.isObject())
        return Status::dataLoss("options is not an object");
    DseOptions o = optionsFromJson(rd, doc);
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
    doc.set("options", optionsToJson(opts));

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
    st.set("schedules", scheduleCacheToJson(state.schedules));
    st.set("result", resultToJson(state.result));
    // Scalar runs carry a default-constructed (zero-capacity) front;
    // serializing it would fail restore()'s invariants, so it is
    // written only when Pareto mode actually initialized one.
    if (state.front.maxSize() > 0)
        st.set("front", frontToJson(state.front));
    if (state.evalCache)
        st.set("evalCache", evalCacheToJson(*state.evalCache));
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
        const Value *cache =
            rd.field(*st, "schedules", Value::Kind::Array, "state");
        if (cache) {
            auto sc = scheduleCacheFromJson(*cache);
            if (!sc.ok()) {
                if (rd.err.ok())
                    rd.err = sc.status();
            } else {
                ck.state.schedules = std::move(sc.value());
            }
        }
        const Value *res =
            rd.field(*st, "result", Value::Kind::Object, "state");
        if (res)
            ck.state.result = resultFromJson(rd, *res);
        // Optional: present only for Pareto-mode checkpoints (and
        // absent in files from older builds).
        if (rd.err.ok() && st->isObject()) {
            const Value *fr = st->find("front");
            if (fr) {
                if (fr->kind() != Value::Kind::Object)
                    rd.err = Status::dataLoss(
                        "state field 'front' has the wrong type");
                else
                    ck.state.front = frontFromJson(rd, *fr);
            }
        }
        // Optional: absent in checkpoints written with the eval cache
        // disabled (or by older builds). A fresh cache is equivalent —
        // only warm-up cost differs, never results.
        if (rd.err.ok() && st->isObject()) {
            const Value *ec = st->find("evalCache");
            if (ec) {
                if (ec->kind() != Value::Kind::Array)
                    rd.err = Status::dataLoss(
                        "state field 'evalCache' has the wrong type");
                else
                    ck.state.evalCache = evalCacheFromJson(rd, *ec);
            }
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
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0)
        return errnoStatus("checkpoint.open", errno);
    size_t off = 0;
    while (off < text.size()) {
        ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            return errnoStatus("checkpoint.write", err);
        }
        off += static_cast<size_t>(n);
    }
    if (fault::shouldFire("checkpoint.tear")) {
        // Simulated power loss mid-save: leave a torn temp file behind
        // and bail before the rename — the previous checkpoint must
        // stay loadable.
        (void)::ftruncate(fd, static_cast<off_t>(text.size() / 2));
        ::close(fd);
        return Status::dataLoss("fault-injected torn write to '" + tmp + "'");
    }
    // The rename-is-atomic trick only yields a durable checkpoint if
    // the temp file's *data* reaches disk before the rename does:
    // otherwise a power loss can promote a zero-length temp file into
    // a "valid" checkpoint.
    if (::fsync(fd) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        return errnoStatus("checkpoint.fsync", err);
    }
    if (::close(fd) != 0)
        return errnoStatus("checkpoint.close", errno);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        std::remove(tmp.c_str());
        return errnoStatus("checkpoint.rename", err);
    }
    // And the rename itself lives in the directory, which has its own
    // write-back cache; fsync it so the new name survives power loss.
    size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    if (dir.empty())
        dir = "/";
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0)
        return errnoStatus("checkpoint.dir-open", errno);
    if (::fsync(dfd) != 0) {
        int err = errno;
        ::close(dfd);
        return errnoStatus("checkpoint.dir-fsync", err);
    }
    ::close(dfd);
    return Status();
}

Result<DseCheckpoint>
loadCheckpoint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::notFound("cannot open checkpoint '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        return Status::dataLoss("error reading checkpoint '" + path + "'");
    auto parsed = json::parse(buf.str());
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
