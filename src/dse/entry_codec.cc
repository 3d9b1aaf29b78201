#include "dse/entry_codec.h"

#include <bit>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/logging.h"

namespace dsa::dse {

namespace {

constexpr uint8_t kLowered = 1;
constexpr uint8_t kLegal = 2;

/** Encoding primitives over const values (see Reader for the checks). */
class Writer
{
  public:
    static constexpr bool kDecoding = false;

    void bits(uint8_t v, uint8_t) { out_.push_back(static_cast<char>(v)); }

    void flag(bool v) { bits(v ? 1 : 0, 1); }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<char>(v >> (8 * i)));
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void
    count(uint64_t v)
    {
        for (; v >= 0x80; v >>= 7)
            out_.push_back(static_cast<char>(v | 0x80));
        out_.push_back(static_cast<char>(v));
    }

    void
    i32(int32_t v, int32_t = INT32_MIN, const char * = nullptr)
    {
        int64_t w = v;
        count((static_cast<uint64_t>(w) << 1) ^
              static_cast<uint64_t>(w >> 63));
    }

    void
    text(std::string_view s)
    {
        count(s.size());
        out_.append(s);
    }

    template <typename E>
    void
    code(E c)
    {
        bits(static_cast<uint8_t>(c), 0xff);
    }

    template <typename T, typename Each>
    void
    seq(const std::vector<T> &v, size_t, Each each)
    {
        count(v.size());
        for (const T &x : v)
            each(x);
    }

    template <typename Map, typename Key, typename Val>
    void
    map(const Map &m, size_t, Key key, Val val)
    {
        count(m.size());
        for (const auto &[k, v] : m) {
            key(k);
            val(v);
        }
    }

    void adg(const adg::Adg &g, const char *) { text(g.toText()); }

    void rng(const Rng &r) { text(r.saveState()); }

    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/**
 * Decoding primitives over the values they fill in, with every check
 * of the file comment of dse/entry_codec.h. The first error wins;
 * later reads fill in zeros and empties.
 */
class Reader
{
  public:
    static constexpr bool kDecoding = true;

    Reader(std::string_view bytes, const char *what)
        : bytes_(bytes), what_(what)
    {
    }

    bool ok() const { return err_.ok(); }

    /** Record @p why as the error unless one is recorded. */
    void
    fail(const std::string &why)
    {
        if (ok())
            err_ = Status::dataLoss(std::string(what_) + ": " + why +
                                    " at byte " + std::to_string(pos_) +
                                    " of " + std::to_string(bytes_.size()));
    }

    /** One byte that may only set bits of @p mask. */
    void
    bits(uint8_t &v, uint8_t mask)
    {
        v = 0;
        if (!need(1))
            return;
        auto b = static_cast<uint8_t>(bytes_[pos_]);
        if (b & ~mask)
            return fail("flag byte " + std::to_string(b) +
                        " sets undefined bits");
        ++pos_;
        v = b;
    }

    void
    flag(bool &v)
    {
        uint8_t b = 0;
        bits(b, 1);
        v = b != 0;
    }

    void
    u64(uint64_t &v)
    {
        v = 0;
        if (!need(8))
            return;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
                 << (8 * i);
    }

    void
    i64(int64_t &v)
    {
        uint64_t u = 0;
        u64(u);
        v = static_cast<int64_t>(u);
    }

    void
    f64(double &v)
    {
        uint64_t u = 0;
        u64(u);
        v = std::bit_cast<double>(u);
    }

    /** A count of elements that take at least @p minBytes each. */
    size_t
    count(size_t minBytes)
    {
        uint64_t n = varint();
        if (ok() && n > (bytes_.size() - pos_) / minBytes) {
            fail("count " + std::to_string(n) + " exceeds the " +
                 std::to_string(bytes_.size() - pos_) + " bytes that remain");
            return 0;
        }
        return static_cast<size_t>(n);
    }

    /** A 32-bit int; one below @p min is corrupt, named @p field. */
    void
    i32(int32_t &v, int32_t min = INT32_MIN, const char *field = nullptr)
    {
        uint64_t z = varint();
        int64_t w = static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
        v = 0;
        if (w < INT32_MIN || w > INT32_MAX)
            return fail("id " + std::to_string(w) + " does not fit 32 bits");
        if (w < min)
            return fail(std::string(field) + " " + std::to_string(w) +
                        " is below " + std::to_string(min));
        v = static_cast<int32_t>(w);
    }

    void
    text(std::string &s)
    {
        size_t n = count(1);
        s.assign(bytes_.substr(pos_, n));
        pos_ += n;
    }

    void
    code(StatusCode &c)
    {
        code(c, StatusCode::Ok, StatusCode::Internal, "unknown status code");
    }

    void
    code(FrameType &t)
    {
        code(t, FrameType::Init, FrameType::Shutdown, "unknown frame type");
    }

    /** A count, then @p each over as many elements of at least
     *  @p minBytes. */
    template <typename T, typename Each>
    void
    seq(std::vector<T> &v, size_t minBytes, Each each)
    {
        v.resize(count(minBytes));
        for (T &x : v)
            each(x);
    }

    /**
     * A count, then @p key and @p val per entry of at least
     * @p minBytes. The encoder writes maps in order, so a key that
     * does not sort after every earlier one is corrupt.
     */
    template <typename Map, typename Key, typename Val>
    void
    map(Map &m, size_t minBytes, Key key, Val val)
    {
        size_t n = count(minBytes);
        for (size_t i = 0; i < n && ok(); ++i) {
            typename Map::key_type k{};
            key(k);
            if (ok() && !m.empty() && !(std::prev(m.end())->first < k))
                fail("map keys out of order");
            if (!ok())
                return;
            val(m.emplace_hint(m.end(), k, typename Map::mapped_type())
                    ->second);
        }
    }

    /** ADG text, parsed; a parse error names @p field and the line. */
    void
    adg(adg::Adg &g, const char *field)
    {
        std::string t;
        text(t);
        if (!ok())
            return;
        try {
            g = adg::Adg::fromText(t);
        } catch (...) {
            fail(std::string(field) + " holds unparseable ADG text: " +
                 Status::fromCurrentException().message());
        }
    }

    void
    rng(Rng &r)
    {
        std::string state;
        text(state);
        if (ok() && !r.loadState(state))
            fail("state rng stream is malformed");
    }

    /** OK iff every read succeeded and consumed the input exactly. */
    Status
    finish()
    {
        if (ok() && pos_ != bytes_.size())
            fail(std::to_string(bytes_.size() - pos_) + " trailing bytes");
        return err_;
    }

  private:
    template <typename E>
    void
    code(E &v, E first, E last, const char *unknown)
    {
        uint8_t b = 0;
        bits(b, 0xff);
        if (ok() && (b < static_cast<uint8_t>(first) ||
                     b > static_cast<uint8_t>(last)))
            fail(unknown);
        if (ok())
            v = static_cast<E>(b);
    }

    bool
    need(size_t n)
    {
        if (!ok())
            return false;
        if (bytes_.size() - pos_ < n) {
            fail("truncated");
            return false;
        }
        return true;
    }

    uint64_t
    varint()
    {
        uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            if (!need(1))
                return 0;
            auto b = static_cast<uint8_t>(bytes_[pos_++]);
            if (shift == 63 && b > 1)
                break;
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80)) {
                if (b == 0 && shift > 0) {
                    fail("non-minimal varint");
                    return 0;
                }
                return v;
            }
        }
        fail("varint overflows 64 bits");
        return 0;
    }

    std::string_view bytes_;
    size_t pos_ = 0;
    const char *what_;
    Status err_;
};

/*
 * One walk per record, in the field order of the layout in
 * dse/entry_codec.h: a Writer walk encodes the record, a Reader walk
 * fills it in. A walk branches on IO::kDecoding only where the two
 * directions differ in kind, not in order.
 */

/** The record a walk over @p IO visits: const when encoding. */
template <typename IO, typename T>
using Ref = std::conditional_t<IO::kDecoding, T &, const T &>;

template <typename IO, typename V>
void
ints(IO &io, V &v)
{
    io.seq(v, 1, [&io](auto &x) { io.i32(x); });
}

template <typename IO, typename V>
void
texts(IO &io, V &v)
{
    io.seq(v, 1, [&io](auto &s) { io.text(s); });
}

/** A status's message; a decoded status takes @p code with it. */
template <typename IO>
void
message(IO &io, Ref<IO, Status> s, StatusCode code)
{
    if constexpr (IO::kDecoding) {
        std::string m;
        io.text(m);
        s = Status(code, std::move(m));
    } else {
        io.text(s.message());
    }
}

template <typename IO>
void
schedule(IO &io, Ref<IO, mapper::Schedule> s)
{
    auto id = [&io](auto &v) { io.i32(v); };
    auto route = [&io](auto &r) { ints(io, r); };
    // Smallest region: the flag byte and five empty counts.
    io.seq(s.regions, 6, [&](auto &r) {
        io.flag(r.serialized);
        ints(io, r.vertexMap);
        ints(io, r.streamMap);
        ints(io, r.vertexTime);
        io.map(r.routes, 3, [&io](auto &use) {
            io.i32(use.first);
            io.i32(use.second);
        }, route);
        io.map(r.recurrenceRoutes, 2, id, route);
    });
    io.map(s.forwardRoutes, 2, id, route);
    io.i32(s.cost.unplaced);
    io.i32(s.cost.overuse);
    io.i32(s.cost.violations);
    io.i32(s.cost.maxIi);
    io.i32(s.cost.recurrenceLatency);
    io.i32(s.cost.wirelength);
}

template <typename IO>
void
entry(IO &io, Ref<IO, EvalKey> k, Ref<IO, EvalCacheEntry> e)
{
    io.u64(k.structural.hi);
    io.u64(k.structural.lo);
    io.u64(k.labeling);
    io.u64(k.context);
    io.f64(e.objective);
    io.f64(e.perf);
    io.f64(e.cost.areaMm2);
    io.f64(e.cost.powerMw);
    // Smallest task: the flag byte and the cycle count.
    io.seq(e.tasks, 9, [&io](auto &t) {
        uint8_t flags = (t.lowered ? kLowered : 0) | (t.legal ? kLegal : 0);
        io.bits(flags, kLowered | kLegal);
        if constexpr (IO::kDecoding) {
            t.lowered = flags & kLowered;
            t.legal = flags & kLegal;
        }
        io.f64(t.cycles);
        if (t.legal)
            schedule(io, t.sched);
    });
}

/** An entry under its key; decoding allocates the shared entry. */
template <typename IO>
void
record(IO &io, Ref<IO, EvalStoreRecord> rec)
{
    if constexpr (IO::kDecoding) {
        auto e = std::make_shared<EvalCacheEntry>();
        entry(io, rec.key, *e);
        rec.entry = std::move(e);
    } else {
        DSA_ASSERT(rec.entry, "an OK outcome carries its entry");
        entry(io, rec.key, *rec.entry);
    }
}

template <typename IO>
void
cache(IO &io, Ref<IO, ScheduleCache> c)
{
    // Smallest entry: kernel, unroll and the flag byte.
    io.map(c, 3, [&io](auto &version) {
        io.i32(version.first);
        io.i32(version.second);
    }, [&io](auto &e) {
        io.flag(e.hasLegal);
        if (e.hasLegal)
            schedule(io, e.sched);
    });
}

template <typename IO>
void
options(IO &io, Ref<IO, DseOptions> o)
{
    io.i32(o.maxIters);
    io.i32(o.noImproveExit);
    io.i32(o.infeasibleExit);
    io.u64(o.seed);
    io.i32(o.schedIters);
    io.i32(o.initSchedIters);
    io.flag(o.useRepair);
    io.f64(o.areaBudgetMm2);
    io.f64(o.powerBudgetMw);
    // The explorer cannot run a version below unroll 1.
    io.seq(o.unrollFactors, 1,
           [&io](auto &u) { io.i32(u, 1, "unroll factor"); });
    io.i32(o.threads);
    io.i32(o.candidateBatch);
    io.i32(o.schedChains);
    io.text(o.checkpointPath);
    io.i32(o.checkpointEvery);
    io.i64(o.wallBudgetMs);
    io.i64(o.candidateTimeMs);
    io.flag(o.memoize);
    io.flag(o.dedupBatch);
    io.flag(o.checkCostOracle);
    io.flag(o.pareto);
    io.i32(o.paretoFrontSize);
    io.flag(o.structuredMoves);
    io.f64(o.powerObjectiveWeight);
    io.i32(o.workers);
    io.text(o.cacheStoreDir);
    io.i64(o.workerRequestTimeoutMs);
}

template <typename IO>
void
result(IO &io, Ref<IO, DseResult> r)
{
    io.adg(r.best, "result best");
    io.f64(r.bestObjective);
    io.f64(r.bestPerf);
    io.f64(r.bestCost.areaMm2);
    io.f64(r.bestCost.powerMw);
    io.f64(r.initialObjective);
    io.f64(r.initialCost.areaMm2);
    io.f64(r.initialCost.powerMw);
    // Smallest record: the iteration, five doubles and the flag.
    io.seq(r.history, 42, [&io](auto &h) {
        io.i32(h.iter);
        io.f64(h.areaMm2);
        io.f64(h.powerMw);
        io.f64(h.perf);
        io.f64(h.objective);
        io.flag(h.accepted);
        io.f64(h.hypervolume);
    });
    io.i32(r.evalFailures);
    io.i32(r.checkpointsWritten);
    io.text(r.stopReason);
    StatusCode code = r.status.code();
    io.code(code);
    message(io, r.status, code);
}

template <typename IO>
void
front(IO &io, Ref<IO, ParetoFront> f)
{
    double refArea = f.refAreaMm2();
    double refPower = f.refPowerMw();
    int32_t maxSize = f.maxSize();
    io.f64(refArea);
    io.f64(refPower);
    io.i32(maxSize);
    // Smallest point: empty text, four doubles, iteration, seq.
    auto point = [&io](auto &p) {
        io.adg(p.adg, "pareto point");
        io.f64(p.perf);
        io.f64(p.areaMm2);
        io.f64(p.powerMw);
        io.f64(p.objective);
        io.i32(p.iter);
        io.u64(p.seq);
    };
    if constexpr (IO::kDecoding) {
        std::vector<ParetoPoint> points;
        io.seq(points, 42, point);
        // What the ParetoFront constructor asserts.
        if (io.ok() && !(refArea > 0 && refPower > 0 && maxSize >= 2))
            io.fail("pareto front header is malformed");
        if (io.ok())
            f = ParetoFront::restore(refArea, refPower, maxSize,
                                     std::move(points));
    } else {
        io.seq(f.points(), 42, point);
    }
}

template <typename IO>
void
checkpoint(IO &io, Ref<IO, std::vector<std::string>> workloadNames,
           Ref<IO, DseOptions> o, Ref<IO, DseRunState> st)
{
    texts(io, workloadNames);
    options(io, o);
    io.adg(st.current, "state current");
    io.f64(st.curObj);
    io.i32(st.iter);
    io.i32(st.noImprove);
    io.i32(st.infeasibleStreak);
    io.i32(st.acceptedSinceCkpt);
    io.rng(st.rng);
    cache(io, st.schedules);
    result(io, st.result);
    if (o.pareto)
        front(io, st.front);
}

template <typename IO>
void
frame(IO &io, Ref<IO, WorkerFrame> f)
{
    io.code(f.type);
    switch (f.type) {
    case FrameType::Init:
        texts(io, f.workloads);
        options(io, f.options);
        break;
    case FrameType::Error:
        io.text(f.message);
        break;
    case FrameType::Eval:
        io.u64(f.id);
        io.flag(f.repair);
        cache(io, f.schedules);
        texts(io, f.cands);
        break;
    case FrameType::Result:
        io.u64(f.id);
        // Smallest outcome: an error code and an empty message.
        io.seq(f.outcomes, 2, [&io](auto &o) {
            StatusCode code = o.status.code();
            io.code(code);
            if (code == StatusCode::Ok)
                record(io, o.record);
            else
                message(io, o.status, code);
        });
        break;
    default: // ready, shutdown: the type byte alone
        break;
    }
}

/** The bytes of @p walk over @p values. */
template <typename Walk, typename... T>
std::string
encode(Walk walk, const T &...values)
{
    Writer w;
    walk(w, values...);
    return w.take();
}

/** A @p T filled in by @p walk from all of @p bytes, or DataLoss
 *  naming @p what. */
template <typename T, typename Walk>
Result<T>
decode(std::string_view bytes, const char *what, Walk walk)
{
    Reader rd(bytes, what);
    T value;
    walk(rd, value);
    Status s = rd.finish();
    if (!s.ok())
        return s;
    return value;
}

} // namespace

std::string
encodeEvalEntry(const EvalKey &k, const EvalCacheEntry &e)
{
    return encode(entry<Writer>, k, e);
}

Result<EvalStoreRecord>
decodeEvalEntry(std::string_view bytes)
{
    return decode<EvalStoreRecord>(bytes, "eval entry", record<Reader>);
}

std::string
encodeScheduleCache(const ScheduleCache &c)
{
    return encode(cache<Writer>, c);
}

Result<ScheduleCache>
decodeScheduleCache(std::string_view bytes)
{
    return decode<ScheduleCache>(bytes, "schedule cache", cache<Reader>);
}

std::string
encodeFrame(const WorkerFrame &f)
{
    return encode(frame<Writer>, f);
}

Result<WorkerFrame>
decodeFrame(std::string_view bytes)
{
    return decode<WorkerFrame>(bytes, "worker frame", frame<Reader>);
}

std::string
encodeCheckpoint(const std::vector<std::string> &workloadNames,
                 const DseOptions &opts, const DseRunState &state)
{
    return encode(checkpoint<Writer>, workloadNames, opts, state);
}

Result<DseCheckpoint>
decodeCheckpoint(std::string_view bytes)
{
    return decode<DseCheckpoint>(
        bytes, "record", [](Reader &rd, DseCheckpoint &ck) {
            checkpoint(rd, ck.workloadNames, ck.options, ck.state);
        });
}

} // namespace dsa::dse
