#include "dse/entry_codec.h"

#include <bit>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace dsa::dse {

namespace {

constexpr uint8_t kLowered = 1;
constexpr uint8_t kLegal = 2;

class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        out_.push_back(static_cast<char>(v));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<char>(v >> (8 * i)));
    }

    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void
    count(uint64_t v)
    {
        for (; v >= 0x80; v >>= 7)
            out_.push_back(static_cast<char>(v | 0x80));
        out_.push_back(static_cast<char>(v));
    }

    void
    i32(int32_t v)
    {
        int64_t w = v;
        count((static_cast<uint64_t>(w) << 1) ^
              static_cast<uint64_t>(w >> 63));
    }

    void
    ints(const std::vector<int32_t> &v)
    {
        count(v.size());
        for (int32_t x : v)
            i32(x);
    }

    void
    key(const EvalKey &k)
    {
        u64(k.structural.hi);
        u64(k.structural.lo);
        u64(k.labeling);
        u64(k.context);
    }

    void
    schedule(const mapper::Schedule &s)
    {
        count(s.regions.size());
        for (const mapper::RegionSchedule &r : s.regions) {
            u8(r.serialized ? 1 : 0);
            ints(r.vertexMap);
            ints(r.streamMap);
            ints(r.vertexTime);
            count(r.routes.size());
            for (const auto &[use, route] : r.routes) {
                i32(use.first);
                i32(use.second);
                ints(route);
            }
            count(r.recurrenceRoutes.size());
            for (const auto &[sid, route] : r.recurrenceRoutes) {
                i32(sid);
                ints(route);
            }
        }
        count(s.forwardRoutes.size());
        for (const auto &[fi, route] : s.forwardRoutes) {
            i32(fi);
            ints(route);
        }
        for (int v : {s.cost.unplaced, s.cost.overuse, s.cost.violations,
                      s.cost.maxIi, s.cost.recurrenceLatency,
                      s.cost.wirelength})
            i32(v);
    }

    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/** Checked reader: the first error wins, later reads return zeros. */
class Reader
{
  public:
    Reader(std::string_view bytes, const char *what)
        : bytes_(bytes), what_(what)
    {
    }

    bool ok() const { return err_.ok(); }

    /** One byte that may only set bits of @p mask. */
    uint8_t
    u8(uint8_t mask)
    {
        if (!need(1))
            return 0;
        auto v = static_cast<uint8_t>(bytes_[pos_]);
        if (v & ~mask) {
            fail("flag byte " + std::to_string(v) + " sets undefined bits");
            return 0;
        }
        ++pos_;
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
                 << (8 * i);
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

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

    int32_t
    i32()
    {
        uint64_t z = varint();
        int64_t v = static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
        if (v < INT32_MIN || v > INT32_MAX) {
            fail("id " + std::to_string(v) + " does not fit 32 bits");
            return 0;
        }
        return static_cast<int32_t>(v);
    }

    void
    ints(std::vector<int32_t> &out)
    {
        out.resize(count(1));
        for (int32_t &x : out)
            x = i32();
    }

    EvalKey
    key()
    {
        EvalKey k;
        k.structural.hi = u64();
        k.structural.lo = u64();
        k.labeling = u64();
        k.context = u64();
        return k;
    }

    mapper::Schedule
    schedule()
    {
        mapper::Schedule s;
        // Smallest region: the flag byte and five empty counts.
        s.regions.resize(count(6));
        for (mapper::RegionSchedule &r : s.regions) {
            r.serialized = u8(1) != 0;
            ints(r.vertexMap);
            ints(r.streamMap);
            ints(r.vertexTime);
            size_t nRoutes = count(3);
            for (size_t i = 0; i < nRoutes && ok(); ++i) {
                int32_t vertex = i32();
                int32_t operand = i32();
                auto *route = slot(r.routes, std::make_pair(vertex, operand));
                if (route)
                    ints(*route);
            }
            size_t nRec = count(2);
            for (size_t i = 0; i < nRec && ok(); ++i)
                if (auto *route = slot(r.recurrenceRoutes, i32()))
                    ints(*route);
        }
        size_t nFwd = count(2);
        for (size_t i = 0; i < nFwd && ok(); ++i)
            if (auto *route = slot(s.forwardRoutes, i32()))
                ints(*route);
        s.cost.unplaced = i32();
        s.cost.overuse = i32();
        s.cost.violations = i32();
        s.cost.maxIi = i32();
        s.cost.recurrenceLatency = i32();
        s.cost.wirelength = i32();
        return s;
    }

    /**
     * The value slot for @p key, appended at the end of @p map, or
     * null (and an error) unless @p key sorts after every key there:
     * the encoder writes maps in order, so anything else is corrupt.
     */
    template <typename Map>
    typename Map::mapped_type *
    slot(Map &map, const typename Map::key_type &key)
    {
        if (!ok())
            return nullptr;
        if (!map.empty() && !(std::prev(map.end())->first < key)) {
            fail("map keys out of order");
            return nullptr;
        }
        return &map.emplace_hint(map.end(), key, typename Map::mapped_type())
                    ->second;
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
    bool
    need(size_t n)
    {
        if (!ok())
            return false;
        if (bytes_.size() - pos_ < n)
            return fail("truncated");
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

    bool
    fail(const std::string &why)
    {
        if (ok())
            err_ = Status::dataLoss(std::string(what_) + ": " + why +
                                    " at byte " + std::to_string(pos_) +
                                    " of " + std::to_string(bytes_.size()));
        return false;
    }

    std::string_view bytes_;
    size_t pos_ = 0;
    const char *what_;
    Status err_;
};

} // namespace

std::string
encodeEvalEntry(const EvalKey &key, const EvalCacheEntry &entry)
{
    Writer w;
    w.key(key);
    w.f64(entry.objective);
    w.f64(entry.perf);
    w.f64(entry.cost.areaMm2);
    w.f64(entry.cost.powerMw);
    w.count(entry.tasks.size());
    for (const EvalTaskOutcome &t : entry.tasks) {
        w.u8((t.lowered ? kLowered : 0) | (t.legal ? kLegal : 0));
        w.f64(t.cycles);
        if (t.legal)
            w.schedule(t.sched);
    }
    return w.take();
}

Result<EvalStoreRecord>
decodeEvalEntry(std::string_view bytes)
{
    Reader rd(bytes, "eval entry");
    EvalStoreRecord rec;
    rec.key = rd.key();
    auto entry = std::make_shared<EvalCacheEntry>();
    entry->objective = rd.f64();
    entry->perf = rd.f64();
    entry->cost.areaMm2 = rd.f64();
    entry->cost.powerMw = rd.f64();
    // Smallest task: the flag byte and the cycle count.
    entry->tasks.resize(rd.count(9));
    for (EvalTaskOutcome &t : entry->tasks) {
        uint8_t flags = rd.u8(kLowered | kLegal);
        t.lowered = flags & kLowered;
        t.legal = flags & kLegal;
        t.cycles = rd.f64();
        if (t.legal)
            t.sched = rd.schedule();
    }
    Status s = rd.finish();
    if (!s.ok())
        return s;
    rec.entry = std::move(entry);
    return rec;
}

std::string
encodeScheduleCache(const ScheduleCache &cache)
{
    Writer w;
    w.count(cache.size());
    for (const auto &[version, entry] : cache) {
        w.i32(version.first);
        w.i32(version.second);
        w.u8(entry.hasLegal ? 1 : 0);
        if (entry.hasLegal)
            w.schedule(entry.sched);
    }
    return w.take();
}

Result<ScheduleCache>
decodeScheduleCache(std::string_view bytes)
{
    Reader rd(bytes, "schedule cache");
    ScheduleCache cache;
    // Smallest entry: kernel, unroll and the flag byte.
    size_t n = rd.count(3);
    for (size_t i = 0; i < n && rd.ok(); ++i) {
        int32_t kernel = rd.i32();
        int32_t unroll = rd.i32();
        ScheduleCacheEntry *entry =
            rd.slot(cache, std::make_pair(kernel, unroll));
        if (!entry)
            break;
        entry->hasLegal = rd.u8(1) != 0;
        if (entry->hasLegal)
            entry->sched = rd.schedule();
    }
    Status s = rd.finish();
    if (!s.ok())
        return s;
    return cache;
}

} // namespace dsa::dse
