/**
 * @file
 * Internal simulation state shared by the simulator core
 * (simulator.cc) and the compiled steady-state tier (compute_plan.cc).
 * Everything here is an implementation detail — the public API stays
 * in simulator.h.
 *
 * The hot containers are preallocated ring buffers carved out of a
 * SimArena: a routed-path Pipe is a fixed-capacity (time, value) ring
 * and an input port's element buffer is a fixed-capacity value ring,
 * so the steady-state loops never touch the allocator and never pay
 * deque chunk arithmetic.
 */

#ifndef DSA_SIM_MACHINE_STATE_H
#define DSA_SIM_MACHINE_STATE_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "adg/adg.h"
#include "base/logging.h"
#include "dfg/program.h"
#include "isa/opcode.h"
#include "mapper/schedule.h"
#include "sim/memory_image.h"
#include "sim/simulator.h"

namespace dsa::sim {

/**
 * Bump allocator backing one machine's ring buffers and compute-plan
 * micro-op arrays, freed wholesale with the machine.
 */
class SimArena
{
  public:
    /** Uninitialized storage for @p n objects of type T. */
    template <typename T>
    T *
    allocArray(size_t n)
    {
        if (n == 0)
            return nullptr;
        return static_cast<T *>(alloc(n * sizeof(T), alignof(T)));
    }

    void *
    alloc(size_t bytes, size_t align)
    {
        for (; cur_ < chunks_.size(); ++cur_) {
            Chunk &c = chunks_[cur_];
            size_t used = (c.used + align - 1) & ~(align - 1);
            if (used + bytes <= c.size) {
                c.used = used + bytes;
                return c.data.get() + used;
            }
        }
        // Fresh chunk: new[] storage is max_align_t-aligned, which
        // covers every type allocated here.
        size_t size = std::max<size_t>(bytes + align, kMinChunk);
        chunks_.push_back(
            {std::unique_ptr<char[]>(new char[size]), size, 0});
        cur_ = chunks_.size() - 1;
        Chunk &c = chunks_.back();
        c.used = bytes;
        return c.data.get();
    }

  private:
    static constexpr size_t kMinChunk = 1 << 16;

    struct Chunk
    {
        std::unique_ptr<char[]> data;
        size_t size = 0;
        size_t used = 0;
    };

    std::vector<Chunk> chunks_;
    size_t cur_ = 0;
};

namespace detail {

/** Round up to a power of two (>= 1). */
inline uint32_t
roundUpPow2(uint32_t v)
{
    uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/**
 * A fixed-latency, bounded, in-order value pipe (a routed path),
 * backed by an arena-allocated power-of-two ring.
 */
struct Pipe
{
    int64_t *times = nullptr;  ///< arrival cycle per slot
    Value *vals = nullptr;
    uint32_t head = 0;
    uint32_t count = 0;
    uint32_t mask = 0;  ///< ring size - 1
    int latency = 1;
    int capacity = 8;  ///< logical bound (<= ring size)

    void
    allocate(SimArena &arena)
    {
        uint32_t ring = roundUpPow2(static_cast<uint32_t>(capacity));
        mask = ring - 1;
        times = arena.allocArray<int64_t>(ring);
        vals = arena.allocArray<Value>(ring);
    }

    bool canPush() const
    {
        return count < static_cast<uint32_t>(capacity);
    }
    void
    push(int64_t now, Value v)
    {
        uint32_t tail = (head + count) & mask;
        times[tail] = now + latency;
        vals[tail] = v;
        ++count;
    }
    bool ready(int64_t now) const
    {
        return count != 0 && times[head] <= now;
    }
    bool empty() const { return count == 0; }
    int64_t frontTime() const { return times[head]; }
    Value front() const { return vals[head]; }
    void
    pop()
    {
        head = (head + 1) & mask;
        --count;
    }
    void
    clear()
    {
        head = 0;
        count = 0;
    }
};

struct StreamExec;
struct PortSim;

/**
 * A persistent forwarded-scalar channel. The queue survives the
 * consumer's per-issue port resets; a machine-level non-empty counter
 * lets the per-cycle pump skip the forward scan entirely while every
 * channel is drained (the common state).
 */
struct FwdQueue
{
    std::deque<Value> q;
    int *nonEmptyCount = nullptr;

    void
    push(Value v)
    {
        if (q.empty() && nonEmptyCount)
            ++*nonEmptyCount;
        q.push_back(v);
    }

    void
    pop()
    {
        q.pop_front();
        if (q.empty() && nonEmptyCount)
            --*nonEmptyCount;
    }

    Value front() const { return q.front(); }
    bool empty() const { return q.empty(); }
};

/** Where an output port's elements go. */
struct OutSink
{
    enum class Kind { Write, Recurrence, Forward };
    Kind kind = Kind::Write;
    int64_t skip = 0;     ///< skip this many elements first
    int64_t take = -1;    ///< then take this many (-1 = all)
    int64_t seen = 0;
    int64_t taken = 0;
    StreamExec *write = nullptr;  ///< Write sink
    PortSim *target = nullptr;    ///< Recurrence sink
    /**
     * Forward sink: values land in a persistent machine-level queue
     * (surviving the consumer's per-issue port resets) and are moved
     * into the consumer's port as it runs.
     */
    FwdQueue *fwdQueue = nullptr;

    bool wants() const { return seen >= skip && (take < 0 || taken < take); }
};

/** Input port (sync element) simulation state. */
struct PortSim
{
    int lanes = 1;
    int64_t reuse = 1;
    int capacity = 64;
    /** Buffered elements: arena-allocated power-of-two ring. */
    Value *buf = nullptr;
    uint32_t bufHead = 0;
    uint32_t bufCount = 0;
    uint32_t bufMask = 0;
    /** Currently-latched vector (lanes entries, arena). */
    Value *current = nullptr;
    int64_t reuseLeft = 0;
    std::vector<std::vector<Pipe *>> lanePipes;
    int64_t minPopInterval = 0;
    int64_t lastPop = -1'000'000;
    int64_t pops = 0;

    void
    allocate(SimArena &arena)
    {
        uint32_t ring = roundUpPow2(static_cast<uint32_t>(capacity));
        bufMask = ring - 1;
        buf = arena.allocArray<Value>(ring);
        current = arena.allocArray<Value>(static_cast<size_t>(lanes));
    }

    int bufSize() const { return static_cast<int>(bufCount); }

    bool
    roomFor(int n) const
    {
        return static_cast<int>(bufCount) + n <= capacity;
    }

    void
    deliver(Value v)
    {
        buf[(bufHead + bufCount) & bufMask] = v;
        ++bufCount;
    }

    bool
    tryFire(int64_t now)
    {
        if (reuseLeft == 0) {
            if (static_cast<int>(bufCount) < lanes)
                return false;
            for (int l = 0; l < lanes; ++l)
                current[l] = buf[(bufHead + static_cast<uint32_t>(l)) &
                                 bufMask];
            bufHead = (bufHead + static_cast<uint32_t>(lanes)) & bufMask;
            bufCount -= static_cast<uint32_t>(lanes);
            reuseLeft = std::max<int64_t>(1, reuse);
        }
        if (now - lastPop < minPopInterval)
            return false;
        for (int l = 0; l < lanes; ++l)
            for (Pipe *p : lanePipes[static_cast<size_t>(l)])
                if (!p->canPush())
                    return false;
        for (int l = 0; l < lanes; ++l)
            for (Pipe *p : lanePipes[static_cast<size_t>(l)])
                p->push(now, current[l]);
        --reuseLeft;
        lastPop = now;
        ++pops;
        return true;
    }

    void
    resetForIssue()
    {
        bufHead = 0;
        bufCount = 0;
        reuseLeft = 0;
    }
};

/** Output port simulation state. */
struct OutPortSim
{
    int lanes = 1;
    int64_t outputEvery = 1;
    std::vector<Pipe *> lanePipes;
    std::vector<OutSink> sinks;
    int64_t fires = 0;
    std::vector<Value> lastVec;
    bool lastValid = false;
    /** Source is an accumulator: its init value stands in when the
     *  issue produced no elements (zero-trip reductions). */
    bool hasFallback = false;
    Value fallbackInit = 0;
    /** Reused fire scratch (avoids a per-fire allocation). */
    std::vector<Value> scratch;

    bool
    sinksAccept(int n) const
    {
        for (const OutSink &s : sinks) {
            if (!s.wants())
                continue;
            // Writes are checked via their own buffer capacity and
            // forwards buffer in an unbounded queue.
            if (s.kind == OutSink::Kind::Recurrence && s.target &&
                !s.target->roomFor(n))
                return false;
        }
        return true;
    }

    /** Write-sink buffer room for one vector (pre-fire gate). */
    bool writeSinksRoom() const;

    void deliverElement(Value v);

    bool tryFire(int64_t now);

    void
    resetForIssue()
    {
        fires = 0;
        lastVec.clear();
        lastValid = false;
        for (OutSink &s : sinks) {
            s.seen = 0;
            s.taken = 0;
        }
    }
};

/**
 * Power-of-two ring of Values with exposed storage. Replaces the
 * std::deque write buffer so the jit tier can bind (data, head,
 * count, mask) directly into a generated kernel; the interpreted
 * paths use the deque-shaped methods below. Growth re-linearizes
 * into a fresh buffer (order preserved) — never mid-kernel: callers
 * that hand the ring to native code reserve() the worst case first.
 */
struct ValueRing
{
    Value *data = nullptr;
    uint32_t head = 0;
    uint32_t count = 0;
    uint32_t mask = 0; ///< capacity - 1 (capacity is a power of two)
    std::vector<Value> store;

    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    Value &operator[](size_t i) { return data[(head + i) & mask]; }
    const Value &
    operator[](size_t i) const
    {
        return data[(head + i) & mask];
    }
    Value &front() { return data[head]; }
    const Value &front() const { return data[head]; }

    void
    push_back(Value v)
    {
        if (!data || count > mask)
            grow(data ? 2 * (mask + 1) : 64);
        data[(head + count) & mask] = v;
        ++count;
    }

    void
    pop_front()
    {
        head = (head + 1) & mask;
        --count;
    }

    /** Drop the first @p n values (deque erase(begin, begin + n)). */
    void
    erase_front(size_t n)
    {
        head = (head + static_cast<uint32_t>(n)) & mask;
        count -= static_cast<uint32_t>(n);
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Guarantee room for @p cap values without any future grow(). */
    void
    reserve(uint32_t cap)
    {
        if (cap > 0 && (!data || mask + 1 < cap))
            grow(detail_roundUp(cap));
    }

  private:
    static uint32_t
    detail_roundUp(uint32_t v)
    {
        uint32_t c = 64;
        while (c < v)
            c *= 2;
        return c;
    }

    void
    grow(uint32_t cap)
    {
        std::vector<Value> next(cap);
        for (uint32_t i = 0; i < count; ++i)
            next[i] = data[(head + i) & mask];
        store = std::move(next);
        data = store.data();
        head = 0;
        mask = cap - 1;
    }
};

/** One stream's execution state for the current issue. */
struct StreamExec
{
    const dfg::Stream *st = nullptr;
    int regionIdx = -1;
    // Pregenerated per-issue address (or value) sequences.
    std::vector<int64_t> addrs;
    std::vector<int64_t> idxAddrs;
    size_t pos = 0;
    PortSim *target = nullptr;       // reads
    ValueRing writeBuf;              // writes/atomics: values from port
    int writeBufCap = 32;
    int64_t nextReady = 0;           // scalar-fallback throttle
    bool openDone = false;           // open-ended write finished
    /** Index space, resolved once at build (indirect kinds only). */
    AddressSpace *idxSpace = nullptr;

    bool
    readsDone() const
    {
        return pos >= addrs.size();
    }

    bool
    done() const
    {
        switch (st->kind) {
          case dfg::StreamKind::LinearWrite:
          case dfg::StreamKind::IndirectWrite:
          case dfg::StreamKind::AtomicUpdate:
            return (pos >= addrs.size() && writeBuf.empty()) ||
                   (st->openEnded && openDone && writeBuf.empty());
          default:
            return readsDone();
        }
    }
};

/** Instruction simulation state. */
struct InstSim
{
    const dfg::Vertex *vx = nullptr;
    std::vector<Pipe *> inPipes;  // null for immediates
    std::vector<Value> imms;
    std::vector<Pipe *> outPipes;
    Value acc = 0;
    int64_t fires = 0;
    int64_t lastFire = -1'000'000;
    adg::NodeId pe = adg::kInvalidNode;
    /** PE is temporally shared (resolved at build; saves a node lookup
     *  on every fire attempt). */
    bool sharedPe = false;

    bool
    operandsReady(int64_t now) const
    {
        for (size_t i = 0; i < inPipes.size(); ++i)
            if (inPipes[i] && !inPipes[i]->ready(now))
                return false;
        return true;
    }

    Value
    operandValue(size_t i) const
    {
        return inPipes[i] ? inPipes[i]->front() : imms[i];
    }
};

inline bool
OutPortSim::writeSinksRoom() const
{
    for (const OutSink &s : sinks) {
        if (s.kind == OutSink::Kind::Write && s.wants() &&
            static_cast<int>(s.write->writeBuf.size()) + lanes >
                s.write->writeBufCap)
            return false;
    }
    return true;
}

inline void
OutPortSim::deliverElement(Value v)
{
    for (OutSink &s : sinks) {
        bool want = s.wants();
        ++s.seen;
        if (!want)
            continue;
        ++s.taken;
        if (s.kind == OutSink::Kind::Write) {
            s.write->writeBuf.push_back(v);
        } else if (s.kind == OutSink::Kind::Forward) {
            s.fwdQueue->push(v);
        } else {
            s.target->deliver(v);
        }
    }
}

inline bool
OutPortSim::tryFire(int64_t now)
{
    for (Pipe *p : lanePipes)
        if (!p->ready(now))
            return false;
    bool keep = outputEvery > 0 ? ((fires + 1) % outputEvery == 0)
                                : false;
    if (keep || outputEvery == -1) {
        if (!writeSinksRoom())
            return false;
        if (keep && !sinksAccept(lanes))
            return false;
    }
    scratch.clear();
    for (Pipe *p : lanePipes) {
        scratch.push_back(p->front());
        p->pop();
    }
    ++fires;
    if (outputEvery == -1) {
        lastVec = scratch;
        lastValid = true;
    } else if (keep) {
        for (Value v : scratch)
            deliverElement(v);
    }
    return true;
}

/** Region issue/lifecycle state. */
enum class RegionState {
    WaitDep,      ///< waiting on via-memory producer regions
    WaitCmd,      ///< control core issuing stream commands
    Running,
    Finalizing,   ///< last-value delivery + write drain
    DoneIssue,
    Complete
};

inline const char *
regionStateName(RegionState st)
{
    switch (st) {
      case RegionState::WaitDep: return "wait-dep";
      case RegionState::WaitCmd: return "wait-cmd";
      case RegionState::Running: return "running";
      case RegionState::Finalizing: return "finalizing";
      case RegionState::DoneIssue: return "done-issue";
      case RegionState::Complete: return "complete";
    }
    return "?";
}

struct RegionSim
{
    const dfg::Region *reg = nullptr;
    int idx = -1;
    RegionState state = RegionState::WaitCmd;
    int64_t stateUntil = 0;
    // Re-issue enumeration over outer loops (outermost first).
    std::vector<int64_t> outerIdx;
    int64_t lastActivity = 0;
    int quiesceWindow = 16;
    int64_t endCycle = 0;

    std::vector<PortSim> inPorts;      // by vertex id (sparse)
    std::vector<OutPortSim> outPorts;  // by vertex id (sparse)
    std::vector<InstSim> insts;
    std::vector<std::unique_ptr<Pipe>> pipes;
    std::vector<StreamExec> streams;   // by stream id
    std::vector<int> waitOnRegions;    // region-level dependences
    int64_t completedIssues = 0;

    /// @name Build-time hot-loop caches (contents never change after
    /// Machine::build; both the dense oracle and the sparse fast path
    /// iterate these instead of re-filtering per cycle)
    /// @{
    std::vector<int> realInPorts;      ///< vertex ids with lane pipes
    std::vector<int> realOutPorts;     ///< vertex ids with lane pipes
    std::vector<int> genStreams;       ///< Const/Iota stream ids
    std::vector<int> fallbackStreams;  ///< scalar-fallback stream ids
    std::vector<int> throttledPorts;   ///< in-port ids, minPopInterval>0
    /** (instruction index, op latency) of accumulate instructions —
     *  the only instructions whose firing is gated on a future time. */
    std::vector<std::pair<int, int>> accInsts;
    /// @}

    bool
    allReadsDone() const
    {
        for (const StreamExec &se : streams) {
            const dfg::Stream &st = *se.st;
            if (st.kind == dfg::StreamKind::LinearRead ||
                st.kind == dfg::StreamKind::IndirectRead ||
                st.kind == dfg::StreamKind::Const ||
                st.kind == dfg::StreamKind::Iota) {
                if (!se.readsDone())
                    return false;
            }
        }
        return true;
    }

    bool
    allWritesDone() const
    {
        for (const StreamExec &se : streams) {
            const dfg::Stream &st = *se.st;
            if (st.kind == dfg::StreamKind::LinearWrite ||
                st.kind == dfg::StreamKind::IndirectWrite ||
                st.kind == dfg::StreamKind::AtomicUpdate) {
                if (!se.done())
                    return false;
            }
        }
        return true;
    }
};

/**
 * The generic (interpreted) instruction fire attempt — the semantic
 * reference every compiled micro-op kind must match bit-exactly. Used
 * by the dense/sparse tick path and by compiled-plan steps that stay
 * on the generic path (stream-join control).
 */
inline void
genericFire(RegionSim &rs, InstSim &is, int64_t now, bool &activity,
            int64_t *peFiredCycle)
{
    const dfg::Vertex &vx = *is.vx;
    if (!is.operandsReady(now))
        return;
    // Accumulators feed their own register back: the next firing must
    // wait for the op's latency (limits FP-accumulate chains to II=L).
    if (vx.isAccumulate() &&
        now - is.lastFire < opInfo(vx.op).latency)
        return;
    for (Pipe *p : is.outPipes)
        if (!p->canPush())
            return;

    // Shared-PE arbitration: one fire per shared PE per cycle. The
    // stamp array is epoch-keyed by cycle, so there is no per-cycle
    // clearing (and no map lookup).
    if (is.sharedPe) {
        int64_t &stamp = peFiredCycle[static_cast<size_t>(is.pe)];
        if (stamp == now)
            return;
        stamp = now;
    }

    is.lastFire = now;
    Value result;
    bool emit = true;
    if (vx.ctrl.active()) {
        // Stream-join control.
        Value a = is.operandValue(0);
        Value b = vx.operands.size() > 1 ? is.operandValue(1) : 0;
        Value cval = vx.operands.size() > 2 ? is.operandValue(2) : 0;
        // Natural-arity computation (extra ctrl operand excluded).
        int arity = opInfo(vx.op).numOperands;
        result = evalOp(vx.op, a, arity >= 2 ? b : 0,
                        arity >= 3 ? cval : 0,
                        vx.isAccumulate() ? &is.acc : nullptr);
        int ctl;
        if (vx.ctrl.source == dfg::CtrlSpec::Source::Self) {
            ctl = static_cast<int>(result & 7);
        } else {
            ctl = static_cast<int>(
                is.operandValue(
                    static_cast<size_t>(vx.ctrl.ctrlOperand)) & 7);
        }
        emit = vx.ctrl.emits(ctl);
        for (size_t i = 0; i < is.inPipes.size(); ++i) {
            if (!is.inPipes[i])
                continue;
            if (vx.ctrl.pops(static_cast<int>(i), ctl))
                is.inPipes[i]->pop();
        }
    } else if (vx.selfAcc) {
        Value v = is.operandValue(0);
        is.acc = evalOp(vx.op, is.acc, v, 0, nullptr);
        result = is.acc;
        for (Pipe *p : is.inPipes)
            if (p)
                p->pop();
        ++is.fires;
        if (vx.accResetEvery > 0 && is.fires % vx.accResetEvery == 0) {
            // Reset after this result was produced.
            for (Pipe *out : is.outPipes)
                out->push(now, result);
            is.acc = vx.accInit;
            rs.lastActivity = now;
            activity = true;
            return;
        }
        for (Pipe *out : is.outPipes)
            out->push(now, result);
        rs.lastActivity = now;
        activity = true;
        return;
    } else {
        Value a = is.operandValue(0);
        Value b = vx.operands.size() > 1 ? is.operandValue(1) : 0;
        Value cc = vx.operands.size() > 2 ? is.operandValue(2) : 0;
        result = evalOp(vx.op, a, b, cc,
                        vx.isAccumulate() ? &is.acc : nullptr);
        for (Pipe *p : is.inPipes)
            if (p)
                p->pop();
    }
    ++is.fires;
    if (emit)
        for (Pipe *out : is.outPipes)
            out->push(now, result);
    rs.lastActivity = now;
    activity = true;
}

} // namespace detail

} // namespace dsa::sim

#endif // DSA_SIM_MACHINE_STATE_H
