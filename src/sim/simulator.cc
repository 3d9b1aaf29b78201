#include "sim/simulator.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <unordered_map>

#include "base/logging.h"
#include "base/strings.h"
#include "sim/compute_plan.h"
#include "sim/jit/jit_emit.h"
#include "sim/jit/jit_runtime.h"
#include "sim/machine_state.h"

namespace dsa::sim {

using adg::Adg;
using adg::NodeId;
using adg::NodeKind;
using adg::Sharing;
using dfg::LinearPattern;
using dfg::Region;
using dfg::Stream;
using dfg::StreamKind;
using dfg::Vertex;
using dfg::VertexId;
using dfg::VertexKind;

using detail::FwdQueue;
using detail::InstSim;
using detail::OutPortSim;
using detail::OutSink;
using detail::Pipe;
using detail::PortSim;
using detail::RegionPlan;
using detail::RegionSim;
using detail::RegionState;
using detail::StreamExec;
using detail::regionStateName;

namespace {

/** Expand a pattern with reissue adjustments applied. */
std::vector<int64_t>
expandPattern(const LinearPattern &base, int64_t baseShift,
              int64_t lenShift)
{
    LinearPattern p = base;
    p.baseBytes += baseShift;
    p.len1 += lenShift;
    return p.expandAddrs();
}

/** The whole-machine simulation. */
class Machine
{
  public:
    Machine(const dfg::DecoupledProgram &prog, const mapper::Schedule &sched,
            const Adg &adg, MemImage &mem, const SimOptions &opts)
        : prog_(prog), sched_(sched), adg_(adg), mem_(mem), opts_(opts)
    {
        build();
    }

    SimResult run();

  private:
    void build();
    void buildRegion(int r);
    void startIssue(RegionSim &rs, int64_t now,
                    const std::map<int, int64_t> *ivsOverride = nullptr);
    void finalizeIssue(RegionSim &rs, int64_t now);
    bool advanceIssue(RegionSim &rs);
    void tickStreams(int64_t now, bool &activity);
    void tickRegion(RegionSim &rs, int64_t now, bool &activity);
    /** Running-state region tick through the compiled compute plan
     *  (bit-exact with tickRegion, minus the interpretive dispatch). */
    void tickCompiled(RegionSim &rs, int64_t now, bool &activity);
    /** Quiesce / drain phase transitions shared by the interpreted
     *  and compiled region ticks. */
    void regionPhaseTail(RegionSim &rs, int64_t now);
    /** Phase-script / configuration-group controller; true when any
     *  controller state (script cursor, active group) moved. */
    bool tickSequencer(int64_t now);
    /** Move forwarded scalars into starving consumer ports. */
    void pumpForwards(int64_t now, bool &activity);
    /** Whole program retired? */
    bool allDone() const;

    /** The original dense time-stepped loop (the oracle). */
    SimResult runDense();
    /** Event-driven loop: active-set ticking + idle-cycle skipping. */
    SimResult runSparse();
    /**
     * Earliest future cycle (> @p now) at which anything *time-gated*
     * can change: command-issue/reconfiguration deadlines, routed-path
     * arrivals, pop-interval and accumulate-latency throttles,
     * scalar-fallback stream throttles, quiesce/drain windows. Every
     * other transition is driven by same-cycle activity, so a cycle
     * with no progress and no event before this time stays idle.
     * INT64_MAX when nothing is pending (a true deadlock).
     */
    int64_t nextEventTime(int64_t now) const;
    /**
     * Latest cycle (exclusive) the compiled steady window may run to:
     * the earliest wake-up of any waiting-for-command region in the
     * active configuration group. Within the window no skipped
     * controller or wait-state tick could have acted, so eliding them
     * is provably bit-exact. Valid immediately after a fully generic
     * cycle with no state/controller transition; every transition
     * closes the window.
     */
    int64_t burstHorizon() const;
    /** Record a region lifecycle transition (keeps the sparse loop's
     *  progress flag and active-region list in sync). */
    void setState(RegionSim &rs, RegionState st);
    /** Regions not yet retired (ascending), rebuilt when stale. */
    void refreshActiveRegions();

    int64_t issueOverhead(const RegionSim &rs) const;
    bool forwardsSatisfied(const RegionSim &rs) const;
    /** Region retired everything it will ever run. */
    bool regionDone(const RegionSim &rs) const;
    /** Fill per-region/PE/memory stats (success and abort paths). */
    void fillStats(SimResult &res, int64_t now) const;
    /** Diagnostic naming stalled regions, ports, FIFO occupancies. */
    std::string stallDiagnostic(int64_t now, int64_t lastProgress) const;
    bool seq_ = false;

    /** Per-memory-node plan: space pointer, bandwidth parameters, and
     *  the (region, stream) pairs bound to it, all resolved at build
     *  so the per-cycle arbitration never re-derives them. */
    struct MemPlan
    {
        NodeId node = adg::kInvalidNode;
        AddressSpace *space = nullptr;
        int widthBytes = 0;
        int numBanks = 1;
        int64_t bytes = 0;  ///< moved so far (reporting)
        /** One bound stream, pointers resolved at build (regions_ and
         *  each region's stream vector never resize after build). */
        struct Bound
        {
            RegionSim *rs = nullptr;
            StreamExec *se = nullptr;
            /** Period-replay record slot (see ReplaySlot), -1 when the
             *  owning region is not replay-eligible. */
            int recSlot = -1;
        };
        /** Streams in dense scan order. */
        std::vector<Bound> streams;
    };

    const dfg::DecoupledProgram &prog_;
    const mapper::Schedule &sched_;
    const Adg &adg_;
    MemImage &mem_;
    SimOptions opts_;
    std::vector<RegionSim> regions_;
    /** Shared-PE arbitration: cycle of the PE's last fire, indexed by
     *  NodeId (epoch-stamped; nothing to clear per cycle). */
    std::vector<int64_t> peFiredCycle_;
    /** Persistent forwarded-scalar queues (one per Forward). */
    std::vector<FwdQueue> fwdQueues_;
    /** Forward queues currently holding values (pump gate). */
    int fwdNonEmpty_ = 0;
    /** Sequential phase-script cursor. */
    size_t scriptPos_ = 0;
    bool scriptEntryActive_ = false;
    /** Outer-iv override for the script-selected issue. */
    std::map<int, int64_t> scriptIvs_;
    /** Currently-loaded configuration group. */
    int activeGroup_ = 0;
    /** Fabric unavailable until this cycle (reconfiguration). */
    int64_t reconfigUntil_ = 0;
    /** Cycles to load one configuration. */
    int64_t reconfigCycles_ = 0;
    /** Memory plans in aliveNodes(Memory) order. */
    std::vector<MemPlan> memPlans_;
    /** Any region changed lifecycle state this cycle (sparse-loop
     *  progress detection; the dense oracle keeps its snapshot). */
    bool stateChanged_ = false;
    /** Regions in {WaitDep, WaitCmd, Running, Finalizing}. */
    std::vector<int> activeRegions_;
    bool activeDirty_ = true;

    /** Ring/plan storage. */
    SimArena arena_;
    /** Per-region compiled compute plans (Compiled and Jit engines). */
    std::vector<RegionPlan> plans_;
    bool compiled_ = false;
    /// @name Engine accounting (reported via SimResult)
    /// @{
    int64_t cyclesCompiled_ = 0;
    int64_t cyclesGeneric_ = 0;
    int64_t cyclesSkipped_ = 0;
    int64_t cyclesReplayed_ = 0;
    /// @}
    /** Cached nextEventTime(): stays valid across consecutive
     *  no-progress cycles (nothing that feeds it can change without
     *  progress), so clamped idle jumps don't rescan. */
    int64_t nextEventCache_ = 0;
    bool nextEventCacheValid_ = false;

    /// @name Steady-state period replay
    ///
    /// The fastest tier inside the compiled burst: when exactly one
    /// region is running, its plan is fully specialized (no generic
    /// steps, no fallback streams, no forwards), and the region's
    /// *gate-relevant* state — buffer occupancies, pipe arrival times
    /// relative to now, accumulate-latency gates, decimation/reset
    /// counter residues, clamped stream remainders — recurs with
    /// period p, then the next p cycles provably perform exactly the
    /// same action sequence as the last p (values differ, gates do
    /// not: no specialized gate reads a data value). The tier records
    /// one period's micro-action trace and replays it for m periods
    /// with zero gate evaluation, bounded so no stream runs low enough
    /// to perturb a gate and no watchdog/deadline check is displaced.
    /// @{

    enum class RpPhase : uint8_t { Off, Idle, Detect, Record, Armed };

    /** Pre-resolved per-stream replay binding, in tickStreams visit
     *  order (memory plans in scan order, then generators). */
    struct ReplaySlot
    {
        StreamExec *se = nullptr;
        AddressSpace *space = nullptr;     // null for generators
        AddressSpace *idxSpace = nullptr;  // indirect kinds
        StreamKind kind = StreamKind::LinearRead;
        int elemB = 0;
        int idxElemB = 0;
        int64_t base = 0;                  // indirect address base
        OpCode updateOp = OpCode::Add;     // atomic update
        OpFn updateFn = nullptr;           // pre-dispatched updateOp
        /** Upper bound on one cycle's element count: the snapshot
         *  clamps the stream remainder here (beyond it the remainder
         *  cannot influence any gate) and replay keeps at least this
         *  much slack so no recorded delivery turns remainder-bound. */
        int64_t maxN = 1;
    };

    /** One recorded cycle: step actions + a span of deliveries. */
    struct RpCycle
    {
        uint64_t fired = 0;
        uint64_t latched = 0;
        uint32_t dFirst = 0;
        uint32_t dCount = 0;
    };

    /**
     * One pre-decoded micro-action of the armed period. The hot
     * replay loop executes these value-only: no timestamps (pipe
     * arrival times are reconstructed at chunk end from the reference
     * relative times), no fire/pop counters (batched at chunk end
     * from per-step per-period counts), no arbitration stamps (stale
     * stamps compare unequal to every post-replay cycle, which is
     * exactly the live meaning). Residue-dependent behavior (OutEvery
     * keep/discard, self-acc periodic reset) is baked into flags —
     * the armed snapshot pins the residues, so the pattern is
     * period-invariant.
     */
    struct RpAction
    {
        enum Op : uint8_t {
            Latch,      ///< PortSimple buffer refill only
            Fire,       ///< PortSimple push (reuses latched value)
            LatchFire,  ///< refill + push in one cycle
            Inst,       ///< InstSimple / InstAcc via pre-bound fn
            /// @name Devirtualized InstSimple for the hottest ALU
            /// shapes (two pipe operands, no immediates): the fn
            /// pointer is matched back to its opcode at arm time so
            /// the replay loop runs the arithmetic inline.
            /// @{
            InstFAdd2,
            InstFMul2,
            InstAdd2,
            InstMul2,
            /// @}
            SelfAcc,    ///< acc = fn(acc, v); flags bit0 = reset after
            SelfAccF,   ///< SelfAcc with fn == FAdd, inline fp add
            OutDeliver, ///< OutSimple, or OutEvery on a keep cycle
            OutDiscard, ///< OutEvery on a decimated cycle
            OutLatch,   ///< OutLast: latch lastVec
            Deliver,    ///< stream delivery of n elements via slot idx
        };
        uint8_t op = Inst;
        uint8_t flags = 0;
        uint16_t idx = 0;  ///< plan step index or replay slot index
        int32_t n = 0;     ///< Deliver element count
    };

    /** Build per-region eligibility + slot bindings (end of build). */
    void buildReplayInfo();
    /** Serialize region r's gate-relevant state relative to @p now. */
    void collectSnapshot(int r, int64_t now, std::vector<int64_t> &v) const;
    /** Phase driver at the top of a burst cycle; returns the number of
     *  cycles consumed by replay (0 = execute the cycle normally). */
    int64_t replayTop(int64_t now, int64_t burstHzn,
                      bool deadlineLimited);
    /** Append the just-executed cycle to the period trace. */
    void recordCycleEnd(int64_t now);
    /** Decode the confirmed trace into the flat period program and
     *  the chunk-end fix-up tables (called at arm, @p now = period
     *  boundary whose live state is the reference). */
    void buildPeriodProgram(int r, int64_t now);
    /** Execute @p m recorded periods starting at @p now. */
    void replayRun(int64_t now, int64_t m);
    /** Replay one stream delivery of @p n elements (gate-free). */
    void execSlot(const ReplaySlot &sl, int32_t n, int64_t now);
    /** Drop transient detection state (cheap, keeps an armed trace). */
    void rpDemote(int64_t now);

    static constexpr int64_t kRpMaxPeriod = 2048;
    static constexpr int64_t kRpDetectWindow = 4096;
    static constexpr int64_t kRpRetryBackoff = 32768;
    static constexpr int64_t kRpArmedPatience = 4096;

    RpPhase rpPhase_ = RpPhase::Off;
    int rpRegion_ = -1;
    int64_t rpResumeAt_ = 0;
    int64_t rpDetectUntil_ = 0;
    int64_t rpRecordStart_ = 0;
    int64_t rpPeriod_ = 0;
    int64_t rpMisses_ = 0;
    /** Absolute cycle of the last progress inside the last replay. */
    int64_t rpProgress_ = 0;
    int64_t rpLastActiveOff_ = -1;
    bool recording_ = false;
    uint64_t rpFired_ = 0;
    uint64_t rpLatched_ = 0;
    std::unordered_map<uint64_t, int64_t> rpHashAt_;
    std::vector<int64_t> rpSnap_, rpRef_;
    std::vector<RpCycle> rpTrace_;
    std::vector<std::pair<uint16_t, int32_t>> rpDeliv_;
    /// @name Armed period program + chunk-end fix-up tables
    /// @{
    std::vector<RpAction> rpProg_;
    /** Per plan step: fires per period / latches per period / offset
     *  of the step's last fire within the period (-1 = never). */
    std::vector<int32_t> rpStepFires_, rpStepLatches_, rpStepLastOff_;
    /** PortSimple steps' reuseLeft at the period boundary. */
    std::vector<int8_t> rpStepReuse_;
    /** Offset of the last step-fire cycle within the period. */
    int64_t rpLastFireOff_ = -1;
    /** Reference pipe occupancy: every pipe's entry arrival times
     *  relative to the period boundary (unclamped — exact), flattened;
     *  pipe i's entries are rpPipeRel_[rpPipeStart_[i] ...). */
    std::vector<Pipe *> rpPipes_;
    std::vector<int32_t> rpPipeStart_;
    std::vector<int64_t> rpPipeRel_;
    /// @}
    std::vector<int32_t> recNBuf_;
    /** Per-cycle delivered-count sink during recording (else null). */
    int32_t *recN_ = nullptr;
    std::vector<int64_t> rpPerPeriodN_;
    std::vector<int64_t> rpBytesBase_;
    std::vector<int64_t> rpBytesPeriod_;
    std::vector<uint8_t> rpEligible_;
    std::vector<std::vector<ReplaySlot>> rpSlots_;
    /** genStreams-aligned record slots per region (-1 = untracked). */
    std::vector<std::vector<int>> genRecSlots_;
    /// @}

    /// @name JIT tier: native execution of the armed period program
    ///
    /// Once replay volume passes the amortization gate, the armed
    /// period program is lowered to C++ (sim/jit/jit_emit) and handed
    /// to the process-wide JitRuntime; replayRun() dispatches whole
    /// chunks through the native kernel once acquire() returns one,
    /// interpreting until then. The kernel performs
    /// exactly the hot loop's value mutations; the chunk-end fix-ups
    /// stay host-side and are shared between both paths, plus two
    /// host-side extras the interpreted loop does per element (sink
    /// seen/taken counters, OutLast lastValid).
    /// @{

    /** Mark region @p r's freshly armed program as jit-candidate
     *  (cheap: actual lowering is deferred to jitTryNative so runs
     *  that never replay long enough to win never pay for it). */
    void jitArm(int r);
    /** Lower the armed program (source text, registry key) — the
     *  expensive half of arming, run at most once per arm and only
     *  once replay volume passes the amortization gate. */
    void jitLower();
    /** Run @p m periods through the native kernel; false = not ready
     *  (or not worth it), caller interprets. */
    bool jitTryNative(int64_t m);

    /** Amortization gate, in simulated-cycles-per-period-action:
     *  lower once the replay volume since the arm (cycles already
     *  replayed plus the chunk being offered) reaches this many cycles
     *  per action. Lowering costs roughly 0.7µs per action (text
     *  emission + key hashing) while native replay gains ~22ns/cycle
     *  over the interpreted loop, so break-even sits near 32
     *  cycles/action for a single run; 24 engages high-volume kernels
     *  (whose later chunks dwarf the lowering cost) one chunk earlier
     *  while still excluding one-shot programs whose entire replay
     *  is the same order as their action count. */
    static constexpr int64_t kJitLowerCyclesPerAction = 24;

    bool jitWanted_ = false; ///< opts + host allow the jit tier
    bool jitLowered_ = false; ///< lowering ran for the current arm
    int jitRegion_ = -1;      ///< region of the current arm
    int64_t jitArmReplayed0_ = 0; ///< cyclesReplayed_ at arm time
    int64_t cyclesJit_ = 0;
    bool jitUsable_ = false; ///< armed program lowered successfully
    /** Minimum chunk size (in simulated cycles) worth running
     *  natively: every native call pays a table rebind proportional
     *  to the program's operand-table footprint, so short chunks are
     *  faster through the interpreted loop. Set at arm time. */
    int64_t jitMinChunkCycles_ = 0;
    jit::Emitted jitEm_;
    uint64_t jitKey_ = 0;
    jit::KernelFn jitFn_ = nullptr;
    /// Kernel argument tables, rebound before every native chunk.
    std::vector<long long> jitS_;
    std::vector<Value *> jitP_;
    std::vector<const long long *> jitA_;
    std::vector<unsigned char *> jitB_;
    /** OutLast ports in the program: lastValid set host-side. */
    std::vector<OutPortSim *> jitLastPorts_;
    /** Per-period sink counter deltas (deliverElement's ++seen/++taken
     *  batched: wants() is provably constant across the chunk). */
    struct JitSinkDelta
    {
        OutSink *sink = nullptr;
        int64_t seenPer = 0;
        int64_t takenPer = 0;
    };
    std::vector<JitSinkDelta> jitSinkDeltas_;
    /// @}
};

int64_t
Machine::issueOverhead(const RegionSim &rs) const
{
    const auto &ctrl = adg_.control();
    int cmds = static_cast<int>(rs.reg->streams.size());
    return static_cast<int64_t>(cmds / std::max(0.1, ctrl.cmdIssueIpc)) +
           ctrl.cmdLatency;
}

bool
Machine::forwardsSatisfied(const RegionSim &rs) const
{
    // A region may not retire its issue while an incoming forward's
    // producer could still deliver values for it.
    for (const auto &f : prog_.forwards) {
        if (f.dstRegion != rs.idx)
            continue;
        const RegionSim &src = regions_[f.srcRegion];
        bool done = src.state == RegionState::Complete ||
                    (seq_ && src.completedIssues > rs.completedIssues);
        if (!done)
            return false;
    }
    return true;
}

void
Machine::build()
{
    seq_ = prog_.sequential && !prog_.phaseScript.empty();
    // Rough bitstream size: ~48 bits of config per component.
    int64_t aliveCount = 0;
    for (NodeId id = 0; id < adg_.nodeIdBound(); ++id)
        if (adg_.nodeAlive(id))
            ++aliveCount;
    reconfigCycles_ =
        aliveCount * 48 / std::max(1, adg_.control().configBitsPerCycle);
    regions_.resize(prog_.regions.size());
    for (size_t r = 0; r < prog_.regions.size(); ++r)
        buildRegion(static_cast<int>(r));

    // Forwards: out-port sinks into persistent queues pumped into the
    // destination region's port as it consumes.
    fwdQueues_.resize(prog_.forwards.size());
    for (FwdQueue &fq : fwdQueues_)
        fq.nonEmptyCount = &fwdNonEmpty_;
    for (size_t fi = 0; fi < prog_.forwards.size(); ++fi) {
        const auto &f = prog_.forwards[fi];
        RegionSim &src = regions_[f.srcRegion];
        RegionSim &dst = regions_[f.dstRegion];
        OutSink sink;
        sink.kind = OutSink::Kind::Forward;
        sink.fwdQueue = &fwdQueues_[fi];
        src.outPorts[f.srcPort].sinks.push_back(sink);
        if (f.viaMemory)
            dst.waitOnRegions.push_back(f.srcRegion);
    }
    // Cross-region array dependences (disjoint nests): full ordering.
    for (size_t r = 0; r < prog_.regions.size(); ++r)
        for (int dep : prog_.regions[r].dependsOn)
            regions_[r].waitOnRegions.push_back(dep);

    // Flat PE-fire stamps (epoch = cycle number; nothing to clear).
    peFiredCycle_.assign(static_cast<size_t>(adg_.nodeIdBound()), -1);

    // Per-region hot-loop caches: everything the per-cycle code would
    // otherwise re-derive by filtering (which ports are real, which
    // streams are generators / scalar-fallback, which instructions are
    // latency-gated accumulators).
    for (RegionSim &rs : regions_) {
        for (size_t v = 0; v < rs.inPorts.size(); ++v) {
            if (rs.inPorts[v].lanePipes.empty())
                continue;
            rs.realInPorts.push_back(static_cast<int>(v));
            if (rs.inPorts[v].minPopInterval > 0)
                rs.throttledPorts.push_back(static_cast<int>(v));
        }
        for (size_t v = 0; v < rs.outPorts.size(); ++v)
            if (!rs.outPorts[v].lanePipes.empty())
                rs.realOutPorts.push_back(static_cast<int>(v));
        for (size_t i = 0; i < rs.insts.size(); ++i)
            if (rs.insts[i].vx->isAccumulate())
                rs.accInsts.emplace_back(
                    static_cast<int>(i),
                    opInfo(rs.insts[i].vx->op).latency);
        for (StreamExec &se : rs.streams) {
            const Stream &st = *se.st;
            if (st.kind == StreamKind::Const ||
                st.kind == StreamKind::Iota)
                rs.genStreams.push_back(st.id);
            if (st.scalarFallback)
                rs.fallbackStreams.push_back(st.id);
            if (st.kind == StreamKind::IndirectRead ||
                st.kind == StreamKind::IndirectWrite ||
                st.kind == StreamKind::AtomicUpdate)
                se.idxSpace = &mem_.space(st.idxSpace);
        }
    }

    // Memory plans: per alive memory node, the streams it serves in
    // the same scan order as the naive alive-memories x regions x
    // streams sweep, with the stream->memory binding ("mine") already
    // decided — so per-cycle arbitration outcomes are identical.
    for (NodeId m : adg_.aliveNodes(NodeKind::Memory)) {
        const auto &mem = adg_.node(m).mem();
        MemPlan plan;
        plan.node = m;
        plan.widthBytes = mem.widthBytes;
        plan.numBanks = std::max(1, mem.numBanks);
        plan.space = &mem_.space(mem.kind == adg::MemKind::Main
                                     ? dfg::MemSpace::Main
                                     : dfg::MemSpace::Spad);
        for (RegionSim &rs : regions_) {
            const auto &rsch = sched_.regions[rs.idx];
            for (StreamExec &se : rs.streams) {
                const Stream &st = *se.st;
                if (!st.touchesMemory())
                    continue;
                bool mine = rs.reg->serialized
                    ? (st.space == dfg::MemSpace::Main) ==
                          (mem.kind == adg::MemKind::Main)
                    : rsch.streamMap[st.id] == m;
                if (mine)
                    plan.streams.push_back({&rs, &se});
            }
        }
        memPlans_.push_back(std::move(plan));
    }

    // Compiled steady-state tier: lower each region's dataflow into a
    // flat micro-op plan (the dense and sparse engines never consult
    // plans).
    compiled_ = opts_.engine == Engine::Compiled ||
                opts_.engine == Engine::Jit;
    jitWanted_ = opts_.engine == Engine::Jit &&
                 jit::JitRuntime::hostSupported();
    if (compiled_) {
        plans_.resize(regions_.size());
        for (size_t r = 0; r < regions_.size(); ++r)
            plans_[r] = detail::buildRegionPlan(
                regions_[r], peFiredCycle_.data(), arena_);
        buildReplayInfo();
    }
}

void
Machine::buildReplayInfo()
{
    rpEligible_.assign(regions_.size(), 0);
    rpSlots_.assign(regions_.size(), {});
    genRecSlots_.assign(regions_.size(), {});
    // Forward-touched regions are never replayed: pumpForwards can
    // move values outside the recorded action set, and forward sinks
    // grow machine-level queues the snapshot does not cover.
    std::vector<uint8_t> fwdTouched(regions_.size(), 0);
    for (const auto &f : prog_.forwards) {
        fwdTouched[static_cast<size_t>(f.srcRegion)] = 1;
        fwdTouched[static_cast<size_t>(f.dstRegion)] = 1;
    }
    bool any = false;
    for (size_t r = 0; r < regions_.size(); ++r) {
        RegionSim &rs = regions_[r];
        const RegionPlan &plan = plans_[r];
        genRecSlots_[r].assign(rs.genStreams.size(), -1);
        if (plan.numSteps <= 0 || plan.numSteps > 64)
            continue;
        if (fwdTouched[r] || !rs.fallbackStreams.empty())
            continue;
        bool allSpecial = true;
        for (int i = 0; i < plan.numSteps && allSpecial; ++i) {
            auto k = plan.steps[i].kind;
            allSpecial = k != detail::PlanStep::PortGeneric &&
                         k != detail::PlanStep::InstGeneric &&
                         k != detail::PlanStep::OutGeneric;
        }
        if (!allSpecial)
            continue;
        // Bind record slots in exact tickStreams visit order.
        auto &slots = rpSlots_[r];
        bool ok = true;
        for (MemPlan &mp : memPlans_) {
            for (MemPlan::Bound &b : mp.streams) {
                if (b.rs != &rs || !ok)
                    continue;
                const Stream &st = *b.se->st;
                ReplaySlot sl;
                sl.se = b.se;
                sl.space = mp.space;
                sl.idxSpace = b.se->idxSpace;
                sl.kind = st.kind;
                sl.elemB = st.pattern.elemBytes;
                sl.idxElemB = st.idxElemBytes;
                sl.base = st.pattern.baseBytes;
                sl.updateOp = st.updateOp;
                sl.updateFn = opFunction(st.updateOp);
                int eb = std::max(1, sl.elemB);
                switch (st.kind) {
                  case StreamKind::LinearRead:
                    sl.maxN = std::min<int64_t>(
                        mp.widthBytes / eb, b.se->target->capacity);
                    break;
                  case StreamKind::IndirectRead:
                    sl.maxN = std::min<int64_t>(
                        std::min<int64_t>(
                            mp.widthBytes /
                                std::max(1, sl.elemB + sl.idxElemB),
                            mp.numBanks),
                        b.se->target->capacity);
                    break;
                  case StreamKind::LinearWrite:
                    sl.maxN = std::min<int64_t>(mp.widthBytes / eb,
                                                b.se->writeBufCap);
                    break;
                  case StreamKind::IndirectWrite:
                  case StreamKind::AtomicUpdate: {
                    int cost = sl.elemB + sl.idxElemB +
                               (st.kind == StreamKind::AtomicUpdate
                                    ? sl.elemB
                                    : 0);
                    sl.maxN = std::min<int64_t>(
                        std::min<int64_t>(
                            mp.widthBytes / std::max(1, cost),
                            mp.numBanks),
                        b.se->writeBufCap);
                    break;
                  }
                  default:
                    ok = false;
                    break;
                }
                if (!ok)
                    continue;
                sl.maxN = std::max<int64_t>(1, sl.maxN);
                b.recSlot = static_cast<int>(slots.size());
                slots.push_back(sl);
            }
        }
        for (size_t k = 0; k < rs.genStreams.size() && ok; ++k) {
            StreamExec &se =
                rs.streams[static_cast<size_t>(rs.genStreams[k])];
            ReplaySlot sl;
            sl.se = &se;
            sl.kind = se.st->kind;
            sl.maxN = se.st->kind == StreamKind::Const
                ? se.target->capacity
                : std::min<int64_t>(8, se.target->capacity);
            sl.maxN = std::max<int64_t>(1, sl.maxN);
            genRecSlots_[r][k] = static_cast<int>(slots.size());
            slots.push_back(sl);
        }
        if (!ok || slots.size() > 4096) {
            // Unbind: the region stays interpreted/per-cycle compiled.
            for (MemPlan &mp : memPlans_)
                for (MemPlan::Bound &b : mp.streams)
                    if (b.rs == &rs)
                        b.recSlot = -1;
            genRecSlots_[r].assign(rs.genStreams.size(), -1);
            slots.clear();
            continue;
        }
        rpEligible_[r] = 1;
        any = true;
    }
    rpPhase_ = any ? RpPhase::Idle : RpPhase::Off;
    rpResumeAt_ = 64;
}

namespace {
inline uint64_t
snapHash(const std::vector<int64_t> &v)
{
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (int64_t x : v) {
        h ^= static_cast<uint64_t>(x);
        h *= 1099511628211ull;
    }
    return h;
}

/** Value-only pipe push for the replay hot loop: no arrival-time
 *  store (times are reconstructed at chunk end from the reference
 *  relative occupancy captured at arm). */
inline void
pushVal(Pipe *p, Value v)
{
    p->vals[(p->head + p->count) & p->mask] = v;
    ++p->count;
}

/** Local bit-cast helpers (the opcode.cc ones are out of line). */
inline double
asF64(Value v)
{
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

inline Value
fromF64(double d)
{
    Value v;
    std::memcpy(&v, &d, sizeof(v));
    return v;
}
} // namespace

void
Machine::collectSnapshot(int r, int64_t now,
                         std::vector<int64_t> &v) const
{
    const RegionSim &rs = regions_[static_cast<size_t>(r)];
    const RegionPlan &plan = plans_[static_cast<size_t>(r)];
    v.clear();
    v.push_back(fwdNonEmpty_);
    // Quiesce gate: values past the window all behave identically,
    // now and on every later cycle (the clamp cannot mask a future
    // gate flip because the relative value only moves further past).
    v.push_back(std::max<int64_t>(rs.lastActivity - now,
                                  -(rs.quiesceWindow + 2)));
    for (const PortSim &ps : rs.inPorts) {
        v.push_back(ps.bufCount);
        v.push_back(ps.reuseLeft);
    }
    // Every routed value's arrival time, relative; entries already
    // ready saturate (ready() only compares <= now).
    for (const auto &p : rs.pipes) {
        v.push_back(p->count);
        for (uint32_t i = 0; i < p->count; ++i)
            v.push_back(std::max<int64_t>(
                p->times[(p->head + i) & p->mask] - now, -4));
    }
    for (int i = 0; i < plan.numSteps; ++i) {
        const detail::PlanStep &s = plan.steps[i];
        switch (s.kind) {
          case detail::PlanStep::InstAcc:
          case detail::PlanStep::InstSelfAcc:
            v.push_back(std::max<int64_t>(
                s.inst->lastFire - now, -1024));
            if (s.kind == detail::PlanStep::InstSelfAcc &&
                s.accResetEvery > 0)
                v.push_back(s.inst->fires % s.accResetEvery);
            break;
          case detail::PlanStep::OutSimple:
          case detail::PlanStep::OutLast:
          case detail::PlanStep::OutEvery: {
            const OutPortSim &op = *s.outPort;
            if (s.kind == detail::PlanStep::OutEvery)
                v.push_back(op.fires % op.outputEvery);
            for (const OutSink &sk : op.sinks) {
                v.push_back(std::min(sk.seen, sk.skip));
                v.push_back(sk.take < 0 ? -1 : sk.take - sk.taken);
            }
            break;
          }
          default:
            break;
        }
    }
    // Stream remainders clamp at maxN: beyond that bound the exact
    // count cannot change any per-cycle min() outcome, and the replay
    // chunk bound keeps at least maxN of slack.
    for (const ReplaySlot &sl : rpSlots_[static_cast<size_t>(r)]) {
        const StreamExec &se = *sl.se;
        int64_t rem = static_cast<int64_t>(se.addrs.size()) -
                      static_cast<int64_t>(se.pos);
        v.push_back(std::min(rem, sl.maxN));
        v.push_back(static_cast<int64_t>(se.writeBuf.size()));
    }
}

void
Machine::rpDemote(int64_t now)
{
    recording_ = false;
    recN_ = nullptr;
    if (rpPhase_ == RpPhase::Detect || rpPhase_ == RpPhase::Record) {
        rpPhase_ = RpPhase::Idle;
        rpResumeAt_ = now + 64;
        rpHashAt_.clear();
    }
}

int64_t
Machine::replayTop(int64_t now, int64_t burstHzn, bool deadlineLimited)
{
    if (activeRegions_.size() != 1) {
        rpDemote(now);
        return 0;
    }
    int r = activeRegions_[0];
    if (!rpEligible_[static_cast<size_t>(r)] ||
        regions_[static_cast<size_t>(r)].state != RegionState::Running) {
        rpDemote(now);
        return 0;
    }
    if (r != rpRegion_) {
        rpRegion_ = r;
        rpPhase_ = RpPhase::Idle;
        rpResumeAt_ = now + 32;
        rpHashAt_.clear();
        recording_ = false;
        recN_ = nullptr;
        return 0;
    }
    if (rpPhase_ == RpPhase::Idle) {
        if (now < rpResumeAt_)
            return 0;
        rpPhase_ = RpPhase::Detect;
        rpDetectUntil_ = now + kRpDetectWindow;
        rpHashAt_.clear();
    }
    bool haveSnap = false;
    if (rpPhase_ == RpPhase::Detect) {
        collectSnapshot(r, now, rpSnap_);
        uint64_t h = snapHash(rpSnap_);
        auto it = rpHashAt_.find(h);
        int64_t p = it != rpHashAt_.end() ? now - it->second : 0;
        int64_t window = opts_.progressWindow > 0
            ? opts_.progressWindow
            : INT64_MAX;
        if (p >= 1 && p <= kRpMaxPeriod && 2 * p < window) {
            // Candidate period (hash match; the end-of-record compare
            // verifies it in full). Record the next p cycles.
            rpPeriod_ = p;
            rpRef_ = rpSnap_;
            rpRecordStart_ = now;
            rpTrace_.clear();
            rpDeliv_.clear();
            recNBuf_.assign(rpSlots_[static_cast<size_t>(r)].size(), 0);
            rpBytesBase_.clear();
            for (const MemPlan &mp : memPlans_)
                rpBytesBase_.push_back(mp.bytes);
            recording_ = true;
            recN_ = recNBuf_.data();
            rpPhase_ = RpPhase::Record;
            return 0;
        }
        rpHashAt_[h] = now;
        if (now > rpDetectUntil_) {
            rpPhase_ = RpPhase::Idle;
            rpResumeAt_ = now + kRpRetryBackoff;
            rpHashAt_.clear();
        }
        return 0;
    }
    if (rpPhase_ == RpPhase::Record) {
        if (now - rpRecordStart_ < rpPeriod_)
            return 0;  // recordCycleEnd appends as cycles execute
        recording_ = false;
        recN_ = nullptr;
        collectSnapshot(r, now, rpSnap_);
        haveSnap = true;
        bool confirmed = rpSnap_ == rpRef_ &&
                         static_cast<int64_t>(rpTrace_.size()) ==
                             rpPeriod_;
        if (!confirmed) {
            rpPhase_ = RpPhase::Detect;
            rpDetectUntil_ = now + kRpDetectWindow;
            rpHashAt_[snapHash(rpSnap_)] = now;
            return 0;
        }
        const auto &slots = rpSlots_[static_cast<size_t>(r)];
        rpPerPeriodN_.assign(slots.size(), 0);
        rpLastActiveOff_ = -1;
        for (size_t c = 0; c < rpTrace_.size(); ++c) {
            const RpCycle &cy = rpTrace_[c];
            for (uint32_t d = 0; d < cy.dCount; ++d)
                rpPerPeriodN_[rpDeliv_[cy.dFirst + d].first] +=
                    rpDeliv_[cy.dFirst + d].second;
            if (cy.fired || cy.dCount)
                rpLastActiveOff_ = static_cast<int64_t>(c);
        }
        rpBytesPeriod_.clear();
        for (size_t mi = 0; mi < memPlans_.size(); ++mi)
            rpBytesPeriod_.push_back(memPlans_[mi].bytes -
                                     rpBytesBase_[mi]);
        if (rpLastActiveOff_ < 0) {
            // A period in which nothing moves is a stall, not steady
            // state; leave it to the stall watchdog.
            rpPhase_ = RpPhase::Idle;
            rpResumeAt_ = now + kRpRetryBackoff;
            return 0;
        }
        buildPeriodProgram(r, now);
        jitArm(r);
        rpPhase_ = RpPhase::Armed;
        rpMisses_ = 0;
    }
    // Armed. Cheap cycle-count bounds first: during the drain tail
    // every cycle would otherwise pay a full snapshot compare just to
    // find m == 0.
    const auto &slots = rpSlots_[static_cast<size_t>(r)];
    int64_t m = INT64_MAX;
    for (size_t s = 0; s < slots.size(); ++s) {
        if (rpPerPeriodN_[s] <= 0)
            continue;
        const StreamExec &se = *slots[s].se;
        int64_t rem = static_cast<int64_t>(se.addrs.size()) -
                      static_cast<int64_t>(se.pos);
        int64_t avail = rem - slots[s].maxN;
        if (avail < rpPerPeriodN_[s])
            return 0;  // too close to drain: finish per-cycle
        m = std::min(m, avail / rpPerPeriodN_[s]);
    }
    m = std::min(m, (opts_.maxCycles - now) / rpPeriod_);
    m = std::min(m, (burstHzn - now) / rpPeriod_);
    if (deadlineLimited) {
        // Stop at the next watchdog boundary so the wall-clock check
        // runs on exactly the cycles the per-cycle loops check it on.
        int64_t boundary = ((now >> 13) + 1) << 13;
        m = std::min(m, (boundary - now) / rpPeriod_);
    }
    m = std::min<int64_t>(m, 1 << 20);
    if (m < 1)
        return 0;
    // One snapshot compare decides whether the recorded period applies
    // from here.
    if (!haveSnap)
        collectSnapshot(r, now, rpSnap_);
    if (rpSnap_ != rpRef_) {
        if (++rpMisses_ > kRpArmedPatience) {
            rpPhase_ = RpPhase::Idle;
            rpResumeAt_ = now + kRpRetryBackoff;
            rpMisses_ = 0;
        }
        return 0;
    }
    rpMisses_ = 0;
    replayRun(now, m);
    rpProgress_ = now + (m - 1) * rpPeriod_ + rpLastActiveOff_;
    return m * rpPeriod_;
}

void
Machine::recordCycleEnd(int64_t now)
{
    RpCycle cy;
    cy.fired = rpFired_;
    cy.latched = rpLatched_;
    cy.dFirst = static_cast<uint32_t>(rpDeliv_.size());
    for (size_t s = 0; s < recNBuf_.size(); ++s)
        if (recNBuf_[s] > 0) {
            rpDeliv_.push_back(
                {static_cast<uint16_t>(s), recNBuf_[s]});
            recNBuf_[s] = 0;
        }
    cy.dCount = static_cast<uint32_t>(rpDeliv_.size()) - cy.dFirst;
    rpTrace_.push_back(cy);
    if (stateChanged_ ||
        static_cast<int64_t>(rpTrace_.size()) > rpPeriod_) {
        recording_ = false;
        recN_ = nullptr;
        rpPhase_ = RpPhase::Idle;
        rpResumeAt_ = now + 64;
    }
}

void
Machine::execSlot(const ReplaySlot &sl, int32_t n, int64_t now)
{
    (void)now;
    StreamExec &se = *sl.se;
    // Constant-size access helpers: the dominant element width (8
    // bytes) gets a compile-time-sized load/store, turning the
    // variable-length memcpy inside AddressSpace into a single move.
    const int eb = sl.elemB;
    auto loadE = [&](int64_t a) {
        return eb == 8 ? sl.space->load(a, 8) : sl.space->load(a, eb);
    };
    auto storeE = [&](int64_t a, Value v) {
        if (eb == 8)
            sl.space->store(a, 8, v);
        else
            sl.space->store(a, eb, v);
    };
    auto loadIdx = [&](int64_t a) {
        return sl.idxElemB == 8
            ? sl.idxSpace->load(a, 8)
            : sl.idxSpace->load(a, sl.idxElemB);
    };
    switch (sl.kind) {
      case StreamKind::LinearRead: {
        PortSim &t = *se.target;
        const int64_t *addrs = se.addrs.data() + se.pos;
        uint32_t idx = t.bufHead + t.bufCount;
        for (int32_t i = 0; i < n; ++i)
            t.buf[(idx + static_cast<uint32_t>(i)) & t.bufMask] =
                loadE(addrs[i]);
        t.bufCount += static_cast<uint32_t>(n);
        se.pos += static_cast<size_t>(n);
        break;
      }
      case StreamKind::IndirectRead: {
        for (int32_t i = 0; i < n; ++i) {
            int64_t idxV =
                static_cast<int64_t>(loadIdx(se.idxAddrs[se.pos]));
            se.target->deliver(loadE(sl.base + idxV * sl.elemB));
            ++se.pos;
        }
        break;
      }
      case StreamKind::LinearWrite: {
        const int64_t *addrs = se.addrs.data() + se.pos;
        for (int32_t i = 0; i < n; ++i)
            storeE(addrs[i], se.writeBuf[static_cast<size_t>(i)]);
        se.writeBuf.erase_front(static_cast<size_t>(n));
        se.pos += static_cast<size_t>(n);
        break;
      }
      case StreamKind::IndirectWrite:
      case StreamKind::AtomicUpdate: {
        bool atomic = sl.kind == StreamKind::AtomicUpdate;
        for (int32_t i = 0; i < n; ++i) {
            int64_t idxV =
                static_cast<int64_t>(loadIdx(se.idxAddrs[se.pos]));
            int64_t addr = sl.base + idxV * sl.elemB;
            Value v = se.writeBuf.front();
            se.writeBuf.pop_front();
            if (atomic) {
                Value old = loadE(addr);
                v = sl.updateFn(old, v, 0, nullptr);
            }
            storeE(addr, v);
            ++se.pos;
        }
        break;
      }
      case StreamKind::Const: {
        PortSim &t = *se.target;
        uint32_t idx = t.bufHead + t.bufCount;
        Value cv = se.st->constValue;
        for (int32_t i = 0; i < n; ++i)
            t.buf[(idx + static_cast<uint32_t>(i)) & t.bufMask] = cv;
        t.bufCount += static_cast<uint32_t>(n);
        se.pos += static_cast<size_t>(n);
        break;
      }
      case StreamKind::Iota: {
        PortSim &t = *se.target;
        uint32_t idx = t.bufHead + t.bufCount;
        const int64_t *vals = se.addrs.data() + se.pos;
        for (int32_t i = 0; i < n; ++i)
            t.buf[(idx + static_cast<uint32_t>(i)) & t.bufMask] =
                static_cast<Value>(vals[i]);
        t.bufCount += static_cast<uint32_t>(n);
        se.pos += static_cast<size_t>(n);
        break;
      }
      default:
        DSA_ASSERT(false, "unreplayable stream kind");
    }
}

void
Machine::buildPeriodProgram(int r, int64_t now)
{
    RegionSim &rs = regions_[static_cast<size_t>(r)];
    const RegionPlan &plan = plans_[static_cast<size_t>(r)];
    const int n = plan.numSteps;
    rpProg_.clear();
    rpStepFires_.assign(static_cast<size_t>(n), 0);
    rpStepLatches_.assign(static_cast<size_t>(n), 0);
    rpStepLastOff_.assign(static_cast<size_t>(n), -1);
    rpStepReuse_.assign(static_cast<size_t>(n), 0);
    rpLastFireOff_ = -1;
    // Virtual fire counters seeded from the live boundary values: the
    // armed snapshot pins fires%outputEvery and fires%accResetEvery,
    // so keep/reset patterns decoded here hold for every replayed
    // period, not just the recorded one.
    std::vector<int64_t> vfires(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
        const detail::PlanStep &s = plan.steps[i];
        if (s.kind == detail::PlanStep::InstSelfAcc)
            vfires[static_cast<size_t>(i)] = s.inst->fires;
        else if (s.kind == detail::PlanStep::OutEvery)
            vfires[static_cast<size_t>(i)] = s.outPort->fires;
        else if (s.kind == detail::PlanStep::PortSimple)
            rpStepReuse_[static_cast<size_t>(i)] =
                static_cast<int8_t>(s.port->reuseLeft);
    }
    for (size_t c = 0; c < rpTrace_.size(); ++c) {
        const RpCycle &cy = rpTrace_[c];
        for (uint32_t d = 0; d < cy.dCount; ++d) {
            const auto &dv = rpDeliv_[cy.dFirst + d];
            RpAction a;
            a.op = RpAction::Deliver;
            a.idx = dv.first;
            a.n = dv.second;
            rpProg_.push_back(a);
        }
        uint64_t bits = cy.fired | cy.latched;
        while (bits) {
            int i = __builtin_ctzll(bits);
            bits &= bits - 1;
            bool fired = (cy.fired >> i) & 1;
            bool latched = (cy.latched >> i) & 1;
            const detail::PlanStep &s = plan.steps[i];
            RpAction a;
            a.idx = static_cast<uint16_t>(i);
            switch (s.kind) {
              case detail::PlanStep::PortSimple:
                a.op = latched
                    ? (fired ? RpAction::LatchFire : RpAction::Latch)
                    : RpAction::Fire;
                break;
              case detail::PlanStep::InstSimple:
                // Devirtualize the hottest ALU shapes: match the
                // pre-dispatched fn pointer back to its opcode.
                if (s.nIn == 2 && s.in[0] && s.in[1]) {
                    if (s.fn == opFunction(OpCode::FAdd))
                        a.op = RpAction::InstFAdd2;
                    else if (s.fn == opFunction(OpCode::FMul))
                        a.op = RpAction::InstFMul2;
                    else if (s.fn == opFunction(OpCode::Add))
                        a.op = RpAction::InstAdd2;
                    else if (s.fn == opFunction(OpCode::Mul))
                        a.op = RpAction::InstMul2;
                    else
                        a.op = RpAction::Inst;
                } else {
                    a.op = RpAction::Inst;
                }
                break;
              case detail::PlanStep::InstAcc:
                a.op = RpAction::Inst;
                break;
              case detail::PlanStep::InstSelfAcc:
                a.op = s.fn == opFunction(OpCode::FAdd)
                    ? RpAction::SelfAccF
                    : RpAction::SelfAcc;
                ++vfires[static_cast<size_t>(i)];
                if (s.accResetEvery > 0 &&
                    vfires[static_cast<size_t>(i)] % s.accResetEvery ==
                        0)
                    a.flags = 1;
                break;
              case detail::PlanStep::OutSimple:
                a.op = RpAction::OutDeliver;
                break;
              case detail::PlanStep::OutEvery:
                a.op = (vfires[static_cast<size_t>(i)] + 1) %
                               s.outPort->outputEvery ==
                           0
                    ? RpAction::OutDeliver
                    : RpAction::OutDiscard;
                ++vfires[static_cast<size_t>(i)];
                break;
              case detail::PlanStep::OutLast:
                a.op = RpAction::OutLatch;
                break;
              default:
                DSA_ASSERT(false, "generic step in armed period");
            }
            if (fired) {
                ++rpStepFires_[static_cast<size_t>(i)];
                rpStepLastOff_[static_cast<size_t>(i)] =
                    static_cast<int32_t>(c);
            }
            if (latched)
                ++rpStepLatches_[static_cast<size_t>(i)];
            rpProg_.push_back(a);
        }
        if (cy.fired)
            rpLastFireOff_ = static_cast<int64_t>(c);
    }
    // Reference pipe occupancy at the period boundary, unclamped.
    // Exact for entries inside the clamp horizon (the recurrence makes
    // their relative arrival period-invariant); entries at or past the
    // clamp are already-ready, where every past timestamp is
    // observationally identical (gates only compare <= now).
    rpPipes_.clear();
    rpPipeStart_.clear();
    rpPipeRel_.clear();
    for (const auto &pp : rs.pipes) {
        rpPipes_.push_back(pp.get());
        rpPipeStart_.push_back(static_cast<int32_t>(rpPipeRel_.size()));
        for (uint32_t i = 0; i < pp->count; ++i)
            rpPipeRel_.push_back(
                pp->times[(pp->head + i) & pp->mask] - now);
    }
    rpPipeStart_.push_back(static_cast<int32_t>(rpPipeRel_.size()));
}

void
Machine::jitArm(int r)
{
    jitFn_ = nullptr;
    jitUsable_ = false;
    jitLowered_ = false;
    jitRegion_ = r;
    jitArmReplayed0_ = cyclesReplayed_;
}

void
Machine::jitLower()
{
    jitLowered_ = true;
    const int r = jitRegion_;
    const RegionPlan &plan = plans_[static_cast<size_t>(r)];
    const auto &slots = rpSlots_[static_cast<size_t>(r)];
    jit::KernelBuilder b;
    jitLastPorts_.clear();
    jitSinkDeltas_.clear();
    // Elements deliverElement() would see per period, per out port
    // (the kernel pushes values but leaves the sink seen/taken
    // counters to the chunk-end fix-up).
    std::map<OutPortSim *, int64_t> delivered;
    for (const RpAction &a : rpProg_) {
        switch (a.op) {
          case RpAction::Latch:
            b.latch(plan.steps[a.idx].port);
            break;
          case RpAction::Fire:
            b.fire(plan.steps[a.idx]);
            break;
          case RpAction::LatchFire:
            b.latchFire(plan.steps[a.idx]);
            break;
          case RpAction::Inst:
            b.inst(plan.steps[a.idx],
                   plan.steps[a.idx].kind == detail::PlanStep::InstAcc);
            break;
          case RpAction::InstFAdd2:
            b.inst2(plan.steps[a.idx], OpCode::FAdd);
            break;
          case RpAction::InstFMul2:
            b.inst2(plan.steps[a.idx], OpCode::FMul);
            break;
          case RpAction::InstAdd2:
            b.inst2(plan.steps[a.idx], OpCode::Add);
            break;
          case RpAction::InstMul2:
            b.inst2(plan.steps[a.idx], OpCode::Mul);
            break;
          case RpAction::SelfAcc:
            b.selfAcc(plan.steps[a.idx], false, a.flags & 1);
            break;
          case RpAction::SelfAccF:
            b.selfAcc(plan.steps[a.idx], true, a.flags & 1);
            break;
          case RpAction::OutDeliver: {
            const detail::PlanStep &s = plan.steps[a.idx];
            b.outDeliver(s);
            delivered[s.outPort] += s.nOut;
            break;
          }
          case RpAction::OutDiscard:
            b.outDiscard(plan.steps[a.idx]);
            break;
          case RpAction::OutLatch: {
            const detail::PlanStep &s = plan.steps[a.idx];
            b.outLatch(s);
            jitLastPorts_.push_back(s.outPort);
            break;
          }
          case RpAction::Deliver: {
            const ReplaySlot &sl = slots[a.idx];
            jit::StreamRef sr;
            sr.kind = sl.kind;
            sr.elemB = sl.elemB;
            sr.idxElemB = sl.idxElemB;
            sr.base = sl.base;
            sr.updateFn = sl.updateFn;
            sr.se = sl.se;
            sr.space = sl.space;
            sr.idxSpace = sl.idxSpace;
            sr.constValue = sl.se->st->constValue;
            b.deliver(sr, a.n);
            break;
          }
        }
        if (!b.ok())
            return; // shape the emitter cannot lower: interpret
    }
    for (auto &[op, n] : delivered)
        for (OutSink &sk : op->sinks)
            jitSinkDeltas_.push_back(
                {&sk, n, sk.wants() ? n : static_cast<int64_t>(0)});
    std::sort(jitLastPorts_.begin(), jitLastPorts_.end());
    jitLastPorts_.erase(
        std::unique(jitLastPorts_.begin(), jitLastPorts_.end()),
        jitLastPorts_.end());

    jit::Emitted em = b.finish();
    if (em.source.empty())
        return;
    jitEm_ = std::move(em);
    jitKey_ = jit::JitRuntime::keyOf(jitEm_.source);
    // Break-even gate for jitTryNative: the per-call rebind walks
    // every operand-table slot, so a chunk must simulate at least on
    // the order of that many cycles before native execution wins.
    // (Measured: the native loop gains ~25ns/cycle over interpreted
    // replay while a rebind costs a few ns/slot — one cycle per slot
    // is already conservative.)
    jitMinChunkCycles_ = static_cast<int64_t>(
        64 + jitEm_.state.size() + jitEm_.ptrs.size() +
        jitEm_.addrs.size() + jitEm_.bytes.size());
    jitUsable_ = true;
}

bool
Machine::jitTryNative(int64_t m)
{
    if (!jitLowered_) {
        // Don't even lower until the native win can pay for the
        // lowering itself: the replay volume since the arm (including
        // the chunk on offer) has to reach the per-action break-even.
        // Keeps short bursty runs (which the interpreted loop serves
        // in microseconds) from paying milliseconds of text emission
        // for nothing.
        const int64_t actions = static_cast<int64_t>(rpProg_.size());
        if (cyclesReplayed_ - jitArmReplayed0_ + m * rpPeriod_ <
            kJitLowerCyclesPerAction * actions)
            return false;
        jitLower();
    }
    if (!jitUsable_)
        return false;
    // Short chunks lose to the fixed rebind cost: run them through the
    // interpreted loop (bit-identical, just a different engine mix).
    if (m * rpPeriod_ < jitMinChunkCycles_)
        return false;
    if (!jitFn_) {
        const bool allowCompile = opts_.jitHotCycles <= 0 ||
                                  cyclesReplayed_ >= opts_.jitHotCycles;
        jitFn_ = jit::JitRuntime::instance().acquire(
            jitKey_, jitEm_.source, allowCompile);
        if (!jitFn_)
            return false;
        jitS_.resize(jitEm_.state.size());
        jitP_.resize(jitEm_.ptrs.size());
        jitA_.resize(jitEm_.addrs.size());
        jitB_.resize(jitEm_.bytes.size());
    }
    // Rebind every table: host pointers (ring storage, lastVec) can
    // move between chunks, and mutable scalars changed since.
    for (size_t i = 0; i < jitEm_.ptrs.size(); ++i) {
        const jit::PtrRef &pr = jitEm_.ptrs[i];
        switch (pr.kind) {
          case jit::PtrRef::PipeVals:
            jitP_[i] = static_cast<Pipe *>(pr.obj)->vals;
            break;
          case jit::PtrRef::PortBuf:
            jitP_[i] = static_cast<PortSim *>(pr.obj)->buf;
            break;
          case jit::PtrRef::RingData: {
            auto *se = static_cast<StreamExec *>(pr.obj);
            // The kernel never grows the ring; the recorded period's
            // peak occupancy is gate-bounded by writeBufCap, so one
            // up-front reservation covers every chunk.
            se->writeBuf.reserve(
                static_cast<uint32_t>(se->writeBufCap) * 2);
            jitP_[i] = se->writeBuf.data;
            break;
          }
          case jit::PtrRef::LastVec: {
            auto *op = static_cast<OutPortSim *>(pr.obj);
            if (op->lastVec.size() != static_cast<size_t>(pr.n))
                op->lastVec.resize(static_cast<size_t>(pr.n));
            jitP_[i] = op->lastVec.data();
            break;
          }
          default:
            DSA_ASSERT(false, "bad jit pointer binding");
        }
    }
    for (size_t i = 0; i < jitEm_.addrs.size(); ++i) {
        const jit::PtrRef &pr = jitEm_.addrs[i];
        auto *se = static_cast<StreamExec *>(pr.obj);
        jitA_[i] = reinterpret_cast<const long long *>(
            pr.kind == jit::PtrRef::IdxAddrs ? se->idxAddrs.data()
                                             : se->addrs.data());
    }
    for (size_t i = 0; i < jitEm_.bytes.size(); ++i)
        jitB_[i] = static_cast<AddressSpace *>(jitEm_.bytes[i].obj)
                       ->data();
    for (size_t i = 0; i < jitEm_.state.size(); ++i) {
        const jit::StateRef &st = jitEm_.state[i];
        switch (st.kind) {
          case jit::StateRef::Const:
            jitS_[i] = st.constV;
            break;
          case jit::StateRef::U32:
            jitS_[i] = *static_cast<uint32_t *>(st.p);
            break;
          case jit::StateRef::U64:
            jitS_[i] = static_cast<long long>(
                *static_cast<uint64_t *>(st.p));
            break;
          case jit::StateRef::Size:
            jitS_[i] = static_cast<long long>(
                *static_cast<size_t *>(st.p));
            break;
        }
    }

    jitFn_(m, jitS_.data(), jitP_.data(), jitA_.data(), jitB_.data(),
           jitEm_.fns.data(), &jit::dsaJitTrap);

    for (size_t i = 0; i < jitEm_.state.size(); ++i) {
        const jit::StateRef &st = jitEm_.state[i];
        if (!st.writeback)
            continue;
        switch (st.kind) {
          case jit::StateRef::U32:
            *static_cast<uint32_t *>(st.p) =
                static_cast<uint32_t>(jitS_[i]);
            break;
          case jit::StateRef::U64:
            *static_cast<uint64_t *>(st.p) =
                static_cast<uint64_t>(jitS_[i]);
            break;
          case jit::StateRef::Size:
            *static_cast<size_t *>(st.p) =
                static_cast<size_t>(jitS_[i]);
            break;
          case jit::StateRef::Const:
            break;
        }
    }
    // Host-side per-element effects the kernel elides: sink counters
    // (wants() is pinned by the armed snapshot, so the deltas are
    // exact multiples) and OutLast validity.
    for (const JitSinkDelta &d : jitSinkDeltas_) {
        d.sink->seen += d.seenPer * m;
        d.sink->taken += d.takenPer * m;
    }
    for (OutPortSim *op : jitLastPorts_)
        op->lastValid = true;
    cyclesJit_ += m * rpPeriod_;
    return true;
}

void
Machine::replayRun(int64_t now, int64_t m)
{
    RegionSim &rs = regions_[static_cast<size_t>(rpRegion_)];
    const RegionPlan &plan = plans_[static_cast<size_t>(rpRegion_)];
    const auto &slots = rpSlots_[static_cast<size_t>(rpRegion_)];
    const RpAction *prog = rpProg_.data();
    const size_t na = rpProg_.size();
    // Native fast path: once the jit kernel for the armed program is
    // ready it performs exactly the hot loop below (same mutations,
    // same order); the chunk-end fix-ups further down are shared.
    const bool native = jitWanted_ && jitTryNative(m);
    // Hot loop: the period's actions, value-only. Timestamps, fire/pop
    // counters, arbitration stamps, and reuse state are reconstructed
    // once at chunk end (see below); correctness rests on the armed
    // snapshot pinning every gate-relevant residue.
    for (int64_t k = 0; !native && k < m; ++k) {
        for (size_t e = 0; e < na; ++e) {
            const RpAction &a = prog[e];
            detail::PlanStep &s = plan.steps[a.idx];
            switch (a.op) {
              case RpAction::Latch: {
                PortSim &ps = *s.port;
                ps.current[0] = ps.buf[ps.bufHead];
                ps.bufHead = (ps.bufHead + 1) & ps.bufMask;
                --ps.bufCount;
                break;
              }
              case RpAction::Fire: {
                Value v = s.port->current[0];
                for (int j = 0; j < s.nOut; ++j)
                    pushVal(s.outs[j], v);
                break;
              }
              case RpAction::LatchFire: {
                PortSim &ps = *s.port;
                Value v = ps.buf[ps.bufHead];
                ps.current[0] = v;
                ps.bufHead = (ps.bufHead + 1) & ps.bufMask;
                --ps.bufCount;
                for (int j = 0; j < s.nOut; ++j)
                    pushVal(s.outs[j], v);
                break;
              }
              case RpAction::Inst: {
                Value va = s.in[0] ? s.in[0]->front() : s.imm[0];
                Value vb = s.nIn > 1
                    ? (s.in[1] ? s.in[1]->front() : s.imm[1])
                    : 0;
                Value vc = s.nIn > 2
                    ? (s.in[2] ? s.in[2]->front() : s.imm[2])
                    : 0;
                Value rv = s.fn(va, vb, vc,
                                s.kind == detail::PlanStep::InstAcc
                                    ? &s.inst->acc
                                    : nullptr);
                for (int j = 0; j < s.nIn; ++j)
                    if (s.in[j])
                        s.in[j]->pop();
                for (int j = 0; j < s.nOut; ++j)
                    pushVal(s.outs[j], rv);
                break;
              }
              case RpAction::InstFAdd2:
              case RpAction::InstFMul2:
              case RpAction::InstAdd2:
              case RpAction::InstMul2: {
                Pipe *p0 = s.in[0];
                Pipe *p1 = s.in[1];
                Value va = p0->vals[p0->head];
                Value vb = p1->vals[p1->head];
                Value rv;
                if (a.op == RpAction::InstFAdd2)
                    rv = fromF64(asF64(va) + asF64(vb));
                else if (a.op == RpAction::InstFMul2)
                    rv = fromF64(asF64(va) * asF64(vb));
                else if (a.op == RpAction::InstAdd2)
                    rv = va + vb;
                else
                    rv = static_cast<Value>(
                        static_cast<int64_t>(va) *
                        static_cast<int64_t>(vb));
                p0->pop();
                p1->pop();
                for (int j = 0; j < s.nOut; ++j)
                    pushVal(s.outs[j], rv);
                break;
              }
              case RpAction::SelfAcc:
              case RpAction::SelfAccF: {
                InstSim &is = *s.inst;
                Value v = s.in[0] ? s.in[0]->front() : s.imm[0];
                is.acc = a.op == RpAction::SelfAccF
                    ? fromF64(asF64(is.acc) + asF64(v))
                    : s.fn(is.acc, v, 0, nullptr);
                Value rv = is.acc;
                for (int j = 0; j < s.nIn; ++j)
                    if (s.in[j])
                        s.in[j]->pop();
                for (int j = 0; j < s.nOut; ++j)
                    pushVal(s.outs[j], rv);
                if (a.flags & 1)
                    is.acc = s.accInit;
                break;
              }
              case RpAction::OutDeliver: {
                OutPortSim &op = *s.outPort;
                for (int j = 0; j < s.nOut; ++j) {
                    Value v = s.outs[j]->front();
                    s.outs[j]->pop();
                    op.deliverElement(v);
                }
                break;
              }
              case RpAction::OutDiscard:
                for (int j = 0; j < s.nOut; ++j)
                    s.outs[j]->pop();
                break;
              case RpAction::OutLatch: {
                OutPortSim &op = *s.outPort;
                if (op.lastVec.size() != static_cast<size_t>(s.nOut))
                    op.lastVec.resize(static_cast<size_t>(s.nOut));
                for (int j = 0; j < s.nOut; ++j) {
                    op.lastVec[static_cast<size_t>(j)] =
                        s.outs[j]->front();
                    s.outs[j]->pop();
                }
                op.lastValid = true;
                break;
              }
              case RpAction::Deliver:
                execSlot(slots[a.idx], a.n, 0);
                break;
            }
        }
    }
    // Chunk-end fix-ups: reconstruct everything the hot loop elided.
    const int64_t exitNow = now + m * rpPeriod_;
    const int64_t lastBase = now + (m - 1) * rpPeriod_;
    for (size_t i = 0; i < rpPipes_.size(); ++i) {
        Pipe *pp = rpPipes_[i];
        const int32_t b0 = rpPipeStart_[i];
        const int32_t cnt = rpPipeStart_[i + 1] - b0;
        DSA_ASSERT(static_cast<int32_t>(pp->count) == cnt,
                   "pipe occupancy must recur at the period boundary");
        for (int32_t j = 0; j < cnt; ++j)
            pp->times[(pp->head + static_cast<uint32_t>(j)) &
                      pp->mask] =
                rpPipeRel_[static_cast<size_t>(b0 + j)] + exitNow;
    }
    for (int i = 0; i < plan.numSteps; ++i) {
        const int64_t f = rpStepFires_[static_cast<size_t>(i)];
        const int64_t l = rpStepLatches_[static_cast<size_t>(i)];
        if (f == 0 && l == 0)
            continue;
        detail::PlanStep &s = plan.steps[i];
        switch (s.kind) {
          case detail::PlanStep::PortSimple: {
            PortSim &ps = *s.port;
            ps.pops += f * m;
            if (f > 0)
                ps.lastPop =
                    lastBase + rpStepLastOff_[static_cast<size_t>(i)];
            ps.reuseLeft = rpStepReuse_[static_cast<size_t>(i)];
            break;
          }
          case detail::PlanStep::InstSimple:
          case detail::PlanStep::InstAcc:
          case detail::PlanStep::InstSelfAcc: {
            InstSim &is = *s.inst;
            is.fires += f * m;
            is.lastFire =
                lastBase + rpStepLastOff_[static_cast<size_t>(i)];
            break;
          }
          case detail::PlanStep::OutSimple:
          case detail::PlanStep::OutEvery:
          case detail::PlanStep::OutLast:
            s.outPort->fires += f * m;
            break;
          default:
            break;
        }
    }
    if (rpLastFireOff_ >= 0)
        rs.lastActivity = lastBase + rpLastFireOff_;
    for (size_t mi = 0; mi < memPlans_.size(); ++mi)
        memPlans_[mi].bytes += rpBytesPeriod_[mi] * m;
}

void
Machine::buildRegion(int r)
{
    const Region &reg = prog_.regions[r];
    const auto &rsch = sched_.regions[r];
    RegionSim &rs = regions_[r];
    rs.reg = &reg;
    rs.idx = r;
    rs.inPorts.resize(reg.dfg.numVertices());
    rs.outPorts.resize(reg.dfg.numVertices());
    rs.streams.resize(reg.streams.size());
    rs.outerIdx.assign(reg.outerLoops.size(), 0);

    // Route length lookup.
    auto routeLen = [&](VertexId consumer, int opIdx) -> int {
        auto it = rsch.routes.find({consumer, opIdx});
        if (it == rsch.routes.end())
            return 1;
        return std::max(1, static_cast<int>(it->second.size()));
    };

    // Size the per-region pools once (pipes hand out stable pointers,
    // so reserving is about allocation churn, not correctness).
    size_t numInsts = 0;
    size_t numEdges = 0;
    for (const Vertex &vx : reg.dfg.vertices()) {
        if (vx.kind == VertexKind::Instruction)
            ++numInsts;
        for (const auto &op : vx.operands)
            if (!op.isImm())
                ++numEdges;
    }
    rs.insts.reserve(numInsts);
    rs.pipes.reserve(numEdges);

    // Instruction sims (indexed later through a map).
    std::map<VertexId, size_t> instIdx;
    for (const Vertex &vx : reg.dfg.vertices()) {
        if (vx.kind != VertexKind::Instruction)
            continue;
        instIdx[vx.id] = rs.insts.size();
        rs.insts.emplace_back();
        InstSim &is = rs.insts.back();
        is.vx = &vx;
        is.acc = vx.accInit;
        is.pe = reg.serialized ? adg::kInvalidNode : rsch.vertexMap[vx.id];
        is.sharedPe = is.pe != adg::kInvalidNode &&
                      adg_.node(is.pe).pe().sharing == Sharing::Shared;
    }

    // Pipes for every value edge (ring storage from the arena).
    auto makePipe = [&](int latency) -> Pipe * {
        rs.pipes.push_back(std::make_unique<Pipe>());
        Pipe *p = rs.pipes.back().get();
        p->latency = std::max(1, latency);
        p->capacity = p->latency + 8;
        p->allocate(arena_);
        return p;
    };

    for (const Vertex &vx : reg.dfg.vertices()) {
        if (vx.kind == VertexKind::InputPort) {
            PortSim &ps = rs.inPorts[vx.id];
            ps.lanes = vx.lanes;
            ps.reuse = vx.reuse;
            ps.lanePipes.assign(vx.lanes, {});
            ps.capacity = std::max(64, vx.lanes * 8);
            if (reg.serialized)
                ps.minPopInterval =
                    std::max(1, reg.serialDependenceLatency);
            ps.allocate(arena_);
            continue;
        }
        // Instruction or output port: wire operand pipes.
        std::vector<Pipe *> inPipes;
        std::vector<Value> imms;
        for (size_t i = 0; i < vx.operands.size(); ++i) {
            const auto &op = vx.operands[i];
            if (op.isImm()) {
                inPipes.push_back(nullptr);
                imms.push_back(op.imm);
                continue;
            }
            const Vertex &src = reg.dfg.vertex(op.src);
            int lat = routeLen(vx.id, static_cast<int>(i));
            if (src.kind == VertexKind::Instruction)
                lat += opInfo(src.op).latency;
            Pipe *p = makePipe(lat);
            inPipes.push_back(p);
            imms.push_back(0);
            if (src.kind == VertexKind::InputPort) {
                rs.inPorts[op.src].lanePipes[op.srcLane].push_back(p);
            } else {
                rs.insts[instIdx[op.src]].outPipes.push_back(p);
            }
        }
        if (vx.kind == VertexKind::Instruction) {
            InstSim &is = rs.insts[instIdx[vx.id]];
            is.inPipes = std::move(inPipes);
            is.imms = std::move(imms);
        } else {
            OutPortSim &op = rs.outPorts[vx.id];
            op.lanes = vx.lanes;
            op.outputEvery = vx.outputEvery;
            // Zero-trip reductions fall back to the accumulator's init.
            if (vx.operands.size() == 1 && !vx.operands[0].isImm()) {
                const Vertex &src = reg.dfg.vertex(vx.operands[0].src);
                if (src.isAccumulate()) {
                    op.hasFallback = true;
                    op.fallbackInit = src.accInit;
                }
            }
            op.lanePipes = std::move(inPipes);
            op.scratch.reserve(op.lanePipes.size());
            DSA_ASSERT(std::none_of(op.lanePipes.begin(),
                                    op.lanePipes.end(),
                                    [](Pipe *p) { return !p; }),
                       "output port with immediate operand");
        }
    }

    // Streams.
    for (const Stream &st : reg.streams) {
        StreamExec &se = rs.streams[st.id];
        se.st = &st;
        se.regionIdx = r;
        if (st.feedsInput() && st.kind != StreamKind::Recurrence)
            se.target = &rs.inPorts[st.port];
    }
    // Attach write/recurrence sinks to output ports.
    for (const Stream &st : reg.streams) {
        StreamExec &se = rs.streams[st.id];
        switch (st.kind) {
          case StreamKind::LinearWrite: {
            OutSink sink;
            sink.kind = OutSink::Kind::Write;
            sink.skip = st.skipFirst;
            sink.write = &se;
            rs.outPorts[st.port].sinks.push_back(sink);
            break;
          }
          case StreamKind::IndirectWrite:
          case StreamKind::AtomicUpdate: {
            OutSink sink;
            sink.kind = OutSink::Kind::Write;
            sink.skip = st.skipFirst;
            sink.write = &se;
            rs.outPorts[st.valuePort].sinks.push_back(sink);
            break;
          }
          case StreamKind::Recurrence: {
            OutSink sink;
            sink.kind = OutSink::Kind::Recurrence;
            sink.skip = st.skipFirst;
            sink.take = st.recurrenceCount;
            sink.target = &rs.inPorts[st.port];
            rs.outPorts[st.srcPort].sinks.push_back(sink);
            break;
          }
          default:
            break;
        }
    }

    // Quiescence window: longest pipe + margin. The pipe set is fixed
    // after build, so this is a per-region constant (used to be
    // recomputed on every issue).
    int maxLat = 1;
    for (const auto &p : rs.pipes)
        maxLat = std::max(maxLat, p->latency);
    rs.quiesceWindow = maxLat + 8;
}

void
Machine::startIssue(RegionSim &rs, int64_t now,
                    const std::map<int, int64_t> *ivsOverride)
{
    const Region &reg = *rs.reg;
    // Outer-loop induction values for this issue.
    std::map<int, int64_t> ivs;
    if (ivsOverride) {
        ivs = *ivsOverride;
    } else {
        for (size_t i = 0; i < reg.outerLoops.size(); ++i)
            ivs[reg.outerLoops[i].first] = rs.outerIdx[i];
    }

    auto shifts = [&](const std::map<int, int64_t> &coeffs) {
        int64_t s = 0;
        for (const auto &[id, c] : coeffs) {
            auto it = ivs.find(id);
            if (it != ivs.end())
                s += c * it->second;
        }
        return s;
    };

    for (StreamExec &se : rs.streams) {
        const Stream &st = *se.st;
        se.pos = 0;
        se.writeBuf.clear();
        se.openDone = false;
        se.nextReady = now;
        int64_t lenShift = shifts(st.reissueLenCoeffs);
        switch (st.kind) {
          case StreamKind::LinearRead:
          case StreamKind::LinearWrite:
            se.addrs = expandPattern(st.pattern,
                                     shifts(st.reissueCoeffs), lenShift);
            break;
          case StreamKind::IndirectRead:
          case StreamKind::IndirectWrite:
          case StreamKind::AtomicUpdate:
            se.idxAddrs = expandPattern(st.idxPattern,
                                        shifts(st.idxReissueCoeffs),
                                        lenShift);
            se.addrs.assign(se.idxAddrs.size(), 0);  // filled at gather
            break;
          case StreamKind::Const:
            se.addrs.assign(static_cast<size_t>(st.constCount), 0);
            break;
          case StreamKind::Iota:
            se.addrs = expandPattern(st.pattern, 0, lenShift);
            break;
          case StreamKind::Recurrence:
            // Handled through the out-port sink; nothing to enumerate.
            se.addrs.clear();
            break;
        }
    }
    // Reset ports and accumulators for a fresh issue (but keep
    // recurrence-fed data on non-first issues? — recurrences only
    // exist within a single folded issue, so a full reset is right).
    for (auto &ps : rs.inPorts)
        ps.resetForIssue();
    for (auto &op : rs.outPorts)
        op.resetForIssue();
    for (auto &is : rs.insts) {
        is.acc = is.vx->accInit;
        is.fires = 0;
        // Flush stale pipe contents.
        for (Pipe *p : is.outPipes)
            p->clear();
        for (Pipe *p : is.inPipes)
            if (p)
                p->clear();
    }
    rs.lastActivity = now;
    setState(rs, RegionState::Running);
}

void
Machine::finalizeIssue(RegionSim &rs, int64_t now)
{
    // Deliver final values of last-only output ports.
    for (auto &op : rs.outPorts) {
        if (op.outputEvery == -1 && !op.lastValid && op.hasFallback &&
            !op.lanePipes.empty()) {
            op.lastVec.assign(static_cast<size_t>(op.lanes),
                              op.fallbackInit);
            op.lastValid = true;
        }
        if (op.outputEvery == -1 && op.lastValid) {
            for (Value v : op.lastVec)
                op.deliverElement(v);
            op.lastValid = false;
        }
    }
    // Open-ended writes learn their end.
    for (StreamExec &se : rs.streams)
        if (se.st->openEnded)
            se.openDone = true;
    rs.lastActivity = now;
    setState(rs, RegionState::Finalizing);
}

bool
Machine::advanceIssue(RegionSim &rs)
{
    const Region &reg = *rs.reg;
    for (int i = static_cast<int>(rs.outerIdx.size()) - 1; i >= 0; --i) {
        if (++rs.outerIdx[i] < reg.outerLoops[i].second)
            return true;
        rs.outerIdx[i] = 0;
    }
    return false;
}

void
Machine::tickStreams(int64_t now, bool &activity)
{
    // Per-memory bandwidth arbitration over build-time plans. The plan
    // lists each memory's streams in the naive sweep's scan order with
    // the stream->memory binding already decided, so the arbitration
    // outcome (who gets the bytes) is identical to the original
    // alive-memories x regions x streams triple loop.
    for (MemPlan &mp : memPlans_) {
        int budget = mp.widthBytes;
        const int startBudget = budget;
        int bankBudget = mp.numBanks;
        AddressSpace &space = *mp.space;
        for (const MemPlan::Bound &bound : mp.streams) {
            if (budget <= 0)
                break;  // never recovers within a cycle
            RegionSim &rs = *bound.rs;
            if (rs.state != RegionState::Running &&
                rs.state != RegionState::Finalizing)
                continue;
            StreamExec &se = *bound.se;
            const Stream &st = *se.st;
            int elemB = st.pattern.elemBytes;
            auto throttled = [&]() {
                if (!st.scalarFallback)
                    return false;
                if (now < se.nextReady)
                    return true;
                return false;
            };
            auto consumeThrottle = [&]() {
                if (st.scalarFallback)
                    se.nextReady = now + opts_.scalarElementInterval;
            };
            switch (st.kind) {
              case StreamKind::LinearRead: {
                if (st.scalarFallback) {
                    if (!se.readsDone() && budget >= elemB &&
                        se.target->roomFor(1) && !throttled()) {
                        se.target->deliver(
                            space.load(se.addrs[se.pos], elemB));
                        ++se.pos;
                        budget -= elemB;
                        consumeThrottle();
                        activity = true;
                    }
                    break;
                }
                // Batched delivery: the per-element loop's three gates
                // (elements left, byte budget, port room) are all
                // monotone within a cycle, so the element count is
                // just their min — then the copy runs gate-free.
                PortSim &t = *se.target;
                int64_t n = static_cast<int64_t>(se.addrs.size()) -
                            static_cast<int64_t>(se.pos);
                n = std::min<int64_t>(n, budget / elemB);
                n = std::min<int64_t>(
                    n, t.capacity - static_cast<int>(t.bufCount));
                if (n > 0) {
                    const int64_t *addrs = se.addrs.data() + se.pos;
                    uint32_t idx = t.bufHead + t.bufCount;
                    for (int64_t i = 0; i < n; ++i)
                        t.buf[(idx + static_cast<uint32_t>(i)) &
                              t.bufMask] = space.load(addrs[i], elemB);
                    t.bufCount += static_cast<uint32_t>(n);
                    se.pos += static_cast<size_t>(n);
                    budget -= static_cast<int>(n) * elemB;
                    activity = true;
                    if (recN_ && bound.recSlot >= 0)
                        recN_[bound.recSlot] = static_cast<int32_t>(n);
                }
                break;
              }
              case StreamKind::IndirectRead: {
                AddressSpace &idxSpace = *se.idxSpace;
                int32_t delivered = 0;
                while (!se.readsDone() &&
                       budget >= elemB + st.idxElemBytes &&
                       bankBudget > 0 && se.target->roomFor(1) &&
                       !throttled()) {
                    int64_t idxV = static_cast<int64_t>(idxSpace.load(
                        se.idxAddrs[se.pos], st.idxElemBytes));
                    int64_t addr =
                        st.pattern.baseBytes + idxV * elemB;
                    se.target->deliver(space.load(addr, elemB));
                    ++se.pos;
                    budget -= elemB + st.idxElemBytes;
                    --bankBudget;
                    consumeThrottle();
                    activity = true;
                    ++delivered;
                    if (st.scalarFallback)
                        break;
                }
                if (recN_ && bound.recSlot >= 0 && delivered > 0)
                    recN_[bound.recSlot] = delivered;
                break;
              }
              case StreamKind::LinearWrite: {
                if (st.scalarFallback) {
                    if (!se.writeBuf.empty() && budget >= elemB &&
                        se.pos < se.addrs.size() && !throttled()) {
                        space.store(se.addrs[se.pos], elemB,
                                    se.writeBuf.front());
                        se.writeBuf.pop_front();
                        ++se.pos;
                        budget -= elemB;
                        consumeThrottle();
                        activity = true;
                    }
                    break;
                }
                int64_t n = static_cast<int64_t>(se.writeBuf.size());
                n = std::min<int64_t>(n, budget / elemB);
                n = std::min<int64_t>(
                    n, static_cast<int64_t>(se.addrs.size()) -
                           static_cast<int64_t>(se.pos));
                if (n > 0) {
                    const int64_t *addrs = se.addrs.data() + se.pos;
                    for (int64_t i = 0; i < n; ++i)
                        space.store(addrs[i], elemB,
                                    se.writeBuf[static_cast<size_t>(i)]);
                    se.writeBuf.erase_front(static_cast<size_t>(n));
                    se.pos += static_cast<size_t>(n);
                    budget -= static_cast<int>(n) * elemB;
                    activity = true;
                    if (recN_ && bound.recSlot >= 0)
                        recN_[bound.recSlot] = static_cast<int32_t>(n);
                }
                break;
              }
              case StreamKind::IndirectWrite:
              case StreamKind::AtomicUpdate: {
                AddressSpace &idxSpace = *se.idxSpace;
                bool atomic = st.kind == StreamKind::AtomicUpdate;
                int cost = elemB + st.idxElemBytes +
                           (atomic ? elemB : 0);
                int32_t delivered = 0;
                while (!se.writeBuf.empty() && budget >= cost &&
                       bankBudget > 0 && se.pos < se.addrs.size() &&
                       !throttled()) {
                    int64_t idxV = static_cast<int64_t>(idxSpace.load(
                        se.idxAddrs[se.pos], st.idxElemBytes));
                    int64_t addr =
                        st.pattern.baseBytes + idxV * elemB;
                    Value v = se.writeBuf.front();
                    se.writeBuf.pop_front();
                    if (atomic) {
                        Value old = space.load(addr, elemB);
                        v = evalOp(st.updateOp, old, v, 0, nullptr);
                    }
                    space.store(addr, elemB, v);
                    ++se.pos;
                    budget -= cost;
                    --bankBudget;
                    consumeThrottle();
                    activity = true;
                    ++delivered;
                    if (st.scalarFallback)
                        break;
                }
                if (recN_ && bound.recSlot >= 0 && delivered > 0)
                    recN_[bound.recSlot] = delivered;
                break;
              }
              default:
                break;
            }
        }
        mp.bytes += startBudget - budget;
    }

    // Memory-less generators: const / iota.
    for (RegionSim &rs : regions_) {
        if (rs.genStreams.empty() || rs.state != RegionState::Running)
            continue;
        for (size_t k = 0; k < rs.genStreams.size(); ++k) {
            int sid = rs.genStreams[k];
            StreamExec &se = rs.streams[sid];
            const Stream &st = *se.st;
            PortSim &t = *se.target;
            int64_t n = static_cast<int64_t>(se.addrs.size()) -
                        static_cast<int64_t>(se.pos);
            n = std::min<int64_t>(
                n, t.capacity - static_cast<int>(t.bufCount));
            if (st.kind != StreamKind::Const)
                n = std::min<int64_t>(n, 8);  // iota rate limit
            if (n > 0) {
                uint32_t idx = t.bufHead + t.bufCount;
                if (st.kind == StreamKind::Const) {
                    for (int64_t i = 0; i < n; ++i)
                        t.buf[(idx + static_cast<uint32_t>(i)) &
                              t.bufMask] = st.constValue;
                } else {
                    const int64_t *vals = se.addrs.data() + se.pos;
                    for (int64_t i = 0; i < n; ++i)
                        t.buf[(idx + static_cast<uint32_t>(i)) &
                              t.bufMask] =
                            static_cast<Value>(vals[i]);
                }
                t.bufCount += static_cast<uint32_t>(n);
                se.pos += static_cast<size_t>(n);
                activity = true;
                if (recN_) {
                    int slot = genRecSlots_[rs.idx][k];
                    if (slot >= 0)
                        recN_[slot] = static_cast<int32_t>(n);
                }
            }
        }
    }
}

void
Machine::tickRegion(RegionSim &rs, int64_t now, bool &activity)
{
    switch (rs.state) {
      case RegionState::WaitDep: {
        if (prog_.regions[rs.idx].configGroup != activeGroup_)
            return;  // fabric holds a different configuration
        bool ready = true;
        for (int dep : rs.waitOnRegions)
            ready &= regions_[dep].state == RegionState::Complete;
        if (ready) {
            setState(rs, RegionState::WaitCmd);
            rs.stateUntil = now + issueOverhead(rs);
        }
        return;
      }
      case RegionState::WaitCmd:
        if (prog_.regions[rs.idx].configGroup != activeGroup_)
            return;
        if (now >= rs.stateUntil && now >= reconfigUntil_)
            startIssue(rs, now, seq_ ? &scriptIvs_ : nullptr);
        return;
      case RegionState::Complete:
      case RegionState::DoneIssue:
        return;
      case RegionState::Running:
      case RegionState::Finalizing:
        break;
    }

    for (int v : rs.realInPorts) {
        if (rs.inPorts[v].tryFire(now)) {  // one vector per port/cycle
            rs.lastActivity = now;
            activity = true;
        }
    }
    for (auto &is : rs.insts)
        detail::genericFire(rs, is, now, activity, peFiredCycle_.data());
    for (int v : rs.realOutPorts) {
        if (rs.outPorts[v].tryFire(now)) {
            rs.lastActivity = now;
            activity = true;
        }
    }

    regionPhaseTail(rs, now);
}

void
Machine::tickCompiled(RegionSim &rs, int64_t now, bool &activity)
{
    // Running-state regions only: the burst dispatcher routes every
    // other lifecycle state through the interpreted tick.
    if (recording_ && rs.idx == rpRegion_) {
        detail::runPlanRecord(rs, plans_[static_cast<size_t>(rs.idx)],
                              now, activity, peFiredCycle_.data(),
                              rpFired_, rpLatched_);
        regionPhaseTail(rs, now);
        return;
    }
    detail::runPlan(rs, plans_[static_cast<size_t>(rs.idx)], now,
                    activity, peFiredCycle_.data());
    regionPhaseTail(rs, now);
}

void
Machine::regionPhaseTail(RegionSim &rs, int64_t now)
{
    if (rs.state == RegionState::Running) {
        // Pure predicates over a conjunction: cheapest first (the
        // quiesce-window test almost always fails in steady state).
        if (now - rs.lastActivity > rs.quiesceWindow &&
            rs.allReadsDone() && forwardsSatisfied(rs))
            finalizeIssue(rs, now);
    } else if (rs.state == RegionState::Finalizing) {
        if (rs.allWritesDone() || now - rs.lastActivity >
                                      4 * rs.quiesceWindow + 64) {
            // Move to the next issue (or complete).
            ++rs.completedIssues;
            if (seq_) {
                // The phase-script controller schedules the next issue.
                setState(rs, RegionState::DoneIssue);
                rs.endCycle = now;
            } else if (advanceIssue(rs)) {
                setState(rs, RegionState::WaitCmd);
                int64_t overhead = rs.reg->drainBetweenReissues
                    ? issueOverhead(rs)
                    : std::max<int64_t>(1, issueOverhead(rs) / 4);
                rs.stateUntil = now + overhead;
            } else {
                setState(rs, RegionState::Complete);
                rs.endCycle = now;
            }
        }
    }
}

void
Machine::setState(RegionSim &rs, RegionState st)
{
    rs.state = st;
    stateChanged_ = true;
    activeDirty_ = true;
}

void
Machine::refreshActiveRegions()
{
    activeRegions_.clear();
    for (const RegionSim &rs : regions_)
        if (rs.state != RegionState::Complete &&
            rs.state != RegionState::DoneIssue)
            activeRegions_.push_back(rs.idx);
    activeDirty_ = false;
}

bool
Machine::tickSequencer(int64_t now)
{
    size_t prevScriptPos = scriptPos_;
    bool prevScriptEntry = scriptEntryActive_;
    int prevGroup = activeGroup_;

    if (seq_) {
        // Sequential phase-script controller.
        if (scriptEntryActive_) {
            RegionSim &cur =
                regions_[prog_.phaseScript[scriptPos_].region];
            if (cur.state == RegionState::DoneIssue) {
                scriptEntryActive_ = false;
                ++scriptPos_;
            }
        }
        if (!scriptEntryActive_ &&
            scriptPos_ < prog_.phaseScript.size()) {
            const auto &e = prog_.phaseScript[scriptPos_];
            RegionSim &rs = regions_[e.region];
            scriptIvs_.clear();
            for (const auto &[id, v] : e.ivs)
                scriptIvs_[id] = v;
            int g = prog_.regions[e.region].configGroup;
            if (g != activeGroup_) {
                activeGroup_ = g;
                reconfigUntil_ = now + reconfigCycles_;
            }
            setState(rs, RegionState::WaitCmd);
            rs.stateUntil = now + issueOverhead(rs);
            scriptEntryActive_ = true;
        }
    } else {
        // Advance the configuration when the active group retires.
        bool groupDone = true;
        bool anyLater = false;
        int nextGroup = INT_MAX;
        for (RegionSim &rs : regions_) {
            int g = prog_.regions[rs.idx].configGroup;
            if (g == activeGroup_ &&
                rs.state != RegionState::Complete)
                groupDone = false;
            if (g > activeGroup_ &&
                rs.state != RegionState::Complete) {
                anyLater = true;
                nextGroup = std::min(nextGroup, g);
            }
        }
        if (groupDone && anyLater) {
            activeGroup_ = nextGroup;
            reconfigUntil_ = now + reconfigCycles_;
        }
    }

    return scriptPos_ != prevScriptPos ||
           scriptEntryActive_ != prevScriptEntry ||
           activeGroup_ != prevGroup;
}

void
Machine::pumpForwards(int64_t now, bool &activity)
{
    // Pump forwarded scalars into starving consumer ports. The counter
    // gate makes this free while every channel is drained (the common
    // state between producer bursts).
    if (fwdNonEmpty_ == 0)
        return;
    for (size_t fi = 0; fi < prog_.forwards.size(); ++fi) {
        FwdQueue &q = fwdQueues_[fi];
        if (q.empty())
            continue;
        const auto &f = prog_.forwards[fi];
        RegionSim &dst = regions_[f.dstRegion];
        if (dst.state != RegionState::Running &&
            dst.state != RegionState::Finalizing)
            continue;
        PortSim &port = dst.inPorts[f.dstPort];
        // Refill an idle staging buffer up to one vector's worth of
        // lanes — no further. The queue must outlive the consumer's
        // issues: anything still buffered in the port when an issue
        // retires is destroyed by resetForIssue(), so batching to port
        // *capacity* here would lose elements at issue boundaries, and
        // topping up while `reuseLeft > 0` would race the reuse
        // expiry. One vector per cycle matches the port's own fire
        // cadence exactly (and degenerates to the historical
        // one-element-per-cycle delivery for scalar ports).
        while (!q.empty() && port.reuseLeft == 0 &&
               port.bufSize() < port.lanes) {
            port.deliver(q.front());
            q.pop();
            dst.lastActivity = now;
            activity = true;
        }
    }
}

bool
Machine::allDone() const
{
    if (seq_)
        return scriptPos_ >= prog_.phaseScript.size() &&
               !scriptEntryActive_;
    for (const RegionSim &rs : regions_)
        if (rs.state != RegionState::Complete)
            return false;
    return true;
}

SimResult
Machine::run()
{
    if (seq_) {
        // The phase-script controller activates one issue at a time.
        for (RegionSim &rs : regions_)
            setState(rs, RegionState::DoneIssue);
    } else {
        // Regions with cross-region dependences wait; others start.
        for (RegionSim &rs : regions_) {
            if (!rs.waitOnRegions.empty()) {
                setState(rs, RegionState::WaitDep);
            } else {
                setState(rs, RegionState::WaitCmd);
                rs.stateUntil = issueOverhead(rs);
            }
        }
    }
    return opts_.engine == Engine::Dense ? runDense() : runSparse();
}

SimResult
Machine::runDense()
{
    SimResult res;
    int64_t now = 0;
    // Deadlock watchdog: progress = any activity (port/instruction/
    // stream fire) or any controller/region state change this cycle.
    int64_t lastProgress = 0;
    std::vector<RegionState> prevStates(regions_.size());
    for (; now < opts_.maxCycles; ++now) {
        bool activity = false;
        for (size_t r = 0; r < regions_.size(); ++r)
            prevStates[r] = regions_[r].state;

        bool ctrlMoved = tickSequencer(now);
        pumpForwards(now, activity);
        tickStreams(now, activity);
        for (RegionSim &rs : regions_)
            tickRegion(rs, now, activity);
        ++cyclesGeneric_;

        if (allDone())
            break;

        bool progress = activity || ctrlMoved;
        for (size_t r = 0; !progress && r < regions_.size(); ++r)
            progress = regions_[r].state != prevStates[r];
        if (progress)
            lastProgress = now;
        else if (opts_.progressWindow > 0 &&
                 now - lastProgress >= opts_.progressWindow) {
            res.ok = false;
            res.error = stallDiagnostic(now, lastProgress);
            res.status = Status::deadlock(res.error);
            fillStats(res, now);
            return res;
        }
        // Wall-clock watchdog, polled every 8192 cycles.
        if ((now & 0x1FFF) == 0 && opts_.deadline.expired()) {
            res.ok = false;
            res.error = "simulation wall-clock budget exhausted at cycle " +
                        std::to_string(now);
            res.status = Status::deadlineExceeded(res.error);
            fillStats(res, now);
            return res;
        }
    }
    if (now >= opts_.maxCycles) {
        res.ok = false;
        res.error = "simulation exceeded cycle limit (" +
                    std::to_string(opts_.maxCycles) + " cycles)";
        res.status = Status::resourceExhausted(res.error);
        fillStats(res, now);
        return res;
    }
    res.ok = true;
    fillStats(res, now);
    return res;
}

int64_t
Machine::nextEventTime(int64_t now) const
{
    int64_t next = INT64_MAX;
    auto consider = [&](int64_t t) {
        if (t > now && t < next)
            next = t;
    };
    for (int r : activeRegions_) {
        const RegionSim &rs = regions_[r];
        switch (rs.state) {
          case RegionState::WaitDep:
            // Released by a dependee completing or by a configuration
            // switch — both are progress events on the cycle they
            // happen, so the cycle after is always processed.
            break;
          case RegionState::WaitCmd:
            if (prog_.regions[rs.idx].configGroup == activeGroup_)
                consider(std::max(rs.stateUntil, reconfigUntil_));
            break;
          case RegionState::Running:
          case RegionState::Finalizing:
            // Quiesce / drain windows measured from last activity.
            if (rs.state == RegionState::Running)
                consider(rs.lastActivity + rs.quiesceWindow + 1);
            else
                consider(rs.lastActivity + 4 * rs.quiesceWindow + 64 +
                         1);
            // In-flight routed values (front = earliest arrival).
            for (const auto &p : rs.pipes)
                if (!p->empty())
                    consider(p->frontTime());
            // Pop-interval throttles (serialized regions).
            for (int v : rs.throttledPorts) {
                const PortSim &ps = rs.inPorts[v];
                consider(ps.lastPop + ps.minPopInterval);
            }
            // Accumulator-latency fire gates.
            for (const auto &[i, lat] : rs.accInsts)
                consider(rs.insts[i].lastFire + lat);
            // Scalar-fallback stream throttles.
            for (int sid : rs.fallbackStreams) {
                const StreamExec &se = rs.streams[sid];
                if (!se.done())
                    consider(se.nextReady);
            }
            break;
          case RegionState::DoneIssue:
          case RegionState::Complete:
            break;  // not in the active list (defensive)
        }
    }
    return next;
}

int64_t
Machine::burstHorizon() const
{
    // Time-gated transitions the burst cycle elides are exactly the
    // command-issue wake-ups of active-group waiting regions (see the
    // declaration comment); every other elided tick is progress-driven
    // and progress closes the window the cycle it happens.
    int64_t horizon = INT64_MAX;
    for (int r : activeRegions_) {
        const RegionSim &rs = regions_[r];
        if (rs.state != RegionState::WaitCmd)
            continue;
        if (prog_.regions[rs.idx].configGroup != activeGroup_)
            continue;  // inert until a group switch (= progress)
        horizon = std::min(horizon,
                           std::max(rs.stateUntil, reconfigUntil_));
    }
    return horizon;
}

SimResult
Machine::runSparse()
{
    SimResult res;
    int64_t now = 0;
    int64_t lastProgress = 0;
    const bool deadlineLimited = !opts_.deadline.unlimited();
    // Compiled steady window: valid after a fully generic cycle with
    // no state or controller transition, closed by any transition.
    bool burstOk = false;
    int64_t burstHzn = 0;
    while (now < opts_.maxCycles) {
        bool activity = false;
        stateChanged_ = false;
        bool ctrlMoved = false;

        const bool burstCycle = burstOk && now < burstHzn;
        if (burstCycle) {
            // Period replay: when the lone active region's steady
            // state provably repeats with period p, jump whole
            // multiples of p in one shot (the recorded trace performs
            // the real mutations, so final state is byte-identical).
            if (rpPhase_ != RpPhase::Off) {
                int64_t adv = replayTop(now, burstHzn, deadlineLimited);
                if (adv > 0) {
                    lastProgress = rpProgress_;
                    nextEventCacheValid_ = false;
                    cyclesCompiled_ += adv;
                    cyclesReplayed_ += adv;
                    now += adv;
                    continue;
                }
            }
            if (recording_)
                rpFired_ = rpLatched_ = 0;
            // Steady-state cycle: the sequencer and the waiting
            // regions are provably inert inside the window, so only
            // the data path runs — Running regions through their
            // compiled plans, draining regions interpreted. If an
            // earlier region transitions mid-cycle, later regions
            // catch up with a full interpreted tick (regions before
            // the change point were provably inert under the
            // pre-change state, matching the dense same-cycle order).
            pumpForwards(now, activity);
            tickStreams(now, activity);
            for (int r : activeRegions_) {
                RegionSim &rs = regions_[r];
                if (rs.state == RegionState::Running)
                    tickCompiled(rs, now, activity);
                else if (rs.state == RegionState::Finalizing ||
                         stateChanged_)
                    tickRegion(rs, now, activity);
            }
            ++cyclesCompiled_;
            if (recording_)
                recordCycleEnd(now);
        } else {
            if (recording_)
                rpDemote(now);
            ctrlMoved = tickSequencer(now);
            // Refresh after the sequencer: in phase-script mode it is
            // what re-activates DoneIssue regions.
            if (activeDirty_)
                refreshActiveRegions();
            pumpForwards(now, activity);
            tickStreams(now, activity);
            for (int r : activeRegions_)
                tickRegion(regions_[r], now, activity);
            ++cyclesGeneric_;
        }

        // allDone only flips on a region transition, so an unchanged
        // burst cycle cannot have completed the program.
        if ((!burstCycle || stateChanged_) && allDone())
            break;

        // setState fires exactly on the transitions the dense loop's
        // before/after snapshot detects (no tick re-enters a state it
        // left within one cycle), so `progress` matches the oracle.
        bool progress = activity || ctrlMoved || stateChanged_;
        if (progress) {
            lastProgress = now;
            nextEventCacheValid_ = false;
        } else if (opts_.progressWindow > 0 &&
                 now - lastProgress >= opts_.progressWindow) {
            res.ok = false;
            res.error = stallDiagnostic(now, lastProgress);
            res.status = Status::deadlock(res.error);
            fillStats(res, now);
            return res;
        }
        if ((now & 0x1FFF) == 0 && opts_.deadline.expired()) {
            res.ok = false;
            res.error = "simulation wall-clock budget exhausted at cycle " +
                        std::to_string(now);
            res.status = Status::deadlineExceeded(res.error);
            fillStats(res, now);
            return res;
        }

        // Burst window maintenance: any transition closes it; a clean
        // fully generic cycle (re)opens it and prices the horizon.
        if (compiled_) {
            if (stateChanged_ || ctrlMoved)
                burstOk = false;
            else if (!burstCycle && (!burstOk || now + 1 >= burstHzn)) {
                burstOk = true;
                burstHzn = burstHorizon();
            }
        }

        if (progress) {
            ++now;
            continue;
        }
        // Idle cycle: every skipped cycle would also be idle (state is
        // frozen and no time gate opens before the next event), so
        // jump straight to the earliest cycle anything can move,
        // clamped so the watchdogs fire on exactly the same cycle the
        // dense loop would fire them on. The scan result stays valid
        // across consecutive no-progress cycles (nothing feeding it
        // can change without progress), so clamped jumps don't rescan.
        if (!nextEventCacheValid_ || nextEventCache_ <= now) {
            nextEventCache_ = nextEventTime(now);
            nextEventCacheValid_ = true;
        }
        int64_t target = nextEventCache_;
        if (opts_.progressWindow > 0)
            target = std::min(target,
                              lastProgress + opts_.progressWindow);
        if (deadlineLimited)
            target = std::min(target, ((now >> 13) + 1) << 13);
        target = std::min(target, opts_.maxCycles);
        int64_t next = std::max(now + 1, target);
        if (recording_ && next > now + 1) {
            // Skipped cycles are provably idle; inside a recording
            // they become empty trace entries (replaying them is a
            // no-op, which is exactly what the machine did).
            int64_t gap = next - (now + 1);
            if (static_cast<int64_t>(rpTrace_.size()) + gap >
                rpPeriod_) {
                rpDemote(now);
            } else {
                RpCycle e;
                e.fired = 0;
                e.latched = 0;
                e.dFirst = static_cast<uint32_t>(rpDeliv_.size());
                e.dCount = 0;
                for (int64_t i = 0; i < gap; ++i)
                    rpTrace_.push_back(e);
            }
        }
        cyclesSkipped_ += next - (now + 1);
        now = next;
    }
    if (now >= opts_.maxCycles) {
        res.ok = false;
        res.error = "simulation exceeded cycle limit (" +
                    std::to_string(opts_.maxCycles) + " cycles)";
        res.status = Status::resourceExhausted(res.error);
        fillStats(res, now);
        return res;
    }
    res.ok = true;
    fillStats(res, now);
    return res;
}

bool
Machine::regionDone(const RegionSim &rs) const
{
    // In sequential (phase-script) mode regions rest in DoneIssue
    // between issues and at the end of the script.
    return rs.state == RegionState::Complete ||
           (seq_ && rs.state == RegionState::DoneIssue);
}

void
Machine::fillStats(SimResult &res, int64_t now) const
{
    res.cycles = now;
    res.regions.clear();
    res.peFires.clear();
    for (const RegionSim &rs : regions_) {
        RegionSimStats st;
        st.complete = regionDone(rs);
        st.state = regionStateName(rs.state);
        st.endCycle = st.complete ? rs.endCycle : now;
        for (const auto &ps : rs.inPorts)
            st.fires = std::max(st.fires, ps.pops);
        res.regions.push_back(std::move(st));
        for (const InstSim &is : rs.insts)
            if (is.pe != adg::kInvalidNode)
                res.peFires[is.pe] += is.fires;
    }
    // One entry per alive memory node, zeros included (the plans cover
    // exactly the nodes the per-cycle accounting used to touch).
    res.memBytes.clear();
    for (const MemPlan &mp : memPlans_)
        res.memBytes[mp.node] = mp.bytes;
    // Engine accounting (excluded from cross-engine equivalence).
    res.cyclesCompiled = cyclesCompiled_;
    res.cyclesGeneric = cyclesGeneric_;
    res.cyclesSkipped = cyclesSkipped_;
    res.cyclesReplayed = cyclesReplayed_;
    res.cyclesJit = cyclesJit_;
}

std::string
Machine::stallDiagnostic(int64_t now, int64_t lastProgress) const
{
    std::ostringstream os;
    os << "simulation deadlock: no progress for " << (now - lastProgress)
       << " cycles (at cycle " << now << ", config group " << activeGroup_
       << ")";
    if (seq_)
        os << ", phase script at entry " << scriptPos_ << "/"
           << prog_.phaseScript.size();
    os << "; stalled regions:";
    for (const RegionSim &rs : regions_) {
        if (regionDone(rs))
            continue;
        os << " region " << rs.idx << " [" << regionStateName(rs.state)
           << "]";
        if (!rs.waitOnRegions.empty()) {
            os << " waits-on{";
            for (size_t i = 0; i < rs.waitOnRegions.size(); ++i)
                os << (i ? "," : "") << rs.waitOnRegions[i];
            os << "}";
        }
        for (const StreamExec &se : rs.streams) {
            if (se.done())
                continue;
            os << " stream" << se.st->id << "=" << se.pos << "/"
               << se.addrs.size();
            if (!se.writeBuf.empty())
                os << "(writeBuf " << se.writeBuf.size() << "/"
                   << se.writeBufCap << ")";
        }
        for (size_t v = 0; v < rs.inPorts.size(); ++v) {
            const PortSim &ps = rs.inPorts[v];
            if (ps.lanePipes.empty())
                continue;
            os << " in-port" << v << "{buf " << ps.bufSize() << "/"
               << ps.capacity << ", pops " << ps.pops << "}";
        }
        for (size_t v = 0; v < rs.outPorts.size(); ++v) {
            const OutPortSim &op = rs.outPorts[v];
            if (op.lanePipes.empty())
                continue;
            os << " out-port" << v << "{fires " << op.fires << "}";
        }
        os << ";";
    }
    return os.str();
}

} // namespace

const char *
engineName(Engine e)
{
    switch (e) {
    case Engine::Dense:
        return "dense";
    case Engine::Sparse:
        return "sparse";
    case Engine::Compiled:
        return "compiled";
    case Engine::Jit:
        return "jit";
    }
    DSA_PANIC("bad engine ", static_cast<int>(e));
}

Result<Engine>
parseEngine(const std::string &name)
{
    std::vector<std::string> names;
    for (Engine e :
         {Engine::Dense, Engine::Sparse, Engine::Compiled, Engine::Jit}) {
        if (name == engineName(e))
            return e;
        names.push_back(engineName(e));
    }
    return Status::invalidArgument("unknown simulator engine '" + name +
                                   "'" + suggestName(name, names));
}

Engine
defaultEngine()
{
    static const Engine engine = [] {
        const char *env = std::getenv("DSA_SIM_ENGINE");
        if (!env || !*env)
            return Engine::Jit;
        Result<Engine> e = parseEngine(env);
        if (!e.ok())
            DSA_FATAL("DSA_SIM_ENGINE: ", e.status().message());
        return *e;
    }();
    return engine;
}

std::string
firstDivergence(const SimResult &ref, const SimResult &got,
                const MemImage &refMem, const MemImage &gotMem)
{
    auto num = [](int64_t v) { return std::to_string(v); };
    if (ref.ok != got.ok)
        return "ok: ref=" + num(ref.ok) + " got=" + num(got.ok);
    if (ref.status.code() != got.status.code())
        return "status: ref=" + ref.status.toString() +
               " got=" + got.status.toString();
    if (ref.error != got.error)
        return "error text: ref=\"" + ref.error + "\" got=\"" +
               got.error + "\"";
    if (ref.cycles != got.cycles)
        return "cycles: ref=" + num(ref.cycles) + " got=" + num(got.cycles);
    if (ref.regions.size() != got.regions.size())
        return "region count";
    for (size_t r = 0; r < ref.regions.size(); ++r) {
        const RegionSimStats &a = ref.regions[r];
        const RegionSimStats &b = got.regions[r];
        if (a.fires != b.fires || a.endCycle != b.endCycle ||
            a.complete != b.complete || a.state != b.state)
            return "region " + std::to_string(r) + " stats: ref " +
                   a.state + "/fires=" + num(a.fires) +
                   "/end=" + num(a.endCycle) + ", got " + b.state +
                   "/fires=" + num(b.fires) + "/end=" + num(b.endCycle);
    }
    if (ref.peFires != got.peFires)
        return "peFires map";
    if (ref.memBytes != got.memBytes)
        return "memBytes map";
    if (refMem.main.bytes() != gotMem.main.bytes())
        return "main memory contents";
    if (refMem.spad.bytes() != gotMem.spad.bytes())
        return "scratchpad contents";
    return "";
}

SimResult
simulate(const dfg::DecoupledProgram &prog, const mapper::Schedule &sched,
         const Adg &adg, MemImage &mem, const SimOptions &opts)
{
    if (!opts.checkAgainst)
        return Machine(prog, sched, adg, mem, opts).run();
    // Oracle cross-check: the reference engine runs on a throwaway copy
    // of the memory image, the selected engine on the real one, and
    // any divergence in result or memory contents turns into an
    // Internal error.
    MemImage refMem = mem;
    SimOptions refOpts = opts;
    refOpts.engine = *opts.checkAgainst;
    SimResult refRes = Machine(prog, sched, adg, refMem, refOpts).run();
    SimResult res = Machine(prog, sched, adg, mem, opts).run();
    std::string diff = firstDivergence(refRes, res, refMem, mem);
    if (!diff.empty()) {
        res.ok = false;
        res.error = std::string(engineName(opts.engine)) + "/" +
                    engineName(*opts.checkAgainst) +
                    " simulator divergence: " + diff;
        res.status = Status::internal(res.error);
    }
    return res;
}

} // namespace dsa::sim
