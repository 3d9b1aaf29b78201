/**
 * @file
 * The stochastic spatial scheduler (§IV-C, Algorithm 1): iteratively
 * (re)places instructions, ports, and streams onto ADG resources,
 * routing dependences with usage-penalized Dijkstra search, and
 * minimizing a weighted objective of overutilization, initiation
 * interval, and recurrence latency. Overuse is permitted during the
 * search to escape local minima; a legal schedule has none.
 *
 * The same engine implements schedule *repair* for DSE (§V-A): seeded
 * with a previous schedule whose dead assignments were stripped, it
 * re-places only the missing pieces (and keeps improving the rest).
 *
 * Hot-loop bookkeeping is *incremental*: a UsageTracker (flat arrays
 * indexed by config group × EdgeId/NodeId) is maintained by the
 * place/unplace/route hooks instead of rebuilt per evaluation, routing
 * reads edge penalties straight from it with epoch-stamped reusable
 * Dijkstra scratch, and the greedy candidate scan prices each probe
 * with an exact delta against a per-slot baseline (VPR-style
 * incremental cost evaluation). `evaluate()` remains the from-scratch
 * oracle; `SchedOptions::checkIncremental` cross-checks every fast-path
 * result against it. The tracker lives in the scheduler, beside a
 * per-operand route-length table and precomputed per-region timing
 * plans that the probe path reads instead of the schedule's route
 * maps — Schedules stay plain values the DSE can copy freely; `run()`
 * rebuilds tracker and table from whatever schedule it is seeded with.
 */

#ifndef DSA_MAPPER_SCHEDULER_H
#define DSA_MAPPER_SCHEDULER_H

#include <memory>
#include <unordered_map>

#include "adg/adg.h"
#include "base/deadline.h"
#include "base/rng.h"
#include "base/status.h"
#include "dfg/program.h"
#include "mapper/route_cache.h"
#include "mapper/schedule.h"
#include "mapper/usage_tracker.h"

namespace dsa {
class ThreadPool;
} // namespace dsa

namespace dsa::mapper {

class LandmarkTable;

/**
 * Counters from one scheduler run (or one DSE's worth of runs; the
 * struct is additive via merge()). Exposed through `--sched-stats`.
 */
struct SchedStats
{
    /** Route requests entering the dispatcher. */
    uint64_t routeCalls = 0;
    /**
     * Plain Dijkstra searches: the checkRoutes oracle, plus A* misses
     * whose reuse discount zeroes every landmark bound.
     */
    uint64_t dijkstraSearches = 0;
    /** A* searches, landmark- or reverse-distance-guided (cache miss). */
    uint64_t astarSearches = 0;
    /** Heap pops expanded across both search kinds. */
    uint64_t nodesExpanded = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** Cache entries skipped because the group's usage state changed. */
    uint64_t cacheStale = 0;
    /** Full SSSP trees built (one amortizes many same-source routes). */
    uint64_t ssspBuilds = 0;
    /** Routes answered by backtracking a shared SSSP tree. */
    uint64_t ssspHits = 0;
    /** Reverse (target-rooted) distance tables built. */
    uint64_t revBuilds = 0;
    /** A* searches guided by an exact reverse-distance heuristic. */
    uint64_t revHits = 0;
    /** Candidate scans skipped: the exact state was probed before. */
    uint64_t probeMemoHits = 0;
    /** Candidate scans run and memoized. */
    uint64_t probeMemoMisses = 0;
    /** Annealing iterations, summed over chains. */
    uint64_t iterations = 0;
    /** Chains executed (0 when run() was never called). */
    uint64_t chainsRun = 0;

    void merge(const SchedStats &o);
};

/**
 * Scheduler knobs. The greedy-fill and routing costs are constants,
 * not fields: no caller ever set them, and the landmark tables are
 * keyed on the two that shape the static metric.
 */
struct SchedOptions
{
    /** Outer unmap/re-place iterations (the paper uses 200 in DSE). */
    int maxIters = 200;
    /** Stop after this many iterations without improvement (legal). */
    int convergeIters = 40;
    uint64_t seed = 1;
    /**
     * Allow mapping multiple instructions onto shared PEs; disabled
     * for the Fig. 12 "shared off" configurations.
     */
    bool allowShared = true;

    /// @name Greedy-fill / routing costs
    /// @{
    /** Candidates probed per unplaced slot before settling. */
    static constexpr int candidateScanCap = 24;
    /** Dijkstra cost of re-traversing an edge this value already uses. */
    static constexpr double routeReuseCost = 0.01;
    /** Dijkstra base cost of an unused edge. */
    static constexpr double routeBaseCost = 1.0;
    /** Congestion slope: edge cost = base + slope * values-on-edge. */
    static constexpr double routeCongestSlope = 3.0;
    /** Extra cost for tunneling through a PE (burns a Pass slot). */
    static constexpr double routePePassCost = 2.0;
    /**
     * Routing always runs the exact pipeline (route cache, shared SSSP
     * trees, reverse-distance tables, landmark A*); checkRoutes proves
     * it equal to plain Dijkstra. Kept so callers that hoist the
     * landmark table behind this test still compile.
     */
    static constexpr bool routeFastPath = true;
    /// @}

    /// @name Incremental-evaluation controls
    /// @{
    /**
     * Use tracker-maintained state and delta probes in the hot loop.
     * Off = recompute everything from the schedule at each use point
     * (slow reference mode; results are bit-identical either way).
     */
    bool incremental = true;
    /**
     * Debug oracle: assert, at every fast-path evaluation, that the
     * incrementally-maintained tracker equals a from-scratch rebuild
     * and that delta probe costs equal full `evaluate()` costs.
     */
    bool checkIncremental = false;
    /// @}

    /// @name Route checking & parallel annealing chains
    /// @{
    /**
     * Debug oracle: re-run plain Dijkstra for every route the routing
     * pipeline produces (cache hit, SSSP backtrack or A*) and assert
     * exact equality.
     */
    bool checkRoutes = false;
    /**
     * Independently-seeded annealing chains; the best legal result
     * wins by fixed-order reduction, so the outcome is deterministic
     * for any thread count and chains=1 is bit-identical to the
     * single-chain scheduler. Chains run on `chainPool` when set
     * (one task per chain), serially otherwise.
     */
    int chains = 1;
    dsa::ThreadPool *chainPool = nullptr;
    /**
     * Pre-shared landmark table (must match this ADG + cost knobs).
     * Null = look up / compute via the process-wide landmark cache at
     * construction. Chains pass theirs down so K chains don't pay K
     * fingerprint lookups.
     */
    std::shared_ptr<const LandmarkTable> landmarks{};
    /// @}

    /**
     * Cooperative wall-clock watchdog (default: unlimited). Checked
     * between annealing iterations and between greedy-fill placements;
     * on expiry run() returns the best schedule found so far and
     * lastRunStatus() reports DeadlineExceeded, so the DSE can record
     * a pathological candidate as infeasible instead of hanging a pool
     * worker. With the default unlimited deadline the checks are free
     * and results are unchanged.
     */
    Deadline deadline{};
};

/** Spatial scheduler for one program onto one ADG. */
class SpatialScheduler
{
  public:
    SpatialScheduler(const dfg::DecoupledProgram &prog, const adg::Adg &adg,
                     SchedOptions opts = {});

    /**
     * Run Algorithm 1.
     * @param initial  previous schedule to repair (nullptr = from
     *                 scratch). Dead assignments are stripped first.
     * @return the best schedule found, with cost filled in.
     */
    Schedule run(const Schedule *initial = nullptr);

    /**
     * Evaluate the full objective of a schedule from scratch (the
     * oracle the incremental paths are checked against). Works on any
     * schedule, independent of the scheduler's internal tracker.
     */
    Cost evaluate(const Schedule &s) const;

    /**
     * Outcome of the last run(): OK, or DeadlineExceeded when the
     * SchedOptions::deadline watchdog cut the search short (the
     * returned schedule is then best-effort and usually illegal).
     */
    const Status &lastRunStatus() const { return lastStatus_; }

    /** Counters accumulated since construction (all chains merged). */
    const SchedStats &stats() const { return stats_; }

    /** Search-heap entry (public so the heap comparator can be free). */
    struct HeapEntry
    {
        double f = 0; ///< pop key (== g for plain Dijkstra)
        double g = 0;
        adg::NodeId n = adg::kInvalidNode;
    };

  private:
    /** One placement decision: a DFG vertex or a memory stream. */
    struct Slot
    {
        int region = -1;
        bool isStream = false;
        dfg::VertexId vertex = dfg::kInvalidVertex;
        int streamId = -1;
    };

    /** Timing summary of one region (cached between mutations). */
    struct RegionTiming
    {
        /** Contribution to Cost::recurrenceLatency. */
        int recLat = 0;
        /** Static-PE delay-FIFO shortfall, per hosting node. */
        std::vector<std::pair<adg::NodeId, int>> shortfall;
    };

    /**
     * Per-region route lengths, indexed [region][operand slot]: the
     * length of the routed value edge into that operand, or -1 when
     * the routes map holds none. An operand slot is
     * opBase_[region][vertex] + operand index.
     */
    using RouteLens = std::vector<std::vector<int>>;

    /**
     * One region's timing walk, precomputed from the immutable DFG:
     * the topological order minus input ports (their time is 0), with
     * each vertex's opcode latency and its non-immediate operands.
     */
    struct TimingPlan
    {
        struct Step
        {
            dfg::VertexId v = dfg::kInvalidVertex;
            /** Opcode latency for instructions, 0 for output ports. */
            int latency = 0;
            bool isInstruction = false;
            /** This step's operands are ops[opBegin, opEnd). */
            int opBegin = 0;
            int opEnd = 0;
        };
        struct Operand
        {
            dfg::VertexId src = dfg::kInvalidVertex;
            /** Operand slot (index into the region's RouteLens row). */
            int slot = 0;
        };
        std::vector<Step> steps;
        std::vector<Operand> ops;
        /** Max opcode latency over the region's accumulate vertices. */
        int accLat = 0;
    };

    /** Per-slot baseline for exact delta probes. */
    struct ProbeBase
    {
        Cost cost;
        int linkIi = 1;
        /** Max recurrence latency over regions != the slot's. */
        int recLatOther = 0;
    };

    /** Timing plans and operand-slot bases (before buildSlots). */
    void buildTimingPlans();
    void buildSlots();
    void buildStaticTables();
    /** The single-chain annealer (the historical run() body). */
    Schedule runSingle(const Schedule *initial);
    /** K independently-seeded chains merged by fixed-order reduction. */
    Schedule runChains(const Schedule *initial);
    std::vector<adg::NodeId> candidatesFor(const Slot &slot,
                                           const Schedule &s) const;

    /** Assign + route everything incident; returns false on failure. */
    void place(Schedule &s, const Slot &slot, adg::NodeId node) const;
    /** Remove assignment and incident routes. */
    void unplace(Schedule &s, const Slot &slot) const;

    /** Greedily place every unplaced slot (best candidate by cost). */
    void fillUnplaced(Schedule &s);
    /**
     * Content hash of everything a candidate scan for slot @p slotIdx
     * can read: every region's placements and routes plus the special
     * routes. It keys the probe-scan memo in fillUnplaced. The key is
     * independent of the scan mode (probe deltas or full
     * re-evaluation): both price candidates identically.
     */
    uint64_t placementHash(const Schedule &s, size_t slotIdx) const;
    /** Slots implicated in overuse/violations (targeted rip-up). */
    std::vector<int> hotSlots(const Schedule &s) const;
    /** Route forwards/recurrences whose endpoints are both mapped. */
    void routeSpecials(Schedule &s) const;

    /// @name Tracker-synchronized schedule mutation
    /// @{
    void setValueRoute(Schedule &s, int region,
                       std::pair<dfg::VertexId, int> key, Route route) const;
    void setRecurrenceRoute(Schedule &s, int region, int sid,
                            Route route) const;
    void setForwardRoute(Schedule &s, int fi, Route route) const;
    /// @}

    /// @name Routing (dispatcher + the search implementations)
    /// @{
    /**
     * Route one value: reference-mode tracker rebuild, then the route
     * cache, shared SSSP trees, reverse-distance tables and A*. Every
     * layer returns the canonical route plain Dijkstra would for the
     * same usage state (checkRoutes asserts it).
     */
    Route dijkstra(const Schedule &s, adg::NodeId from, adg::NodeId to,
                   bool dynFlow, const ValueKey &value, int group) const;
    /**
     * Base, reuse or congestion cost of edge @p e for @p value under
     * the group's usage state. Callers add the PE pass surcharge
     * themselves: which endpoint is waived differs per search.
     */
    double edgeCost(int group, adg::EdgeId e, const ValueKey &value) const;
    /** The checkRoutes oracle, and searchAstar's fallback. */
    Route searchDijkstra(adg::NodeId from, adg::NodeId to, bool dynFlow,
                         const ValueKey &value, int group) const;
    /**
     * @p exactH, when non-null, is a nodeIdBound-sized exact
     * cost-to-target table (from a reverse Dijkstra) used as the
     * heuristic instead of the landmark bounds. Any admissible
     * heuristic yields the same canonical route (see the equivalence
     * argument at the definition), and an exact one is the strongest
     * admissible choice: expansion narrows to optimal-path nodes.
     */
    Route searchAstar(adg::NodeId from, adg::NodeId to, bool dynFlow,
                      const ValueKey &value, int group,
                      const double *exactH = nullptr) const;
    /**
     * Walk the via array @p via (via_ or an SSSP tree) back from
     * @p to into an exact-sized Route; @p to must be reachable.
     */
    Route backtrack(const adg::EdgeId *via, adg::NodeId from,
                    adg::NodeId to) const;

    /**
     * Shared-source SSSP trees: the greedy candidate scan routes the
     * same (source, value) to dozens of probe targets under one usage
     * state, so the second such query invests in one untargeted
     * Dijkstra whose via tree then answers every further target by
     * backtracking alone. Exact: a targeted run's canonical via chain
     * is a prefix of the full tree's (all achievers pop before the
     * target pops, and the PE-target pass-cost waiver is a constant
     * shift over all edges into the target, so every accept/reject
     * and tie decision matches; see buildSsspTree).
     */
    struct SsspKey
    {
        adg::NodeId from = adg::kInvalidNode;
        ValueKey value{-1, -1};
        int group = 0;
        bool dynFlow = false;

        bool operator==(const SsspKey &) const = default;
    };
    struct SsspKeyHash
    {
        size_t operator()(const SsspKey &k) const;
    };
    struct SsspEntry
    {
        SsspKey key;
        uint64_t stateHash = 0;
        /** Slot holds a live marker/tree for (key, stateHash). */
        bool seen = false;
        /** dist/via hold a full tree for (key, stateHash). */
        bool full = false;
        std::vector<double> dist;
        std::vector<adg::EdgeId> via;
    };
    /**
     * Direct-mapped slot count (power of two). Misses are the common
     * case on cold/stale states, so the layer must cost O(1) with no
     * allocation there: a colliding key just evicts the slot, and a
     * rebuilt tree reuses the slot's vector capacity.
     */
    static constexpr size_t kSsspSlots = 128;
    /** Probe-memo wholesale-clear backstop (entries are tiny). */
    static constexpr size_t kMaxProbeMemo = 1u << 17;
    void buildSsspTree(adg::NodeId from, bool dynFlow,
                       const ValueKey &value, int group,
                       SsspEntry *entry) const;

    /**
     * Target-rooted mirror of the SSSP layer: the candidate scan also
     * routes many (source, value) pairs *into* one consumer node under
     * one usage state (a different probe source per candidate). A via
     * tree can't be shared from the target side — the canonical
     * tie-break needs source-side g values — but exact costs can: the
     * second same-target query invests in one reverse Dijkstra, and
     * every further query runs searchAstar with the resulting exact
     * cost-to-target heuristic, which expands only optimal-path nodes
     * yet returns the identical canonical route.
     */
    struct RevEntry
    {
        /** Slot key; `.from` holds the *target* node. */
        SsspKey key;
        uint64_t stateHash = 0;
        bool seen = false;
        bool full = false;
        /** Exact cost node -> target under the usage state. */
        std::vector<double> dist;
    };
    static constexpr size_t kRevSlots = 64;
    void buildReverseDist(adg::NodeId to, bool dynFlow,
                          const ValueKey &value, int group,
                          RevEntry *entry) const;
    /// @}

    /** Route one value dependence; empty on failure. */
    Route routeValue(const Schedule &s, int region, dfg::VertexId producer,
                     adg::NodeId from, adg::NodeId to) const;

    /// @name Cost assembly (shared by oracle and incremental paths)
    /// @{
    /** Route lengths of @p s read from its route maps. */
    RouteLens routeLensOf(const Schedule &s) const;
    /** Operand slot of (consumer @p v, operand @p i) in region @p r. */
    int opSlot(int r, dfg::VertexId v, int i) const
    {
        return opBase_[r][v] + i;
    }
    /**
     * Recompute one region's vertex times, recurrence latency, and
     * static-PE delay shortfall into @p out (its buffer is reused).
     * @p lens is the region's RouteLens row. Scratch is passed in so
     * the public `evaluate()` oracle can use locals while the hot path
     * reuses member scratch without allocation. @p shortfallScratch
     * must be nodeIdBound-sized and all-zero; it is restored to
     * all-zero before returning.
     */
    void computeRegionTiming(const Schedule &s, size_t r, const int *lens,
                             std::vector<int> &vertexTime,
                             std::vector<int> &shortfallScratch,
                             RegionTiming &out) const;
    Cost assemble(const Schedule &s, const UsageTracker &t,
                  const RouteLens &lens,
                  const std::vector<RegionTiming> &timing,
                  const std::vector<int> &nodeShortfall,
                  int *linkIiOut) const;
    /// @}

    /// @name Incremental fast path
    /// @{
    /**
     * Rebuild tracker, route lengths and timing caches from @p s
     * (run() entry).
     */
    void bindTo(const Schedule &s) const;
    /** Recompute timing for regions dirtied since the last refresh. */
    void refreshTiming(const Schedule &s) const;
    /** Tracker-backed evaluation of the tracked schedule. */
    Cost evaluateTracked(const Schedule &s) const;
    ProbeBase makeProbeBase(const Schedule &s, const Slot &slot) const;
    /** Exact candidate cost via place -> delta -> unplace. */
    double probeCandidate(Schedule &s, const Slot &slot, adg::NodeId cand,
                          const ProbeBase &base) const;
    /**
     * checkIncremental: assert tracker and route lengths equal a
     * fresh rebuild.
     */
    void verifyTracker(const Schedule &s) const;
    /// @}

    bool nodeIsDynamicPe(adg::NodeId n) const;
    bool nodeIsStaticPe(adg::NodeId n) const;

    const dfg::DecoupledProgram &prog_;
    const adg::Adg &adg_;
    SchedOptions opts_;
    Status lastStatus_;
    mutable Rng rng_;
    std::vector<Slot> slots_;
    /** Concurrency class per region (stream-engine sharing). */
    std::vector<int> regionClass_;
    /** Per-region timing walk (the DFG is immutable). */
    std::vector<TimingPlan> timingPlan_;
    /**
     * Per region, per vertex: its first operand slot (a prefix sum of
     * operand counts, numVertices + 1 entries).
     */
    std::vector<std::vector<int>> opBase_;

    /** Distinct config groups, ascending (hoisted from evaluate()). */
    std::vector<int> configGroups_;
    /** Dense config-group index per region. */
    std::vector<int> regionGroupIdx_;
    int numClasses_ = 0;

    /// @name Static per-ADG tables (hardware is fixed per scheduler)
    /// @{
    std::vector<int> edgeCap_;
    /** Edge participates in link-II accounting (dyn-switch, non-bus). */
    std::vector<char> edgeLinkIi_;
    std::vector<int> peCap_;
    std::vector<char> peShared_;
    std::vector<int> syncCap_;
    std::vector<int> memCap_;
    /** Per-node routing flags (kPassDyn/kPassStatic/kIsPe below). */
    std::vector<uint8_t> nodeFlags_;
    /** Flat edge endpoints (dead edges keep kInvalidNode). */
    std::vector<adg::NodeId> edgeSrc_;
    std::vector<adg::NodeId> edgeDst_;
    /// @}

    static constexpr uint8_t kPassDyn = 1;    ///< intermediate, dyn flow
    static constexpr uint8_t kPassStatic = 2; ///< intermediate, static flow
    static constexpr uint8_t kIsPe = 4;
    static constexpr uint8_t kPeDyn = 8;      ///< dynamic-scheduled PE
    static constexpr uint8_t kPeStatic = 16;  ///< static-scheduled PE
    static constexpr uint8_t kAlive = 32;     ///< any alive node

    /// @name Routing state & the probe-scan memo
    /// @{
    std::shared_ptr<const LandmarkTable> landmarks_;
    mutable RouteCache routeCache_;
    mutable std::vector<SsspEntry> sssp_;
    mutable std::vector<RevEntry> rev_;
    /**
     * Probe-scan memo: placementHash -> the candidate the last scan
     * of that state chose (kept for the scheduler's lifetime; the
     * annealer's rip-up / refill loop revisits the same states
     * constantly once the schedule is near-converged). A repeat
     * deterministically reuses that winner. It is part of the search
     * policy, not a cache: a fresh scan would probe the first
     * candidateScanCap entries of a new rng shuffle and could pick
     * another node. The key and both scan modes are mode-independent
     * (see placementHash), so the incremental/reference equivalence
     * holds.
     */
    mutable std::unordered_map<uint64_t, adg::NodeId> probeMemo_;
    mutable SchedStats stats_;
    /// @}

    /** Incrementally-maintained usage/occupancy state. */
    mutable UsageTracker tracker_;
    /**
     * Route lengths of the tracked schedule, kept in sync by the same
     * hooks as the tracker (incremental mode only).
     */
    mutable RouteLens routeLen_;
    /** Cached per-region timing + dirty bits. */
    mutable std::vector<RegionTiming> timing_;
    mutable std::vector<char> timingDirty_;
    /** Static-PE delay shortfall summed across regions, per node. */
    mutable std::vector<int> nodeShortfall_;

    /// @name Reusable scratch (epoch-stamped; no per-call allocation)
    /// @{
    mutable std::vector<double> dist_;
    mutable std::vector<adg::EdgeId> via_;
    mutable std::vector<uint32_t> nodeStamp_;
    mutable uint32_t dijkstraEpoch_ = 0;
    /** Hoisted search heap (std::push_heap/pop_heap over this). */
    mutable std::vector<HeapEntry> heap_;
    /** A* per-node heuristic value, valid under nodeStamp_. */
    mutable std::vector<double> hVal_;
    /** A* tie-break key: g of the predecessor that set via_[n]. */
    mutable std::vector<double> predG_;
    mutable std::vector<int> shortfallScratch_;
    /** computeRegionTiming's touched-node list (consumed per call). */
    mutable std::vector<adg::NodeId> timingTouched_;
    mutable std::vector<int> vertexTimeScratch_;
    /** probeCandidate's timing of the slot's region. */
    mutable RegionTiming probeTiming_;
    /** place()'s snapshot-route staging buffer (consumed per call). */
    mutable std::vector<std::pair<std::pair<dfg::VertexId, int>, Route>>
        placeScratch_;
    mutable std::vector<int> shortfallAdj_;
    mutable std::vector<uint32_t> adjStamp_;
    mutable uint32_t adjEpoch_ = 0;
    /// @}
};

/**
 * Convenience: schedule @p prog onto @p adg from scratch.
 */
Schedule scheduleProgram(const dfg::DecoupledProgram &prog,
                         const adg::Adg &adg, SchedOptions opts = {});

} // namespace dsa::mapper

#endif // DSA_MAPPER_SCHEDULER_H
