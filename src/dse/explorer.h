/**
 * @file
 * Automated design-space exploration (§V): iterative hardware/software
 * co-design. Each step mutates the ADG (adding/removing components or
 * connectivity, toggling ISA-level features) within a power/area
 * budget, re-compiles every input kernel into its candidate versions,
 * re-schedules them with the solution-repairing spatial scheduler
 * (§V-A), estimates performance/power/area with the analytical models,
 * and keeps the mutation when the objective (perf^2/mm^2) improves.
 *
 * Evaluation is parallel on two axes, both deterministic for any
 * thread count (per-task seeds are hashed from task coordinates, and
 * reductions run in fixed task order):
 *   - within one design, the (kernel, unroll) grid fans out over the
 *     explorer's thread pool;
 *   - across designs, a batch of candidateBatch mutants per step is
 *     evaluated concurrently and the best improving one accepted.
 * With threads=1 and candidateBatch=1 the exploration reproduces the
 * serial trace exactly.
 *
 * Fixed during DSE per §V-D: the single main-memory interface and the
 * single scratchpad (whose parameters ARE explored), the control core,
 * and flopped switch outputs.
 */

#ifndef DSA_DSE_EXPLORER_H
#define DSA_DSE_EXPLORER_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adg/adg.h"
#include "base/deadline.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "compiler/compile.h"
#include "compiler/compile_cache.h"
#include "dse/eval_cache.h"
#include "dse/pareto.h"
#include "mapper/scheduler.h"
#include "model/cost.h"
#include "model/cost_cache.h"
#include "sim/jit/jit_stats.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace dsa::dse {

/** Exploration knobs. */
struct DseOptions
{
    /** Total mutation steps attempted. */
    int maxIters = 400;
    /** Exit after this many *fully evaluated* candidates in a row
     *  fail to improve the objective (the paper uses 750). Candidates
     *  rejected before evaluation (structurally invalid or over
     *  budget) do not count — see infeasibleExit. */
    int noImproveExit = 150;
    /** Separate exit: this many *consecutive* mutations rejected
     *  before evaluation (invalid or over budget) abandons the run,
     *  bounding runtime when the budget pins the explorer. */
    int infeasibleExit = 300;
    uint64_t seed = 1;
    /** Scheduling iterations per (re)mapping (the paper uses 200). */
    int schedIters = 60;
    /**
     * Scheduling iterations for the *initial* mapping of each kernel
     * version (before any previous schedule exists). The paper
     * initializes mappings on the loose starting hardware; later DSE
     * steps only repair (or, without repair, must re-discover the
     * mapping within schedIters — the Fig. 11 contrast).
     */
    int initSchedIters = 2000;
    /**
     * Repair schedules across mutations (§V-A). When false, every
     * step re-maps every version from scratch (the Fig. 11 baseline).
     */
    bool useRepair = true;
    /** Hardware budget. */
    double areaBudgetMm2 = 5.0;
    double powerBudgetMw = 1500.0;
    /** Vectorization degrees compiled per kernel (M versions, §V). */
    std::vector<int> unrollFactors = {1, 4};
    /**
     * Worker threads for candidate evaluation (1 = serial). Results
     * are bit-identical for any value: every (kernel, unroll) task
     * seeds its scheduler from splitmix64(seed, kernel, unroll) and
     * reductions run in fixed task order.
     */
    int threads = 1;
    /**
     * Mutated candidates evaluated per step. Each batch member is
     * mutated from the same current design (mutations drawn serially
     * from the exploration RNG); the best improving member is
     * accepted. 1 reproduces the serial greedy trace.
     */
    int candidateBatch = 1;
    /**
     * Annealing chains per scheduling run (SchedOptions::chains).
     * At threads 1 the chains run on a dedicated pool (created iff
     * > 1), so cold evaluations use idle cores; at threads > 1 the
     * schedulers are themselves pool tasks and their chains run one
     * after another, since a parallelFor issued from a pool task runs
     * inline. Results are deterministic for any thread count, and 1
     * is bit-identical to the single-chain scheduler.
     */
    int schedChains = 1;

    /// @name Multi-objective search & structured mutations
    /// @{
    /**
     * Maintain a Pareto front over (perf, areaMm2, powerMw) and accept
     * moves by hypervolume contribution instead of scalar-objective
     * improvement: each evaluated candidate is offered to the front in
     * draw order, and the one whose insertion grew the front's
     * hypervolume the most becomes the next current design. The front
     * (bounded at paretoFrontSize, pruned by smallest exclusive
     * contribution) is reported in DseResult::front and persisted
     * through checkpoints, bit-identically across thread counts and
     * kill-and-resume. The scalar objective is still computed and
     * reported per candidate; `best` tracks the accepted design with
     * the highest scalar objective, exactly as in scalar mode.
     */
    bool pareto = false;
    /** Archive bound for the Pareto front (hypervolume pruning). */
    int paretoFrontSize = 24;
    /**
     * SET-style structured mutation moves (grow/shrink a tile, clone
     * a region subgraph, rewire a sub-fabric) mixed into the flat
     * parameter tweaks, drawn from the same exploration RNG — traces
     * stay bit-identical per (options, seed). Disabling removes the
     * three structured cases from the draw (a different random
     * stream, so toggling changes traces; the flag is serialized into
     * checkpoints for exact resume).
     */
    bool structuredMoves = true;
    /**
     * Exponent of the power term in the scalar objective:
     * perf^2 / (areaMm2 * (powerMw/1000)^powerObjectiveWeight).
     * 0 (default) reproduces the legacy perf^2/mm^2 formula
     * bit-identically — the power factor is skipped entirely, not
     * multiplied by 1. The cost model always computed powerMw; this
     * knob stops the scalar objective from silently discarding it.
     */
    double powerObjectiveWeight = 0.0;
    /// @}

    /// @name Fault tolerance: checkpoints & watchdogs
    /// @{
    /**
     * When non-empty, the explorer atomically serializes its full
     * resumable state (current/best ADG, objective, iteration trace,
     * RNG stream position, repair-cache schedules) to this JSON file
     * via write-temp-then-rename, every checkpointEvery accepted
     * steps and at run end. `dsagen dse --resume <file>` (or
     * Explorer::resume) continues bit-identically with what the
     * uninterrupted run would have produced. The eval cache is not
     * part of the file (see cacheStoreDir).
     */
    std::string checkpointPath;
    /** Accepted steps between checkpoint writes. */
    int checkpointEvery = 10;
    /**
     * Wall-clock budget for the whole run (0 = unlimited). Checked
     * between steps; on expiry the run stops cleanly with the best
     * design so far (stopReason "wall-clock") and, if checkpointing
     * is on, a final checkpoint to resume from.
     */
    int64_t wallBudgetMs = 0;
    /**
     * Per-candidate evaluation cap (0 = unlimited), enforced
     * cooperatively inside the scheduler's annealing loop. A
     * timed-out candidate is recorded as infeasible (counting toward
     * infeasibleExit) instead of hanging a pool worker. Note:
     * wall-clock caps trade bit-exact reproducibility for bounded
     * runtime — which candidates time out depends on machine load.
     */
    int64_t candidateTimeMs = 0;
    /**
     * Test knob: simulate a crash by returning (stopReason "halted")
     * immediately after this many checkpoint writes (0 = off). The
     * returned partial result mirrors what a kill -9 at that moment
     * would leave on disk.
     */
    int haltAfterCheckpoints = 0;
    /**
     * Test-only fault injection: invoked on the worker thread for
     * every (kernel, unroll) evaluation task; may throw or sleep.
     * Not serialized into checkpoints.
     */
    std::function<void(int kernel, int unroll)> evalFaultHook;
    /// @}

    /// @name Multi-process evaluation & the shared eval-cache store
    /// Crash isolation for the batch-evaluation axis: candidates are
    /// sharded over supervised worker *subprocesses*, so a candidate
    /// that segfaults, gets OOM-killed, or wedges the scheduler takes
    /// down a worker — which the coordinator restarts — instead of the
    /// exploration. Like `threads`, none of these knobs can change the
    /// produced trace: a worker's reply is a serialized evaluation
    /// outcome, memoized and replayed by the coordinator exactly like
    /// one computed in-process, and every transport failure
    /// re-evaluates the shard elsewhere (another worker, a restarted
    /// one, or in-process) with identical results. None of them enter
    /// the eval-context hash.
    /// @{
    /**
     * Worker subprocesses for candidate evaluation (0 = evaluate
     * in-process, the default). Results are bit-identical for any
     * value, including under worker crashes.
     */
    int workers = 0;
    /**
     * When non-empty, a directory of append-only, checksummed
     * eval-cache segments shared by any concurrent or future run
     * pointed at the same path. With memoize, it is loaded into the
     * eval cache at run (and resume) start, and the exploring process
     * appends every fresh evaluation, its workers' included (workers
     * never open the store). It is the eval cache's only persistence:
     * a resumed run warms from it, not from the checkpoint. Corrupt
     * records are quarantined (counted in
     * DseCacheStats::storeQuarantined), never trusted and never fatal.
     * Without memoize the store is never opened or created; the
     * Explorer warns that it ignores it.
     */
    std::string cacheStoreDir;
    /**
     * Per-request watchdog on worker replies (0 = unlimited). A shard
     * whose worker exceeds it is SIGKILLed and re-evaluated elsewhere;
     * like candidateTimeMs this trades nothing but latency — the
     * retry produces the same bits.
     */
    int64_t workerRequestTimeoutMs = 0;
    /**
     * Test knob: extra `KEY=VALUE` environment entries for worker
     * subprocesses (fault injection via DSA_FAULT). Not serialized
     * into checkpoints.
     */
    std::vector<std::string> workerEnv;
    /// @}

    /// @name Evaluation memoization
    /// Both switches preserve bit-identical exploration results (same
    /// best design, objective trajectory, checkpoints, and resume
    /// behaviour); turning them off gives the always-recompute
    /// reference that benchmarks and the equivalence tests compare
    /// the memoized run against.
    /// @{
    /**
     * Memoize evaluation work at three levels:
     *  - whole evaluateDesign outcomes, keyed by (canonical ADG
     *    fingerprint, labeling hash, evaluation-context hash), in the
     *    exploring process only: revisited designs replay the stored
     *    per-task outcomes instead of re-running compile + schedule +
     *    estimate, in-process or in a worker. Persisted only through
     *    the cache store (cacheStoreDir), which run() and resume()
     *    warm from; without a store a resumed run starts with an
     *    empty cache. Off, no outcome is memoized anywhere, workers
     *    included;
     *  - Placement::autoLayout and lowerKernel results, shared across
     *    candidates keyed by (HwFeatures fingerprint, kernel, unroll),
     *    since most mutations do not change HwFeatures. Process-local
     *    (rebuilt on demand after resume);
     *  - per-component area/power by parameter signature, pricing
     *    mutated candidates against the parent design instead of
     *    walking + re-predicting the whole fabric. Totals re-sum in
     *    the oracle's exact order, so they are bit-identical to
     *    fabric().
     */
    bool memoize = true;
    /**
     * Collapse batch mutants with identical (structural, labeling)
     * keys to one evaluation; duplicates copy the leader's outcome.
     * Selection order stays deterministic (draw order).
     */
    bool dedupBatch = true;
    /**
     * Checked oracle: recompute every memoized/incremental fabric
     * cost with the full AreaPowerModel::fabric() walk and assert
     * exact equality (debug/property-test knob; expensive).
     */
    bool checkCostOracle = false;
    /// @}

    /// @name Post-run simulator validation
    /// @{
    /**
     * After the exploration loop, run the cycle-level simulator on
     * the best design for every workload in three rounds of every
     * sim::Engine (dense, sparse, compiled, jit), check every run
     * against the first dense run with sim::firstDivergence, and
     * record the per-workload dense/jit wall-clock speedup of each
     * engine's fastest run in DseResult::simSpeedups. A divergence
     * surfaces as an Internal DseResult::status naming the engine, the
     * workload and the differing field. Off by default (it adds full
     * simulation passes to the run). Not serialized into checkpoints.
     */
    bool simValidateBest = false;
    /** Simulator knobs for the validation runs (engine, checkAgainst
     *  and jitHotCycles are overridden per run). Not serialized into
     *  checkpoints. */
    sim::SimOptions sim;
    /// @}
};

/** One step of the exploration trace (drives Fig. 14). */
struct DseIterRecord
{
    int iter = 0;
    double areaMm2 = 0;
    double powerMw = 0;
    double perf = 0;        ///< geomean speedup over the host model
    double objective = 0;   ///< scalar objective (perf^2/mm^2 default)
    bool accepted = false;
    /** Front hypervolume after this candidate's batch (Pareto mode
     *  only; 0 in scalar mode). Drives hypervolume-vs-candidates
     *  curves without re-running the front. */
    double hypervolume = 0;
};

/** One reported front point (DseResult; designs live in the state). */
struct ParetoRecord
{
    double perf = 0;
    double areaMm2 = 0;
    double powerMw = 0;
    double objective = 0;  ///< scalar objective of the point
    int iter = 0;          ///< iteration that produced it
};

/**
 * Cache activity of one run (process-level observability; not part of
 * the resumable state and not serialized into checkpoints — a resumed
 * process starts its own counters).
 */
struct DseCacheStats
{
    uint64_t evalHits = 0;
    uint64_t evalMisses = 0;
    uint64_t evalInserts = 0;
    /** Entries in the eval cache at run end (incl. store-loaded ones). */
    uint64_t evalEntries = 0;
    uint64_t placementHits = 0;
    uint64_t placementMisses = 0;
    uint64_t lowerHits = 0;
    uint64_t lowerMisses = 0;
    uint64_t costHits = 0;
    uint64_t costMisses = 0;
    /** Batch mutants collapsed onto an identical leader. */
    uint64_t dedupCollapsed = 0;
    /// @name Shared eval-cache store activity (DseOptions::cacheStoreDir)
    /// @{
    uint64_t storeLoaded = 0;      ///< records warm-loaded at run start
    uint64_t storeQuarantined = 0; ///< torn/corrupt records skipped
    /** Records appended: every fresh fault-free evaluation of the
     *  run, its workers' included (the exploring process is the
     *  store's only writer). */
    uint64_t storeAppends = 0;
    uint64_t storeSegments = 0;    ///< segment files scanned at load
    /// @}
};

/**
 * Worker-pool activity of one run (DseOptions::workers > 0; all zero
 * otherwise), kept by WorkerPool and copied into DseResult::workerStats.
 * Observability only — never part of the resumable state.
 */
struct WorkerPoolStats
{
    uint64_t spawned = 0;      ///< worker processes started (incl. restarts)
    uint64_t dispatched = 0;   ///< shards sent to a worker
    uint64_t redispatched = 0; ///< shard retries after a worker failure
    uint64_t restarts = 0;     ///< workers restarted by the ladder
    uint64_t degraded = 0;     ///< candidates that fell back in-process
    uint64_t deaths = 0;       ///< worker EOFs/exits observed mid-request
    uint64_t timeouts = 0;     ///< response watchdog expiries
    /** First transport-level failure (errno + site); OK when none.
     *  Transport failures never change results (the ladder re-evaluates
     *  elsewhere) but are reported through DseResult::status. */
    Status firstError;
};

/** Exploration outcome. */
struct DseResult
{
    adg::Adg best;
    double bestObjective = 0;
    double bestPerf = 0;
    model::ComponentCost bestCost;
    std::vector<DseIterRecord> history;
    /** Objective of the initial hardware (for improvement ratios). */
    double initialObjective = 0;
    model::ComponentCost initialCost;

    /**
     * First evaluation error encountered (OK when none). Worker
     * exceptions and per-candidate timeouts surface here as Status;
     * the affected candidates are recorded as infeasible and the run
     * continues (or, if nothing can evaluate, exits cleanly through
     * the infeasibleExit cap).
     */
    Status status;
    /** Candidates lost to evaluation errors or timeouts. */
    int evalFailures = 0;
    /** Checkpoints written during this run. */
    int checkpointsWritten = 0;
    /** Why the run stopped: "max-iters", "no-improve", "infeasible",
     *  "wall-clock", "halted", or "error". */
    std::string stopReason;
    /**
     * The Pareto front at run end (DseOptions::pareto), in archive
     * order: mutually non-dominated (perf, area, power) points. Empty
     * in scalar mode. The designs themselves are kept in
     * DseRunState::front (and its checkpoints), not here.
     */
    std::vector<ParetoRecord> front;
    /** Hypervolume of `front` vs the (area, power) budget reference
     *  point, in geomean-speedup x mm^2 x mW units. */
    double frontHypervolume = 0;
    /** Per-workload dense/jit simulator wall-clock speedup on the
     *  best design (populated when DseOptions::simValidateBest): the
     *  fastest of three dense runs over the fastest of three jit runs,
     *  interleaved. Only the first jit run compiles its kernel, so the
     *  fastest is the native engine's speed, not the compiler's. */
    std::map<std::string, double> simSpeedups;
    /** JIT-tier activity during this run — kernel compiles and their
     *  total latency, requests served natively, degrade counts (see
     *  sim/jit/jit_stats.h). Delta over the run, so kernels an earlier
     *  run in this process compiled show up as zero compiles.
     *  Observability only. */
    sim::jit::JitStats jitStats;
    /** Cache hit/miss/insert counters (see DseCacheStats). */
    DseCacheStats cacheStats;
    /** Scheduler counters summed over every in-process scheduling run
     *  (route cache / A* / SSSP-layer activity, chains executed).
     *  Observability only; eval-cache hits replay no scheduler, so
     *  replayed evaluations contribute nothing here. */
    mapper::SchedStats schedStats;
    /** Worker-pool counters (zero when DseOptions::workers == 0). The
     *  pool's first transport error also lands in `status` — visible,
     *  but it never changed a result (the ladder re-evaluated). */
    WorkerPoolStats workerStats;
};

/**
 * Complete resumable exploration state: everything the main loop reads
 * or writes between steps that decides what it computes. Serialized
 * verbatim into checkpoints (see dse/checkpoint.h); because the loop
 * is deterministic given this state, resuming from any checkpoint
 * reproduces the uninterrupted run bit-identically. The eval cache is
 * not part of it: it only decides how often results are recomputed,
 * and it lives in the Explorer (persisted through the cache store).
 */
struct DseRunState
{
    adg::Adg current;          ///< design being mutated
    double curObj = 0;         ///< its objective
    ScheduleCache schedules;   ///< repair cache (incl. attempted markers)
    int iter = 2;              ///< next iteration index (0/1 = initial)
    int noImprove = 0;
    int infeasibleStreak = 0;
    int acceptedSinceCkpt = 0; ///< accepted steps since last checkpoint
    Rng rng{1};                ///< exploration RNG (stream position)
    /**
     * The Pareto archive (DseOptions::pareto; empty otherwise). Part
     * of the resumable state: points carry their insertion sequence
     * numbers, so pruning tie-breaks after a resume match the
     * uninterrupted run exactly.
     */
    ParetoFront front;
    DseResult result;          ///< best-so-far + trace, grown in place
};

class CacheStore; // dse/cache_store.h
class WorkerPool; // dse/worker_pool.h

/**
 * One design's evaluation outcome: what Explorer::evaluateDesign
 * returns and a worker replies, and, when OK, what the eval cache and
 * the store hold.
 */
struct WorkerEvalOutcome
{
    /** OK, or the first task error in task order (a fault-hook throw,
     *  a compiler error, a candidate timeout). Never a transport
     *  error: the worker pool's ladder absorbs those. */
    Status status;
    /** The outcome; null iff !status.ok(). */
    std::shared_ptr<const EvalCacheEntry> entry;
};

/** Hardware/software co-design explorer over a set of workloads. */
class Explorer
{
  public:
    Explorer(std::vector<const workloads::Workload *> workloads,
             DseOptions opts = {});
    ~Explorer();

    /**
     * Run the exploration from @p initial. With DseOptions::memoize
     * the eval cache starts empty and is warmed from the cache store
     * (DseOptions::cacheStoreDir): a deterministic replay of a
     * completed exploration then hits on every evaluation and skips
     * all compile + schedule work, without changing a single bit of
     * the produced trace.
     */
    DseResult run(const adg::Adg &initial);

    /**
     * Continue a checkpointed exploration. @p state must come from a
     * checkpoint taken with the same workloads and deterministic
     * options (seed, budgets, batch, threads may differ only in count,
     * not in the RNG draws they imply — loadCheckpoint restores the
     * saved options to guarantee this). Produces bit-identical results
     * to the uninterrupted run. The eval cache starts as in run():
     * empty, then warmed from the store when there is one.
     */
    DseResult resume(DseRunState state);

    /** Kernel names, in evaluation order (checkpoint validation). */
    std::vector<std::string> workloadNames() const;

    /**
     * Evaluate one design: compile + schedule every (kernel, unroll)
     * version on the thread pool, repairing from @p schedules, and
     * estimate each; then reduce in task order to per-kernel bests,
     * the geomean perf and the objective. A pure function of (design,
     * repair cache, repair flag, options): it reads no memoized
     * outcome, writes no store and leaves @p schedules untouched —
     * replayEvalEntry applies the outcome to a repair cache. The run
     * loop alone memoizes, stores and replays outcomes.
     * @return OK with the outcome, or the first task error in task
     *         order and no outcome.
     * @param knownCost when non-null, the already-priced fabric cost
     *        of @p adg (skips recomputation; must equal fabric(adg)).
     */
    WorkerEvalOutcome
    evaluateDesign(const adg::Adg &adg, const ScheduleCache &schedules,
                   bool repair,
                   const model::ComponentCost *knownCost = nullptr);

    /**
     * Remove features no kernel can use (unneeded FU classes, unused
     * indirect/atomic controllers, stream-join on designs without
     * data-dependent idioms) — the paper's first-iterations trimming.
     */
    void pruneUnused(adg::Adg &adg) const;

    /** Apply one random mutation; returns a description. Structured
     *  subgraph moves are included iff DseOptions::structuredMoves. */
    std::string mutate(adg::Adg &adg, Rng &rng) const;

    /**
     * A fabric with no processing elements cannot compute: every
     * kernel falls back to host execution (perf 1.0) while its area
     * collapses toward zero, so the legacy `max(1e-6, area)` clamp
     * would score it absurdly high and poison the best/front. Such
     * designs are rejected as infeasible *before* costing.
     */
    static bool isDegenerateFabric(const adg::Adg &adg);

    /**
     * The scalar objective: perf^2 / mm^2, divided by
     * (powerMw/1000)^powerObjectiveWeight when the weight is nonzero
     * (with weight 0 the power factor is skipped, keeping the legacy
     * formula bit-identical).
     */
    double scalarObjective(double perf,
                           const model::ComponentCost &cost) const;

    /**
     * Eval-cache key of evaluating @p adg against @p schedules: the
     * design's canonical key plus a context hash of the repair-cache
     * content, the repair flag, and the evaluation-shaping options.
     */
    EvalKey makeEvalKey(const adg::Adg &adg, const ScheduleCache &schedules,
                        bool repair) const;

    /** makeEvalKey from parts a caller shares across candidates: the
     *  design's adg::canonicalKey and hashScheduleCache(schedules). */
    EvalKey makeEvalKey(const adg::AdgKey &design, uint64_t schedulesHash,
                        bool repair) const;

    /**
     * Apply an evaluation outcome to @p schedules, the repair cache it
     * was evaluated against: per task, a lowered result marks the
     * version attempted and a legal one installs its schedule, while
     * an illegal attempt leaves any previous legal schedule in place
     * as the repair seed. The only code that writes outcomes into a
     * repair cache, whether they were computed just now, in a worker,
     * or in an earlier run.
     */
    void replayEvalEntry(const EvalCacheEntry &entry,
                         ScheduleCache &schedules) const;

  private:
    /** A design under evaluation: a batch mutant, or one of run()'s
     *  two initial designs. */
    struct Candidate
    {
        adg::Adg adg;
        int iter = 0;
        bool feasible = false;
        /** Fabric cost, priced before evaluation. */
        model::ComponentCost cost;
        /** adg::canonicalKey(adg); set when memoizing or deduping. */
        adg::AdgKey canon;
        // Filled by evaluation:
        ScheduleCache cache;
        double perf = 0;
        double objective = 0;
        Status evalStatus;
    };

    /** Main exploration loop, shared by run() and resume(). */
    DseResult runLoop(DseRunState &st);
    /**
     * The one evaluation step of run() and runLoop(): evaluate
     * cands[i] for each i in @p leaders against the repair cache
     * @p base. In order, it looks every leader up in the eval cache;
     * computes the misses in worker subprocesses or on pool_;
     * evaluates here any worker reply or hit that failed or does not
     * fit the (kernel, unroll) grid; inserts and appends the fresh
     * fault-free outcomes; and replays every outcome into its
     * candidate. Leaders need `canon` set when memoizing.
     */
    void evaluateCandidates(std::vector<Candidate> &cands,
                            const std::vector<size_t> &leaders,
                            const ScheduleCache &base, bool repair);
    /** Start run() / resume() with an empty eval cache (when
     *  memoizing), warmed from the store. */
    void startEvalCache();
    /** Post-run cross-check of every simulator engine on the best
     *  design (DseOptions::simValidateBest). */
    void validateBest(DseResult &result);
    /** Write a checkpoint of @p st (warn, don't fail, on error). */
    void writeCheckpoint(DseRunState &st);
    /** Fabric cost of @p adg through the enabled fast path, with the
     *  optional checked-oracle cross-check. */
    model::ComponentCost priceFabric(const adg::Adg &adg,
                                     bool tryIncremental);
    /** Snapshot all cache counters into @p st's result. */
    void recordCacheStats(DseRunState &st);
    /** Copy the front (records + hypervolume) into @p st's result and
     *  snapshot the cache counters — every exit path calls this. */
    void finalizeResult(DseRunState &st);

    std::vector<const workloads::Workload *> workloads_;
    DseOptions opts_;
    std::vector<double> hostCycles_;
    /** Shared pool for grid and batch evaluation (nested calls run
     *  inline on the worker, so the two axes compose safely). */
    std::unique_ptr<ThreadPool> pool_;
    /** Chain pool for SchedOptions::chains; null unless schedChains
     *  > 1 and pool_ has one thread. A parallelFor issued from inside
     *  any pool's task runs inline, so at threads > 1, where the
     *  schedulers run as pool_ tasks, a chain pool would run nothing. */
    std::unique_ptr<ThreadPool> chainPool_;
    /** Scheduler counters accumulated across evaluations (see
     *  DseResult::schedStats). Guarded by schedStatsMu_: candidate
     *  batching runs whole evaluateDesign() calls on pool_ workers,
     *  so their per-task reductions land concurrently. Counter sums
     *  are commutative, so accumulation order doesn't matter. */
    mapper::SchedStats schedStats_;
    mutable std::mutex schedStatsMu_;
    /** Context-hash component covering workloads + eval options. */
    uint64_t workloadSig_ = 0;
    /** Placement/lowering cache (null when opts_.memoize is off). */
    std::unique_ptr<compiler::CompileCache> compileCache_;
    /** Design-level eval cache of the current run() / resume() (null
     *  when opts_.memoize is off). */
    std::unique_ptr<EvalCache> evalCache_;
    /** Per-component cost flyweight table (used when opts_.memoize). */
    model::ComponentCostMemo costMemo_;
    /** Parent-relative fabric pricer, rebound on every accepted step. */
    model::IncrementalFabricCost pricer_;
    /** Batch mutants collapsed by dedup (for DseCacheStats). */
    uint64_t dedupCollapsed_ = 0;
    /** Shared on-disk eval-cache store (null without cacheStoreDir). */
    std::unique_ptr<CacheStore> cacheStore_;
    /** Worker-subprocess pool (null until a run with workers > 0
     *  starts one; dropped — with a recorded status — if every worker
     *  fails, degrading the run to in-process evaluation). */
    std::unique_ptr<WorkerPool> workerPool_;
    /** Process-wide jit counters at construction: DseResult::jitStats
     *  reports the delta over this explorer's lifetime. */
    sim::jit::JitStats jitStatsBase_;
};

} // namespace dsa::dse

#endif // DSA_DSE_EXPLORER_H
