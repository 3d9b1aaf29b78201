/**
 * @file
 * Binary codec for everything the DSE persists or ships: eval-cache
 * entries, repair caches, worker-pipe frames, exploration options and
 * checkpoints.
 *
 * One encoding serves every place an evaluation outcome, a repair
 * cache or the exploration state leaves the process: cache-store
 * record payloads (dse/cache_store.h), the worker-pipe frames
 * (dse/worker_pool.h) and checkpoint files (dse/checkpoint.h, which
 * put a magic and the version in front of the checkpoint record).
 * Entries, repair caches and options ride inside frames and
 * checkpoints as raw codec bytes. Round-trips are exact — the
 * bit-identity of multi-process runs and resumes rests on it.
 *
 * One walk per record writes and reads each layout below: a function
 * template that visits the record's fields once, in order, over
 * either the encoder's primitives or the checking decoder's. So the
 * two directions cannot list a record's fields differently.
 *
 * Layout, field by field in this order:
 *
 *   entry    = key, f64 objective, f64 perf, f64 area, f64 power,
 *              count, task*
 *   key      = u64 structural.hi, u64 structural.lo, u64 labeling,
 *              u64 context
 *   task     = u8 flags (bit 0 lowered, bit 1 legal), f64 cycles,
 *              schedule iff legal
 *   cache    = count, (int kernel, int unroll, u8 hasLegal,
 *                       schedule iff hasLegal)*
 *   schedule = count, region*, count, (int forward, route)*,
 *              int unplaced, overuse, violations, maxIi,
 *              recurrenceLatency, wirelength
 *   region   = u8 serialized, count, int* vertexMap, count,
 *              int* streamMap, count, int* vertexTime,
 *              count, (int vertex, int operand, route)*,
 *              count, (int stream, route)*
 *   route    = count, int* edge ids
 *
 *   frame    = u8 type, then by type:
 *     init     count, text* workload names, options
 *     ready    nothing
 *     error    text message
 *     eval     u64 id, u8 repair, cache, count, text* candidate ADGs
 *     result   u64 id, count, (u8 status code, entry iff the code is
 *              0, text message otherwise)*
 *     shutdown nothing
 *   text     = count, byte*
 *
 *   options  = int maxIters, int noImproveExit, int infeasibleExit,
 *              u64 seed, int schedIters, int initSchedIters,
 *              u8 useRepair, f64 areaBudgetMm2, f64 powerBudgetMw,
 *              count, int* unrollFactors, int threads,
 *              int candidateBatch, int schedChains,
 *              text checkpointPath, int checkpointEvery,
 *              u64 wallBudgetMs, u64 candidateTimeMs, u8 memoize,
 *              u8 dedupBatch, u8 checkCostOracle, u8 pareto,
 *              int paretoFrontSize, u8 structuredMoves,
 *              f64 powerObjectiveWeight, int workers,
 *              text cacheStoreDir, u64 workerRequestTimeoutMs
 *              (test-only knobs and post-run validation stay out)
 *   checkpoint = count, text* workload names, options, text current
 *              ADG, f64 curObj, int iter, int noImprove,
 *              int infeasibleStreak, int acceptedSinceCkpt, text rng
 *              (Rng::saveState), cache, result, front iff pareto
 *   result   = text best ADG, f64 bestObjective, f64 bestPerf,
 *              f64 bestArea, f64 bestPower, f64 initialObjective,
 *              f64 initialArea, f64 initialPower, count, history*,
 *              int evalFailures, int checkpointsWritten,
 *              text stopReason, u8 status code, text status message
 *   history  = int iter, f64 area, f64 power, f64 perf, f64 objective,
 *              u8 accepted, f64 hypervolume
 *   front    = f64 refArea, f64 refPower, int maxSize, count,
 *              (text ADG, f64 perf, f64 area, f64 power,
 *               f64 objective, int iter, u64 seq)*
 *
 * `count` is an unsigned LEB128 varint; `int` is a zigzag varint of a
 * 32-bit value, so the unassigned id -1 takes one byte; u64 is eight
 * little-endian bytes and f64 the little-endian IEEE-754 bits, so
 * every double round-trips exactly; an int64 time limit is the u64 of
 * its two's-complement bits.
 *
 * Decoders trust nothing. Every count is checked against the bytes
 * that remain (times its element's smallest encoding) before anything
 * is sized; varints must be minimal and fit, ints must fit 32 bits,
 * flags may only set their defined bits, frame types and status
 * codes must be defined values, map keys must strictly ascend, an
 * options record's unroll factors must be at least 1 (the explorer
 * cannot run a smaller one), and a payload that ends early or has
 * bytes left over is DataLoss. Any byte string therefore decodes to
 * exactly the entry, cache or frame that encodes to it, or to
 * DataLoss — never a crash, and never an allocation larger than the
 * input justifies. A checkpoint also holds ADG text, which the ADG
 * parser reads, so it decodes or is DataLoss, naming the line of bad
 * ADG text; its RNG state must be exactly the text Rng::saveState
 * writes, and its Pareto front must have a positive reference point
 * and room for two points.
 */

#ifndef DSA_DSE_ENTRY_CODEC_H
#define DSA_DSE_ENTRY_CODEC_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "dse/checkpoint.h"
#include "dse/eval_cache.h"

namespace dsa::dse {

/** One eval-cache entry with its key (a cache-store record). */
struct EvalStoreRecord
{
    EvalKey key;
    std::shared_ptr<const EvalCacheEntry> entry;
};

/** Encode one eval-cache entry with its key. */
std::string encodeEvalEntry(const EvalKey &key, const EvalCacheEntry &entry);

/** Decode all of @p bytes as one entry; DataLoss on corrupt input. */
Result<EvalStoreRecord> decodeEvalEntry(std::string_view bytes);

/** Encode a per-(kernel, unroll) repair cache. */
std::string encodeScheduleCache(const ScheduleCache &cache);

/** Decode all of @p bytes as a repair cache; DataLoss on corrupt input. */
Result<ScheduleCache> decodeScheduleCache(std::string_view bytes);

/** Worker-pipe frame types (the protocol is in dse/worker_pool.h). */
enum class FrameType : uint8_t
{
    Init = 1,
    Ready,
    Error,
    Eval,
    Result,
    Shutdown,
};

/** One candidate's outcome in a result frame. */
struct FrameOutcome
{
    /** OK, or the candidate's evaluation error. */
    Status status;
    /** The evaluation under its eval key; entry null iff !status.ok(). */
    EvalStoreRecord record;
};

/** One worker-pipe frame; only the fields of its type are coded. */
struct WorkerFrame
{
    FrameType type = FrameType::Shutdown;
    std::vector<std::string> workloads; ///< init: workload names
    DseOptions options;                 ///< init: exploration options
    std::string message;                ///< error: why init failed
    uint64_t id = 0;                    ///< eval, result: request id
    bool repair = false;                ///< eval: repair or start fresh
    ScheduleCache schedules;            ///< eval: the base repair cache
    std::vector<std::string> cands;     ///< eval: candidate ADG texts
    std::vector<FrameOutcome> outcomes; ///< result: one per candidate
};

/** Encode one frame (the payload of one Subprocess frame). */
std::string encodeFrame(const WorkerFrame &frame);

/** Decode all of @p bytes as one frame; DataLoss on corrupt input. */
Result<WorkerFrame> decodeFrame(std::string_view bytes);

/** Encode a checkpoint record (the body of a checkpoint file). */
std::string encodeCheckpoint(const std::vector<std::string> &workloadNames,
                             const DseOptions &opts,
                             const DseRunState &state);

/** Decode all of @p bytes as a checkpoint record; DataLoss on corrupt
 *  input. */
Result<DseCheckpoint> decodeCheckpoint(std::string_view bytes);

} // namespace dsa::dse

#endif // DSA_DSE_ENTRY_CODEC_H
