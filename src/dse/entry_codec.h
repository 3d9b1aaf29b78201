/**
 * @file
 * Binary codec for eval-cache entries, repair caches and worker-pipe
 * frames.
 *
 * One encoding serves every place an evaluation outcome or a repair
 * cache leaves the process: cache-store record payloads
 * (dse/cache_store.h), the worker-pipe frames (dse/worker_pool.h),
 * which carry them as raw codec bytes, and a checkpoint's repair
 * cache (dse/checkpoint.h), the one place that keeps them as hex
 * text (toHex in base/strings.h) inside its JSON. Round-trips are
 * exact — the bit-identity of multi-process runs and resumes rests
 * on it.
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
 *     init     count, text* workload names, text options
 *     ready    nothing
 *     error    text message
 *     eval     u64 id, u8 repair, cache, count, text* candidate ADGs
 *     result   u64 id, count, (u8 status code, entry iff the code is
 *              0, text message otherwise)*
 *     shutdown nothing
 *   text     = count, byte*
 *
 * `count` is an unsigned LEB128 varint; `int` is a zigzag varint of a
 * 32-bit value, so the unassigned id -1 takes one byte; u64 is eight
 * little-endian bytes and f64 the little-endian IEEE-754 bits, so
 * every double round-trips exactly.
 *
 * Decoders trust nothing. Every count is checked against the bytes
 * that remain (times its element's smallest encoding) before anything
 * is sized; varints must be minimal and fit, ints must fit 32 bits,
 * flags may only set their defined bits, frame types and status
 * codes must be defined values, map keys must strictly ascend, and a
 * payload that ends early or has bytes left over is
 * DataLoss. Any byte string therefore decodes to exactly the value
 * that encodes to it, or to DataLoss — never a crash, and never an
 * allocation larger than the input justifies.
 */

#ifndef DSA_DSE_ENTRY_CODEC_H
#define DSA_DSE_ENTRY_CODEC_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
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
    std::string options;                ///< init: dseOptionsToText
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

} // namespace dsa::dse

#endif // DSA_DSE_ENTRY_CODEC_H
