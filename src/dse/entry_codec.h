/**
 * @file
 * Binary codec for eval-cache entries and repair caches.
 *
 * One encoding serves every place an evaluation outcome or a repair
 * cache leaves the process: cache-store record payloads
 * (dse/cache_store.h), the worker-pipe eval requests and replies
 * (dse/worker_pool.h) and a checkpoint's repair cache
 * (dse/checkpoint.h); the last two carry it as hex text (toHex in
 * base/strings.h). Round-trips are exact — the bit-identity of
 * multi-process runs and resumes rests on it.
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
 * `count` is an unsigned LEB128 varint; `int` is a zigzag varint of a
 * 32-bit value, so the unassigned id -1 takes one byte; u64 is eight
 * little-endian bytes and f64 the little-endian IEEE-754 bits, so
 * every double round-trips exactly.
 *
 * Decoders trust nothing. Every count is checked against the bytes
 * that remain (times its element's smallest encoding) before anything
 * is sized; varints must be minimal and fit, ints must fit 32 bits,
 * flags may only set their defined bits, map keys must strictly
 * ascend, and a payload that ends early or has bytes left over is
 * DataLoss. Any byte string therefore decodes to exactly the value
 * that encodes to it, or to DataLoss — never a crash, and never an
 * allocation larger than the input justifies.
 */

#ifndef DSA_DSE_ENTRY_CODEC_H
#define DSA_DSE_ENTRY_CODEC_H

#include <memory>
#include <string>
#include <string_view>

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

} // namespace dsa::dse

#endif // DSA_DSE_ENTRY_CODEC_H
