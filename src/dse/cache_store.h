/**
 * @file
 * Persistent shared eval-cache store for multi-process DSE.
 *
 * A store is a directory of append-only *segment* files, each owned by
 * exactly one writer process (`seg-<pid>-<n>.dsec`), holding one
 * xxhash64-checksummed record per eval-cache entry keyed by the
 * canonical fingerprints (EvalKey). A record is the magic "DSE2", the
 * payload length (u32 LE), the payload's xxhash64 (u64 LE), then the
 * payload: the key and entry in the binary encoding of
 * dse/entry_codec.h. Entries are pure functions of
 * their key, so replaying any subset of any segment set into an
 * EvalCache is always sound — the store changes how often work is
 * recomputed, never its results. That property is what lets the
 * coordinator and N workers share one directory with no record-level
 * coordination at all: writers never touch each other's segments, and
 * readers simply scan everything present.
 *
 * Torn or corrupt records (a writer killed mid-append, bit rot, a
 * truncated tail) are *quarantined*: the scanner logs the file and
 * byte offset, counts the record in CacheStoreStats, resynchronizes on
 * the next record magic, and keeps going. Corruption can cost cache
 * warmth, never correctness and never a crash. Segments written by
 * older builds (JSON payloads under the magic "DSEC") take the same
 * path: each file is one quarantined region that yields no records,
 * and the next compaction retires it.
 *
 * The one multi-writer operation — compacting segments into one — is
 * serialized by a lease: a FileLock (base/files.h) on `compact.lease`.
 * The kernel drops it when its holder exits or is killed, so a dead
 * compactor never blocks the next one, and while a live holder has it
 * compact() declines without error. The merged segment is published
 * with writeFileAtomic before any old segment is unlinked. Compaction
 * preserves the writers-never-touch-each-other's-segments invariant by
 * only unlinking segments whose owner process is gone (or its own
 * closed ones): a live writer may append to its segment after the
 * merge snapshotted it, so such segments are merged but left in place
 * (counted in CacheStoreStats::liveSegmentsSkipped) for a later
 * compaction to retire once their owner exits.
 */

#ifndef DSA_DSE_CACHE_STORE_H
#define DSA_DSE_CACHE_STORE_H

#include <cstdint>
#include <mutex>
#include <string>

#include "base/status.h"
#include "dse/eval_cache.h"

namespace dsa::dse {

/** Store activity counters (feed DseCacheStats::store*). */
struct CacheStoreStats
{
    uint64_t segmentsLoaded = 0;     ///< segment files scanned
    uint64_t recordsLoaded = 0;      ///< records replayed into a cache
    uint64_t recordsQuarantined = 0; ///< torn/corrupt records skipped
    uint64_t appends = 0;            ///< records this process wrote
    uint64_t compactions = 0;        ///< successful compact() runs
    /** Segments merged but not unlinked because their owner process is
     *  still alive (it may append after the merge snapshot). */
    uint64_t liveSegmentsSkipped = 0;
};

class CacheStore
{
  public:
    explicit CacheStore(std::string dir);
    ~CacheStore(); ///< flushes the write segment

    CacheStore(const CacheStore &) = delete;
    CacheStore &operator=(const CacheStore &) = delete;

    /** Create the store directory (mkdir -p); call before anything else. */
    Status open();

    const std::string &dir() const { return dir_; }

    /**
     * Scan every segment in the store into @p cache (insert-once, so
     * records already present are kept).
     * Quarantines bad records; only I/O-level failures return non-OK.
     */
    Status loadInto(EvalCache &cache);

    /** Append one record to this process's segment file (thread-safe). */
    Status append(const EvalKey &key, const EvalCacheEntry &entry);

    /** fsync + close the current write segment (reopened on next append). */
    void flush();

    /**
     * Merge every segment into one (deduplicated by key) under the
     * compaction lease. Returns false — not an error — when a live
     * holder has the lease.
     */
    Result<bool> compact();

    /** compact() iff the store holds more than eight segment files. */
    void maybeCompact();

    CacheStoreStats stats() const;

  private:
    Status ensureSegmentLocked();

    std::string dir_;
    mutable std::mutex mu_;
    CacheStoreStats stats_;
    int segFd_ = -1;
    std::string segPath_;
};

} // namespace dsa::dse

#endif // DSA_DSE_CACHE_STORE_H
