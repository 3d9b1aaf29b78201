/**
 * @file
 * Crash-safe DSE checkpointing.
 *
 * A checkpoint is a single JSON file holding the exploration state and
 * nothing else: the workload list (for validation), the exploration
 * options, and the DseRunState — current/best ADGs (embedded as ADG
 * text), the repair cache including attempted-but-illegal markers
 * (they select the per-step scheduling budget), the iteration trace,
 * the Pareto front (Pareto runs only), and the exploration RNG's
 * stream position. Doubles are written with 17 significant digits and
 * int64s as raw decimal text, so every number round-trips exactly.
 * Evaluations are not part of it: the eval cache persists through the
 * cache store (DseOptions::cacheStoreDir) alone, and a resumed run
 * warms from there.
 *
 * The format is version 2 and every field is required (only `front`
 * is optional, since scalar runs write none). Files of any other
 * version, including version 1 from older builds, are refused with
 * InvalidArgument.
 *
 * Writes are atomic (base/files.h writeFileAtomic: `<path>.tmp`,
 * fsync, rename, directory fsync): a crash — even kill -9 — mid-write
 * leaves the previous checkpoint intact. Loads
 * never crash: truncated or corrupt files come back as a structured
 * Status (DataLoss / InvalidArgument) naming what was wrong.
 */

#ifndef DSA_DSE_CHECKPOINT_H
#define DSA_DSE_CHECKPOINT_H

#include <string>
#include <vector>

#include "base/json.h"
#include "base/status.h"
#include "dse/explorer.h"

namespace dsa::dse {

/** Current checkpoint file format version. */
inline constexpr int kCheckpointVersion = 2;

/** Everything a checkpoint file holds. */
struct DseCheckpoint
{
    /** Kernel names the run was exploring, in evaluation order. The
     *  resumer must pass the same workloads (checked by the CLI). */
    std::vector<std::string> workloadNames;
    /** Options the run was started with. Test-only knobs
     *  (haltAfterCheckpoints, evalFaultHook) are not serialized. */
    DseOptions options;
    /** Resumable loop state (see DseRunState). */
    DseRunState state;
};

/** Serialize a checkpoint to its JSON document. */
json::Value checkpointToJson(const std::vector<std::string> &workloadNames,
                             const DseOptions &opts,
                             const DseRunState &state);

/// @name Shared serializers
/// The checkpoint format's building blocks, exported for the two other
/// consumers that must speak exactly the same bytes: the worker-pool
/// pipe protocol (ships options + the repair cache to workers and eval
/// outcomes back) and the on-disk eval-cache store (one evalEntry JSON
/// document per segment record; checkpoints hold no eval entries).
/// Round-trips are exact — the bit-identity of multi-process runs
/// rests on it.
/// @{

/** Serialize a per-(kernel,unroll) repair cache. */
json::Value scheduleCacheToJson(const ScheduleCache &cache);

/** Rebuild a repair cache; DataLoss on corrupt input. */
Result<ScheduleCache> scheduleCacheFromJson(const json::Value &arr);

/** Serialize exploration options (test-only knobs excluded). */
json::Value dseOptionsToJson(const DseOptions &opts);

/** Rebuild exploration options; DataLoss on corrupt input. */
Result<DseOptions> dseOptionsFromJson(const json::Value &doc);

/** One eval-cache entry with its key (a cache-store segment record). */
struct EvalStoreRecord
{
    EvalKey key;
    std::shared_ptr<const EvalCacheEntry> entry;
};

/** Serialize one eval-cache entry with its key. */
json::Value evalEntryToJson(const EvalKey &key, const EvalCacheEntry &entry);

/** Rebuild an eval-cache record; DataLoss on corrupt input. */
Result<EvalStoreRecord> evalEntryFromJson(const json::Value &doc);

/// @}

/** Rebuild a checkpoint from a parsed document; DataLoss on corrupt. */
Result<DseCheckpoint> checkpointFromJson(const json::Value &doc);

/**
 * Atomically write a checkpoint file (writeFileAtomic, fault site
 * `checkpoint.tear`) so readers never observe a torn file.
 */
Status saveCheckpoint(const std::vector<std::string> &workloadNames,
                      const DseOptions &opts, const DseRunState &state,
                      const std::string &path);

/** Read + parse + validate a checkpoint file. */
Result<DseCheckpoint> loadCheckpoint(const std::string &path);

} // namespace dsa::dse

#endif // DSA_DSE_CHECKPOINT_H
