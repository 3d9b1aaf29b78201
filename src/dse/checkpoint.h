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
 * stream position. The repair cache is one hex string holding the
 * binary encoding of dse/entry_codec.h, the schedule encoding the
 * cache store and the worker pipes use too. Doubles are written with
 * 17 significant digits and int64s as raw decimal text, so every
 * number round-trips exactly. Evaluations are not part of it: the
 * eval cache persists through the cache store
 * (DseOptions::cacheStoreDir) alone, and a resumed run warms from
 * there.
 *
 * The format is version 3 and every field is required (only `front`
 * is optional, since scalar runs write none). Files of any other
 * version, including versions 1 and 2 from older builds (version 2
 * held the repair cache as a JSON array), are refused with
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
inline constexpr int kCheckpointVersion = 3;

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
/// Exported for the worker-pool pipe protocol, whose init frame ships
/// the options to workers in exactly the checkpoint's bytes. Round-
/// trips are exact — the bit-identity of multi-process runs rests on
/// it. (Repair caches and eval entries use dse/entry_codec.h.)
/// @{

/** Serialize exploration options (test-only knobs excluded). */
json::Value dseOptionsToJson(const DseOptions &opts);

/** Rebuild exploration options; DataLoss on corrupt input. */
Result<DseOptions> dseOptionsFromJson(const json::Value &doc);

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
