/**
 * @file
 * Crash-safe DSE checkpointing.
 *
 * A checkpoint is a single binary file holding the exploration state
 * and nothing else: the workload list (for validation), the
 * exploration options, and the DseRunState — current/best ADGs (as
 * ADG text), the repair cache including attempted-but-illegal markers
 * (they select the per-step scheduling budget), the iteration trace,
 * the Pareto front (Pareto runs only), and the exploration RNG's
 * stream position. The file is the magic "DSCK", the version as a
 * count, then the checkpoint record of dse/entry_codec.h, the codec
 * the cache store and the worker pipes use too, so every double and
 * int64 round-trips exactly. Evaluations are not part of it: the eval
 * cache persists through the cache store (DseOptions::cacheStoreDir)
 * alone, and a resumed run warms from there.
 *
 * The format is version 4. Files of any other version are refused
 * with InvalidArgument naming both versions, and so are the JSON
 * files of versions 1 to 3 from older builds.
 *
 * Writes are atomic (base/files.h writeFileAtomic: `<path>.tmp`,
 * fsync, rename, directory fsync): a crash — even kill -9 — mid-write
 * leaves the previous checkpoint intact. Loads never crash: truncated
 * or corrupt files come back as DataLoss naming what was wrong.
 */

#ifndef DSA_DSE_CHECKPOINT_H
#define DSA_DSE_CHECKPOINT_H

#include <string>
#include <vector>

#include "base/status.h"
#include "dse/explorer.h"

namespace dsa::dse {

/** Current checkpoint file format version. */
inline constexpr int kCheckpointVersion = 4;

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

/**
 * Atomically write a checkpoint file (writeFileAtomic, fault site
 * `checkpoint.tear`) so readers never observe a torn file.
 */
Status saveCheckpoint(const std::vector<std::string> &workloadNames,
                      const DseOptions &opts, const DseRunState &state,
                      const std::string &path);

/** Read + decode + validate a checkpoint file. */
Result<DseCheckpoint> loadCheckpoint(const std::string &path);

} // namespace dsa::dse

#endif // DSA_DSE_CHECKPOINT_H
