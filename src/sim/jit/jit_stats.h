/**
 * @file
 * Process-wide counters for the JIT simulation tier: how many kernel
 * requests were served a native kernel, how many kernels were compiled
 * and how long that took, and how many builds degraded (compile or
 * dlopen failure). Snapshots are plain value structs so callers (DSE
 * results, --sim-stats, tests) can diff before/after.
 */

#ifndef DSA_SIM_JIT_JIT_STATS_H
#define DSA_SIM_JIT_JIT_STATS_H

#include <cstdint>

namespace dsa::sim::jit {

struct JitStats
{
    int64_t requests = 0;       ///< acquire() calls (per armed program)
    /** Requests served a native kernel, including the one whose
     *  compile registered it. */
    int64_t memHits = 0;
    /** Always 0: no object is loaded from another process. Kept only
     *  because the end-to-end benchmark reports it. */
    int64_t diskHits = 0;
    int64_t compiles = 0;       ///< compiler invocations that succeeded
    int64_t compileFailures = 0;///< compiler missing/failed/faulted
    int64_t dlopenFailures = 0; ///< object built but not mappable
    /** Wall time spent building kernels: compiler probe, compile and
     *  dlopen, failed builds included. */
    double compileMs = 0.0;

    JitStats
    operator-(const JitStats &o) const
    {
        JitStats d;
        d.requests = requests - o.requests;
        d.memHits = memHits - o.memHits;
        d.diskHits = diskHits - o.diskHits;
        d.compiles = compiles - o.compiles;
        d.compileFailures = compileFailures - o.compileFailures;
        d.dlopenFailures = dlopenFailures - o.dlopenFailures;
        d.compileMs = compileMs - o.compileMs;
        return d;
    }
};

} // namespace dsa::sim::jit

#endif // DSA_SIM_JIT_JIT_STATS_H
