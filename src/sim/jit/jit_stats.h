/**
 * @file
 * Process-wide counters for the JIT simulation tier: how many kernel
 * requests were served from the in-memory registry, loaded from the
 * on-disk object cache, compiled fresh, or degraded (compile/dlopen
 * failure, quarantined object). Snapshots are plain value structs so
 * callers (DSE results, --sim-stats, tests) can diff before/after.
 */

#ifndef DSA_SIM_JIT_JIT_STATS_H
#define DSA_SIM_JIT_JIT_STATS_H

#include <cstdint>

namespace dsa::sim::jit {

struct JitStats
{
    int64_t requests = 0;       ///< acquire() calls (per armed program)
    int64_t memHits = 0;        ///< served by the in-process registry
    int64_t diskHits = 0;       ///< dlopen'd from the object cache
    int64_t compiles = 0;       ///< compiler invocations that succeeded
    int64_t compileFailures = 0;///< compiler missing/failed/faulted
    int64_t dlopenFailures = 0; ///< object built/loaded but not mappable
    int64_t quarantined = 0;    ///< corrupt cache entries set aside
    int64_t lockWaits = 0;      ///< found the compile claim held, waited
    double compileMs = 0.0;     ///< total wall time inside the compiler

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
        d.quarantined = quarantined - o.quarantined;
        d.lockWaits = lockWaits - o.lockWaits;
        d.compileMs = compileMs - o.compileMs;
        return d;
    }
};

} // namespace dsa::sim::jit

#endif // DSA_SIM_JIT_JIT_STATS_H
