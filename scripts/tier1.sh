#!/usr/bin/env bash
# Tier-1 verification: the full correctness suite on a normal build,
# then the concurrency tests again under ThreadSanitizer (the
# -DDSA_SANITIZE=thread configuration) so data races in the parallel
# DSE paths fail the build, not a user's exploration. The scheduler's
# incremental-bookkeeping tests (which enable the checkIncremental
# oracle cross-check internally) run under TSan as well, since the
# mutable tracker state is exactly what the parallel DSE must never
# share across threads.
#
# Usage: scripts/tier1.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "== tier-1: concurrency + incremental-scheduler tests under ThreadSanitizer =="
# test_dse_cache runs under TSan too: the sharded eval/compile/cost
# caches are read and written concurrently by pool workers, and their
# bit-identity guarantees are only as good as their synchronization.
# test_dse_pareto joins them because the Pareto front's thread-count
# bit-identity depends on front updates staying strictly serial while
# candidate evaluation fans out.
# test_robustness joins as well: the worker-pool coordinator, the
# shared cache store's append/compact locking, and the fault-injection
# registry all mix threads with subprocess supervision (the spawned
# workers are TSan-instrumented re-execs of the test binary itself).
# test_concurrency's threads-4 explorers also run the suite's golden
# interpreter runs on the pool at construction, one workload per
# thread, each writing only its own host-cycle slot.
# test_scheduler_parallel rounds out the set: multi-chain annealing
# runs independently-seeded chains on a shared pool with a serial
# fixed-order reduction, and the shared landmark table is read
# concurrently by every chain — the chains=1 bit-identity and
# thread-count determinism guarantees hold only if none of that
# per-chain state leaks across threads. The scheduler regexes also
# match the *_nocache ctest names, which re-run just the suites'
# checkIncremental/checkRoutes oracle tests.
cmake -B build-tsan -S . -DDSA_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "$JOBS" \
      --target test_concurrency test_base test_scheduler_incremental \
      test_scheduler_parallel test_dse_cache test_dse_pareto \
      test_robustness
TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure \
          -R 'test_concurrency|test_base|test_scheduler_incremental|test_scheduler_parallel|test_dse_cache|test_dse_pareto|test_robustness'

echo
echo "== tier-1: robustness, sparse-simulator, scheduler, base, ADG, DSE-cache and interpreter tests under ASan+UBSan =="
# The crash-safety paths (checkpoint serialization, watchdog aborts,
# exception propagation out of pool workers) juggle partially-built
# state by design; run them with address + undefined-behavior checking
# so a leak or UB on an abort path fails here, not in a resumed run.
# The sparse-vs-dense equivalence suite runs here too: the event-driven
# fast path's flat hot-state (epoch-stamped arrays, build-time memory
# plans, persistent forward queues) is exactly the kind of manually
# indexed bookkeeping where an off-by-one reads out of bounds instead
# of failing a test. It runs in both loop modes: test_sim_sparse, and
# its _dense ctest variant (DSA_SIM_ENGINE=dense), which the
# test_sim_sparse regex also matches.
# test_sim_compiled joins it: the compiled tier's compute plans and
# period-replay programs are arrays of raw pointers and arena offsets
# rebuilt on every reconfigure — exactly where a stale pointer or
# off-by-one survives a functional test but not ASan.
# test_sim_jit joins too: the jit tier hands raw operand tables (host
# pointers into ring storage, port buffers, scratch arrays) to
# dlopen'ed code, rebinding them every chunk — a stale rebind is a
# use-after-free only ASan can see. The generated kernels themselves
# are compiled by the system compiler without instrumentation; the
# instrumented host still checks every byte the kernel hands back.
# The regex also matches the test_sim_jit_* entries, the cases that
# need a fresh kernel registry and so run in processes of their own.
# The scheduler suites join as well: the probe path reads flat tables
# hand-indexed by offset (per-region operand-slot route lengths,
# timing plans, SSSP trees relaxed in place), where an off-by-one
# reads a neighbouring slot instead of failing an oracle. Their
# checkIncremental/checkRoutes runs drive those tables through
# thousands of place/unplace states, and the regexes also match the
# *_nocache ctest names.
# test_base joins for the durable-file module (base/files.h) that
# checkpoints and the eval-cache store write through: its read/write buffers are indexed by hand across short
# reads and writes, and each FileLock owns a descriptor that must be
# closed exactly once, including in the forked holders its tests kill.
# test_adg joins for the ADG text parser, which sizes flat node and
# edge tables from ids read out of files, checkpoints and worker
# frames: an id that escapes its range check is an out-of-bounds
# write, which only ASan reports reliably (a plain build may not
# crash at all). Its malformed-text cases drive every such check.
# test_dse_cache joins for the explorer's evaluation step: outcomes
# pass between the thread pool, the eval cache, the store and the
# replay as shared pointers and moved schedules, and a read of a
# moved-from schedule or a dangling entry fails no functional test —
# its cached-vs-uncached, warm-vs-cold and store round-trip runs drive
# every one of those hand-offs.
# test_ir, test_workloads and test_edge_cases join for the golden
# interpreter: it resolves each kernel into node, statement and slot
# tables indexed by hand (array base pointers, a value stack sized at
# resolve time, loop-id and scalar slots), where an off-by-one reads a
# neighbouring slot instead of failing a test. test_workloads runs
# every workload against digests and op counts pinned from the
# tree-walking interpreter it replaced; test_edge_cases drives each of
# its failure paths.
cmake -B build-asan -S . -DDSA_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$JOBS" --target test_robustness \
      test_sim_sparse test_sim_compiled test_sim_jit \
      test_scheduler_incremental test_scheduler_parallel test_base \
      test_adg test_dse_cache test_ir test_workloads test_edge_cases
ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan --output-on-failure \
          -R 'test_robustness|test_sim_sparse|test_sim_compiled|test_sim_jit|test_scheduler_incremental|test_scheduler_parallel|test_base|test_adg|test_dse_cache|test_ir|test_workloads|test_edge_cases'

echo
echo "tier-1 OK"
