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
echo "== tier-1: robustness, sparse-simulator and scheduler tests under ASan+UBSan =="
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
# The scheduler suites join as well: the probe path reads flat tables
# hand-indexed by offset (per-region operand-slot route lengths,
# timing plans, SSSP trees relaxed in place), where an off-by-one
# reads a neighbouring slot instead of failing an oracle. Their
# checkIncremental/checkRoutes runs drive those tables through
# thousands of place/unplace states, and the regexes also match the
# *_nocache ctest names.
cmake -B build-asan -S . -DDSA_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$JOBS" --target test_robustness \
      test_sim_sparse test_sim_compiled test_sim_jit \
      test_scheduler_incremental test_scheduler_parallel
ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan --output-on-failure \
          -R 'test_robustness|test_sim_sparse|test_sim_compiled|test_sim_jit|test_scheduler_incremental|test_scheduler_parallel'

echo
echo "tier-1 OK"
