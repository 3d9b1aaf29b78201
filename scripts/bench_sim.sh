#!/usr/bin/env bash
# Run the cycle-level-simulator micro-benchmarks and store
# machine-readable results in BENCH_simulator.json (google-benchmark
# JSON format).
#
# The binary benchmarks every fixture on all four engines — `*_jit`
# (the default: period replay run as compiled native kernels, whose
# compile an untimed prewarm run pays), `*_compiled` (event-driven +
# per-region compute plans + interpreted period replay), `*_sparse`
# (event-driven with the interpreted region tick) and `*_dense` (the
# original cycle-by-cycle oracle loop) — so the JSON carries its own
# tier-by-tier comparison, like BENCH_scheduler.json does for the
# scheduler. The `cmdheavy_*` and `fallback_*` fixtures are the
# quiet-spell-heavy configurations where idle-cycle skipping pays off
# most.
#
# Recorded numbers come from a Release build (build-release/): a
# committed BENCH file is meaningless if the library was compiled
# without optimization. The script refuses to record from any other
# build type unless BENCH_ALLOW_NONRELEASE=1 is set, in which case the
# output file is tagged with the build type instead of silently
# replacing the Release record.
#
# Usage: scripts/bench_sim.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"
OUT="${BENCH_SIM_OUT:-BENCH_simulator.json}"
BUILD="${BENCH_BUILD_DIR:-build-release}"

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
BT="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")"
if [ "$BT" != "Release" ]; then
    if [ "${BENCH_ALLOW_NONRELEASE:-0}" = "1" ]; then
        OUT="${OUT%.json}.${BT:-unknown}.json"
        echo "WARNING: '$BUILD' is a '${BT:-unset}' build;" \
             "tagging output as $OUT" >&2
    else
        echo "refusing to record benchmarks from a '${BT:-unset}'" \
             "build in '$BUILD' (set BENCH_ALLOW_NONRELEASE=1 to" \
             "record anyway, tagged)" >&2
        exit 1
    fi
fi
cmake --build "$BUILD" -j "$JOBS" --target micro_simulator

# Single-core boxes are noisy: repeat each benchmark and record only
# the aggregate rows (mean/median/stddev/cv); readers should use the
# *_median rows. `library_build_type` is reported by the vendored
# timing harness (bench/minibench) from its own NDEBUG — it describes
# the code that ran the measurement loop; the repo's CMake build type
# is recorded alongside it as `dsa_build_type`.
"./$BUILD/bench/micro_simulator" \
    --benchmark_repetitions="${BENCH_REPS:-5}" \
    --benchmark_report_aggregates_only=true \
    --benchmark_context=dsa_build_type="$BT" \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json

# A debug timing harness produces meaningless numbers: refuse to keep
# the recording (unless explicitly tagged as non-release above).
if grep -q '"library_build_type": "debug"' "$OUT" &&
   [ "${BENCH_ALLOW_NONRELEASE:-0}" != "1" ]; then
    rm -f "$OUT"
    echo "refusing to record: benchmark harness was built debug" \
         "(library_build_type=debug); rebuild Release or set" \
         "BENCH_ALLOW_NONRELEASE=1" >&2
    exit 1
fi

echo "wrote $OUT"
