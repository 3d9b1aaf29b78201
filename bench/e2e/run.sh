#!/usr/bin/env bash
# End-to-end benchmark of the DSAGEN flow (see README.md beside this file).
#
#   bash bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash bench/e2e/run.sh --smoke
#
# Builds build-bench/ (Release) from this checkout's sources, then runs one
# workload. The last line of standard output is the JSON result; everything
# else (build output, progress, metadata) goes to standard error. Traced runs
# write <workload>.trace.json (Chrome trace events) and <workload>.layers.json
# under build-bench/out/.
#
# The run is hermetic: no DSA_* variable of the caller reaches it, and the
# JIT object cache, the eval-cache stores and compiler temporaries live in
# one private directory under build-bench/ that is deleted on exit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

for v in $(compgen -e); do
    case "$v" in DSA_*) unset "$v" ;; esac
done

if [ ! -f "$root/src/CMakeLists.txt" ]; then
    echo "run.sh: no library sources under $root/src" >&2
    exit 2
fi
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target e2e_bench -j "$(nproc)" >&2

commit=unknown
if [ -e "$root/.git" ]; then
    commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

tmp="$(mktemp -d "$build/tmp.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
export TMPDIR="$tmp"
export DSA_SIM_JIT_DIR="$tmp/jit"
export E2E_COMMIT="$commit"

status=0
"$build/e2e_bench" --tmp "$tmp" --out "$build/out" \
    --benchmark-json "$root/BENCHMARK.json" "$@" || status=$?
exit "$status"
