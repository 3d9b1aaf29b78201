#!/usr/bin/env bash
# dsagen exits 2 on configuration mistakes the user can fix on the
# command line, and 1 only on runtime faults (see exitCodeFor in
# tools/dsagen.cc). The configuration cases must fail while parsing
# arguments or resolving names, before any work starts. The write cases
# do the work, fail to save its output, and must say so instead of
# claiming the file was written.
#
# Usage: cli_exit_codes.sh <path to dsagen>
set -u
dsagen="$(realpath "$1")"
fail=0

expect_config_error() {
    local out rc
    out="$("$dsagen" "$@" 2>&1 >/dev/null)"
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: dsagen $* exited $rc, expected 2" >&2
        fail=1
    elif [ -z "$out" ]; then
        echo "FAIL: dsagen $* printed no error" >&2
        fail=1
    else
        echo "ok: dsagen $* -> 2: $out"
    fi
}

expect_config_error dse PolyBench --no-such-flag
# The per-layer memo switches were folded into --no-caches.
for layer in eval-cache compile-cache cost-memo; do
    expect_config_error dse PolyBench "--no-$layer"
done
expect_config_error dse PolyBench --threads
expect_config_error dse PolyBench --threads abc
expect_config_error dse PolyBench --power-weight heavy
expect_config_error run mm softbrain --sim-engine bogus
expect_config_error run mm no-such-target
expect_config_error hwgen no-such-target

expect_write_error() {
    local out err rc
    out="$("$dsagen" "$@" 2>&1)"
    rc=$?
    err="$(printf '%s\n' "$out" | grep '^dsagen:')"
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: dsagen $* exited $rc, expected 1" >&2
        fail=1
    elif printf '%s\n' "$out" | grep -q -e "written to" -e "saved to"; then
        echo "FAIL: dsagen $* reported a write that failed" >&2
        fail=1
    elif [ -z "$err" ]; then
        echo "FAIL: dsagen $* printed no error" >&2
        fail=1
    else
        echo "ok: dsagen $* -> 1: $err"
    fi
}

expect_write_error hwgen softbrain /nonexistent-dir/out.v
# A directory squatting on the temp name makes the design write fail.
scratch="$(mktemp -d)"
mkdir "$scratch/dsagen_PolyBench.adg.tmp"
cd "$scratch" || exit 1
expect_write_error dse PolyBench 1 1
cd - >/dev/null || exit 1
rm -rf "$scratch"

exit "$fail"
