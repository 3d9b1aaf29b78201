#!/usr/bin/env bash
# dsagen exits 2 on configuration mistakes the user can fix on the
# command line, and 1 only on runtime faults (see exitCodeFor in
# tools/dsagen.cc). Each case below must fail while parsing arguments,
# before any work starts.
#
# Usage: cli_exit_codes.sh <path to dsagen>
set -u
dsagen="$1"
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

exit "$fail"
