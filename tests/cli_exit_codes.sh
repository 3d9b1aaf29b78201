#!/usr/bin/env bash
# dsagen exits 2 on configuration mistakes the user can fix on the
# command line, and 1 only on runtime faults (see exitCodeFor in
# tools/dsagen.cc). The configuration cases must fail while parsing
# arguments, resolving names or reading input files, before any work
# starts. The runtime cases hit a fault (an output that cannot be
# saved, a corrupt checkpoint) and must say so instead of claiming a
# file was written.
#
# Usage: cli_exit_codes.sh <path to dsagen>
set -u
dsagen="$(realpath "$1")"
fail=0
scratch="$(mktemp -d)"
cd "$scratch" || exit 1

expect_config_error() {
    local out rc
    out="$("$dsagen" "$@" 2>&1 >/dev/null)"
    rc=$?
    last_err="$out"
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
# A run without caches never loads or appends a store.
expect_config_error dse PolyBench --no-caches --cache-store store.d
expect_config_error dse PolyBench --cache-store store.d --no-caches
if [ -e store.d ]; then
    echo "FAIL: a refused --no-caches --cache-store run created its store" >&2
    fail=1
fi
expect_config_error dse PolyBench --threads
expect_config_error dse PolyBench --threads abc
expect_config_error dse PolyBench --power-weight heavy
expect_config_error run mm softbrain --sim-engine bogus
expect_config_error run mm no-such-target
expect_config_error run no-such-kernel softbrain
expect_config_error hwgen no-such-target

# Positional numbers are checked, not guessed: unroll >= 1, iters >= 1,
# threads >= 0, batch >= 1.
expect_config_error compile mm softbrain x
expect_config_error run mm softbrain -3
expect_config_error dse MachSuite abc
expect_config_error dse PolyBench 0
expect_config_error dse PolyBench 1 -1
expect_config_error dse PolyBench 1 1 0
expect_config_error dse PolyBench 1 1 1 9

# Malformed ADG text is refused, never crashed on.
printf 'adg v1\nnode -5 pe\n' > negative-id.adg
expect_config_error show-adg negative-id.adg
printf 'adg v1\nnode 0 pe bogus\n' > bad-token.adg
expect_config_error show-adg bad-token.adg

# --resume: settings that never change results apply, search-shaping
# flags and positionals are refused. The wall budget stops the run
# right after its first step, leaving a checkpoint mid-run.
if ! "$dsagen" dse PolyBench 6 1 1 --checkpoint ck.ckpt \
        --wall-budget-ms 1 >/dev/null 2>&1; then
    echo "FAIL: could not write a checkpoint to resume" >&2
    fail=1
fi
cp ck.ckpt ck.orig
expect_config_error dse --resume ck.ckpt PolyBench
expect_config_error dse --resume ck.ckpt --no-caches --cache-store store.d
for flag in --pareto "--front-size 4" "--power-weight 1" --no-structured \
            "--sched-chains 2" "--candidate-time-ms 5"; do
    # shellcheck disable=SC2086 # a flag and its value are two words
    expect_config_error dse --resume ck.ckpt $flag
done
out="$("$dsagen" dse --resume ck.ckpt --wall-budget-ms 0 \
           --checkpoint other.ckpt 2>&1)"
rc=$?
if [ "$rc" -ne 0 ] || ! printf '%s\n' "$out" | grep -q "stopped: max-iters" ||
        [ ! -f other.ckpt ] || ! cmp -s ck.ckpt ck.orig; then
    echo "FAIL: resume ignored --wall-budget-ms/--checkpoint (exit $rc)" >&2
    fail=1
else
    echo "ok: dsagen dse --resume ck.ckpt --wall-budget-ms 0" \
         "--checkpoint other.ckpt"
fi
# Checkpoints of other formats and unknown workloads are refused. Older
# builds wrote JSON, version 3 the last of it. A binary file is "DSCK",
# the version byte, then the record; the record starts with the
# workload count and the first name's length and text. The byte edits
# below keep every length in the record valid.
printf '{"format":"dsagen-dse-checkpoint","version":3,"workloads":["mm"],%s\n' \
    '"options":{},"state":{}}' > version-3.json
expect_config_error dse --resume version-3.json
{ printf 'DSCK\005'; tail -c +6 ck.orig; } > version-5.ckpt
expect_config_error dse --resume version-5.ckpt
LC_ALL=C sed '1s/^\(.\{7\}\)./\1~/' ck.orig > unknown-workload.ckpt
expect_config_error dse --resume unknown-workload.ckpt
# The name suggestion follows the quoted name directly: no double
# space, no " ;".
want="dsagen: not-found: checkpoint 'unknown-workload.ckpt': unknown"
want+=" workload '~-mm'; did you mean 'p-mm'? (valid: md, crs, ellpack,"
want+=" mm, stencil-2d, stencil-3d, histogram, join, qr, chol, fft, fir,"
want+=" solver, p-mm, 2mm, 3mm, conv, pool, classifier, sparse-cnn,"
want+=" prodcons, repupdate)"
if [ "$last_err" != "$want" ]; then
    echo "FAIL: unknown-workload message is '$last_err'" >&2
    fail=1
fi

expect_runtime_error() {
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

# A checkpoint whose design text is mangled is corrupt state.
LC_ALL=C sed '0,/node 0 /s//node X /' ck.orig > bad-design.ckpt
expect_runtime_error dse --resume bad-design.ckpt
expect_runtime_error hwgen softbrain /nonexistent-dir/out.v
# A directory squatting on the temp name makes the design write fail.
rm -f dsagen_PolyBench.adg
mkdir dsagen_PolyBench.adg.tmp
expect_runtime_error dse PolyBench 1 1
cd / || exit 1
rm -rf "$scratch"

exit "$fail"
