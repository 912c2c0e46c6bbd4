#!/bin/sh
# persist_smoke.sh — end-to-end smoke test of the persistent artifact
# store (docs/persistence.md).
#
# Phase 1 boots idemd with -cache-dir, drives a seeded idemload pass
# (populating the store via write-behind), and drains with SIGTERM
# (which flushes in-flight artifact writes). Phase 2 restarts idemd over
# the same directory and replays the identical seeded pass: idemload
# asserts the daemon compiled nothing (-max-compiles 0), served every
# build from disk (-min-disk-hit-ratio 1) and re-proved what it loaded
# with the translation validator (-min-verified 1: with no compiles,
# every check ran on a decoded artifact, and none may fail), and the
# response digests of the two runs must be byte-identical. Phase 3 corrupts one artifact
# (truncation) and restarts: the damaged file must be counted in
# idemd_buildcache_disk_corrupt_total, transparently recompiled, and the
# digest must still match.
set -eu

GO="${GO:-go}"
tmp="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$tmp/idemd" ./cmd/idemd
"$GO" build -o "$tmp/idemload" ./cmd/idemload

store="$tmp/artifacts"

start_idemd() { # args: extra idemd flags
    rm -f "$tmp/addr"
    "$tmp/idemd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -quiet -cache-dir "$store" "$@" &
    pid=$!
    i=0
    while [ ! -f "$tmp/addr" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "persist-smoke: idemd did not start" >&2; exit 1; }
        sleep 0.1
    done
}

stop_idemd() {
    kill -TERM "$pid"
    wait "$pid" || { echo "persist-smoke: idemd exited nonzero on drain" >&2; exit 1; }
    pid=""
}

digest_of() { # args: json summary file
    sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' "$1"
}

load() { # args: json output file, extra idemload flags
    out="$1"; shift
    "$tmp/idemload" -addr "$(cat "$tmp/addr")" \
        -concurrency 16 -requests 150 -seed 42 -quiet -json "$out" "$@"
}

echo "persist-smoke: phase 1 — populate the artifact store"
start_idemd
load "$tmp/pass1.json"
stop_idemd

arts="$(find "$store" -name '*.art' | wc -l)"
[ "$arts" -gt 0 ] || { echo "persist-smoke: no artifacts persisted" >&2; exit 1; }
echo "persist-smoke: $arts artifacts persisted"

echo "persist-smoke: phase 2 — warm restart: zero compiles, all from disk, all re-proved"
start_idemd
load "$tmp/pass2.json" -min-disk-hit-ratio 1 -max-compiles 0 -min-verified 1
stop_idemd

d1="$(digest_of "$tmp/pass1.json")"
d2="$(digest_of "$tmp/pass2.json")"
[ -n "$d1" ] || { echo "persist-smoke: pass 1 produced no digest" >&2; exit 1; }
[ "$d1" = "$d2" ] || {
    echo "persist-smoke: digest mismatch across restart: $d1 != $d2" >&2; exit 1; }

echo "persist-smoke: phase 3 — corrupt artifact self-heals"
victim="$(find "$store" -name '*.art' | head -n 1)"
size="$(wc -c < "$victim")"
dd if="$victim" of="$victim.tmp" bs=1 count="$((size / 2))" 2>/dev/null
mv "$victim.tmp" "$victim"
start_idemd
# The boot scan prunes the damaged file (counting it corrupt), so the
# replayed pass recompiles exactly that key and still matches the
# original digest. -max-compiles bounds the damage to the one artifact.
load "$tmp/pass3.json" -max-compiles 2
corrupt="$(sed -n 's/.*"corrupt": \([0-9]*\).*/\1/p' "$tmp/pass3.json")"
stop_idemd
d3="$(digest_of "$tmp/pass3.json")"
[ "$d1" = "$d3" ] || {
    echo "persist-smoke: digest mismatch after corruption recovery: $d1 != $d3" >&2; exit 1; }
[ -n "$corrupt" ] && [ "$corrupt" -ge 1 ] || {
    echo "persist-smoke: corrupt artifact not counted (got '${corrupt:-}')" >&2; exit 1; }

echo "persist-smoke: OK"
