#!/bin/sh
# verify_smoke.sh — end-to-end smoke test of the translation validator
# in the serving path (docs/verify.md).
#
# Boot a plain idemd (no flag: verification is always on, and this
# smoke pins that default), sweep a compile of every built-in workload
# (idemload -sweep-compiles asserts each response reports
# verified=true), then fire a seeded mixed burst so the option variants
# in the load palette get validated too. idemload's -min-verified gate
# then asserts, from the daemon's own /metrics, that the validator
# actually ran (nonzero idemd_verify_checked_total) and that not one
# check found a violation — the §2.1 criterion holds for everything the
# service compiled.
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

rm -f "$tmp/addr"
"$tmp/idemd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -quiet &
pid=$!
i=0
while [ ! -f "$tmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "verify-smoke: idemd did not start" >&2; exit 1; }
    sleep 0.1
done

echo "verify-smoke: default verification over every workload + seeded burst"
"$tmp/idemload" -addr "$(cat "$tmp/addr")" \
    -sweep-compiles -concurrency 16 -requests 150 -seed 11 \
    -min-verified 29

kill -TERM "$pid"
wait "$pid" || { echo "verify-smoke: idemd exited nonzero on drain" >&2; exit 1; }
pid=""

echo "verify-smoke: OK"
