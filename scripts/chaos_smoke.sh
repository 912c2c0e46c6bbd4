#!/bin/sh
# chaos_smoke.sh — short seeded chaos campaign against a real idemd.
#
# Boots idemd, then runs idemload with the internal/chaos fault proxy
# interposed (injected latency, 500s, connection resets, truncated
# bodies) and retries enabled. Because every /v1/* response is an
# idempotent function of its request, re-execution must fully absorb
# the faults: idemload exits nonzero on any permanently failed request
# or any digest mismatch between the campaign's two passes (each pass
# meets different faults), and this script additionally asserts that
# faults were actually injected (a campaign that injected nothing proves
# nothing). The daemon is then drained with SIGTERM and must exit 0.
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

"$tmp/idemd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -quiet &
pid=$!
i=0
while [ ! -f "$tmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "chaos-smoke: idemd did not start" >&2; exit 1; }
    sleep 0.1
done

echo "chaos-smoke: seeded fault campaign (retries absorb injected faults)"
"$tmp/idemload" -addr "$(cat "$tmp/addr")" \
    -concurrency 16 -requests 150 -seed 5 -repeat 2 \
    -chaos-seed 7 -chaos-rates "10,6,6,6" -retries 8 \
    -json "$tmp/chaos.json"

grep -q '"failures": 0' "$tmp/chaos.json" || {
    echo "chaos-smoke: summary reports permanent failures" >&2
    cat "$tmp/chaos.json" >&2
    exit 1
}
if grep -q '"resets": 0,' "$tmp/chaos.json" &&
    grep -q '"errors_500": 0,' "$tmp/chaos.json" &&
    grep -q '"truncates": 0' "$tmp/chaos.json"; then
    echo "chaos-smoke: proxy injected no faults; campaign was vacuous" >&2
    cat "$tmp/chaos.json" >&2
    exit 1
fi

kill -TERM "$pid"
wait "$pid" || { echo "chaos-smoke: idemd exited nonzero on drain" >&2; exit 1; }
pid=""

echo "chaos-smoke: OK"
