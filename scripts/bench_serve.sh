#!/bin/sh
# bench_serve.sh — the service benchmark behind `make bench-serve` and
# (with FRONT=1) `make bench-shard`.
#
# Default mode drives the acceptance workload — BENCH_SERVE_REQUESTS
# requests (default 2000) at concurrency 32, run twice with the same
# seed, with resilience retries enabled — against one idemd, which
# verifies every build it serves. idemload fails the run on any
# permanently failed request or on a digest mismatch between the
# passes, and writes the headline numbers (req/s, p50/p90/p99, cache hit
# ratio, retry/preemption counters) to BENCH_serve.json, together with
# the validator cost ledger (verify_ns section: total nanoseconds inside
# internal/verify plus the per-check average). The validator's cost is
# gated directly by `make bench-verify` (verify <= compile).
#
# FRONT=1 boots REPLICAS idemd processes (default 3) behind idemfront
# and drives the same workload through the front tier, scraping every
# replica so the summary carries the aggregate AND per-replica cache hit
# ratios; results land in BENCH_shard.json. Comparing the two files at
# equal request count and concurrency measures what sharding buys:
# compute spreads across processes and the working set partitions across
# per-replica caches.
set -eu

GO="${GO:-go}"
REQUESTS="${BENCH_SERVE_REQUESTS:-2000}"
CONCURRENCY="${BENCH_SERVE_CONCURRENCY:-32}"
FRONT="${FRONT:-0}"
REPLICAS="${REPLICAS:-3}"
tmp="$(mktemp -d)"
PIDS=""
cleanup() {
    for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$tmp/idemd" ./cmd/idemd
"$GO" build -o "$tmp/idemload" ./cmd/idemload

wait_addr() { # $1 = addr file
    i=0
    while [ ! -f "$1" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "bench-serve: daemon did not write $1" >&2; exit 1; }
        sleep 0.1
    done
}

run_load() { # $1 = summary json path
    "$tmp/idemload" -addr "$(cat "$tmp/addr")" -scrape "$scrape" \
        -concurrency "$CONCURRENCY" -requests "$REQUESTS" -seed 1 -repeat 2 \
        -retries 2 \
        -json "$1"
}

# Drain every process (front first, so no request is mid-flight when the
# replicas go); each must exit 0.
drain() {
    drained=""
    for p in $PIDS; do drained="$p $drained"; done
    for p in $drained; do
        kill -TERM "$p"
        wait "$p" || { echo "$name: pid $p exited nonzero on drain" >&2; exit 1; }
    done
    PIDS=""
}

if [ "$FRONT" = "1" ]; then
    "$GO" build -o "$tmp/idemfront" ./cmd/idemfront
    name="bench-shard"
    out="BENCH_shard.json"
    reps=""
    n=1
    while [ "$n" -le "$REPLICAS" ]; do
        "$tmp/idemd" -addr 127.0.0.1:0 -addr-file "$tmp/raddr$n" -quiet &
        PIDS="$PIDS $!"
        wait_addr "$tmp/raddr$n"
        reps="$reps$(cat "$tmp/raddr$n"),"
        n=$((n + 1))
    done
    reps="${reps%,}"
    "$tmp/idemfront" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -backends "$reps" -quiet &
    PIDS="$PIDS $!"
    wait_addr "$tmp/addr"
    scrape="$reps"
else
    name="bench-serve"
    out="BENCH_serve.json"
    "$tmp/idemd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -quiet &
    PIDS="$PIDS $!"
    wait_addr "$tmp/addr"
    scrape="$(cat "$tmp/addr")"
fi
run_load "$out"
drain

echo "wrote $out:"
cat "$out"
