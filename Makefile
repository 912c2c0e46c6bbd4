# Standard entry points. `make ci` is the full gate: build, format/vet
# checks, and the test suite under the race detector (the campaign
# engine and the experiment engine are the concurrent components — see
# docs/faultengine.md and docs/experiments.md).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt-check vet check lint test race race-fault flake bench bench-sim bench-verify bench-serve bench-shard bench-quick serve-smoke chaos-smoke persist-smoke shard-smoke jobs-smoke verify-smoke ci

all: build

build:
	$(GO) build ./...

# fmt-check fails (listing the files) if anything is not gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs go vet plus cmd/idemlint, the repo's own order-sensitivity
# checker: analysis passes that range over maps while appending to
# shared output (or building strings) produce run-to-run diffs that
# break the deterministic-digest contract. Findings are suppressed by a
# later sort or an explicit //idemlint:ordered annotation.
lint: vet
	$(GO) run ./cmd/idemlint

check: fmt-check lint

test: check
	$(GO) test ./...
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) persist-smoke
	$(MAKE) shard-smoke
	$(MAKE) jobs-smoke
	$(MAKE) verify-smoke

# serve-smoke is the end-to-end service gate: boot idemd on a free port,
# fire a seeded idemload burst twice (same seed must yield byte-identical
# response digests, with a warm compile cache), then again under a tiny
# -cache-bytes bound (evictions must happen), draining with SIGTERM both
# times. See scripts/serve_smoke.sh and docs/service.md.
serve-smoke: build
	./scripts/serve_smoke.sh

# chaos-smoke is the end-to-end resilience gate: the same seeded load,
# but routed through the internal/chaos fault proxy (latency, 500s,
# connection resets, truncated bodies) with retries enabled. Idempotent
# re-execution must absorb every injected fault: zero permanently failed
# requests, and both passes of the campaign must produce one digest. See
# scripts/chaos_smoke.sh and docs/resilience.md.
chaos-smoke: build
	./scripts/chaos_smoke.sh

# persist-smoke is the end-to-end persistence gate: populate the
# -cache-dir artifact store under seeded load, SIGTERM, restart over the
# same store and replay — the daemon must compile nothing, serve every
# build from disk, and produce a byte-identical digest; then corrupt an
# artifact and prove the store self-heals. See scripts/persist_smoke.sh
# and docs/persistence.md.
persist-smoke: build
	./scripts/persist_smoke.sh

# shard-smoke is the end-to-end sharding gate: seeded baselines against
# one idemd, then the same campaigns through idemfront over a 3-replica
# fleet. The fleet must reproduce the baseline digests byte-for-byte,
# match the baseline's cache hit ratio on the summed replica counters,
# show hits on every replica (the ring partitioned the working set), and
# absorb a SIGKILLed replica mid-campaign with zero failures. See
# scripts/shard_smoke.sh and docs/sharding.md.
shard-smoke: build
	./scripts/shard_smoke.sh

# verify-smoke is the end-to-end translation-validation gate: boot a
# plain `idemd` (verification is always on), compile every built-in
# workload through /v1/compile (each response must report
# verified=true), drive the seeded mixed load, and assert via scraped
# metrics that checks ran and zero violations were found. See scripts/verify_smoke.sh and
# docs/verify.md.
verify-smoke: build
	./scripts/verify_smoke.sh

# jobs-smoke is the end-to-end async-job gate: run a job to completion
# and assert its reconstructed stream is byte-identical to /v1/batch,
# then SIGKILL the daemon mid-job and prove the journal resumes it on
# restart — same digest, zero recompiles, at least one unit served from
# the journal instead of re-executed. See scripts/jobs_smoke.sh and
# docs/jobs.md.
jobs-smoke: build
	./scripts/jobs_smoke.sh

# The race detector multiplies runtime; race-fault covers the concurrent
# components quickly (campaign engine, simulator, compile cache,
# experiment engine, idemd service core, metrics core, request skeleton,
# resilience/chaos layers and the cmd-level signal paths), race runs the
# whole tree.
race-fault:
	$(GO) test -race ./internal/fault/... ./internal/machine/... \
		./internal/buildcache/... ./internal/experiments/... \
		./internal/server/... ./internal/resilience/... \
		./internal/chaos/... ./internal/shard/... ./internal/jobs/... \
		./internal/metrics/... ./internal/httpd/... \
		./cmd/idemd/... ./cmd/idemfront/... ./cmd/idemload/...

race:
	$(GO) test -race ./...

# flake reruns the concurrent packages five times in shuffled order, so
# a test that needs scheduling luck or another test's leftovers fails in
# the change that introduces it. The internal packages' TestMains also
# fail on goroutines their tests leave running (internal/leakcheck).
flake:
	$(GO) test -count=5 -shuffle=on ./internal/buildcache/... \
		./internal/jobs/... ./internal/server/... ./internal/shard/... \
		./internal/resilience/... ./internal/metrics/... ./internal/httpd/... \
		./cmd/idemd/... ./cmd/idemfront/... ./cmd/idemload/...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-sim measures the raw simulator engine (the hot loop every figure
# driver funnels through) and writes the headline numbers to
# BENCH_sim.json: ns per simulated instruction, instructions per second,
# heap allocations per step (contract: ~0), and the warm end-to-end cost
# of the most simulation-heavy figure (Fig. 8).
BENCH_SIM_COUNT ?= 2
bench-sim: build
	@$(GO) test -run '^$$' -bench 'BenchmarkMachineStep$$|BenchmarkFig8PathCDF$$' \
		-benchtime $(BENCH_SIM_COUNT)x -benchmem . | tee BENCH_sim.txt
	@awk ' \
		/^BenchmarkMachineStep/ { for (i=1; i<=NF; i++) { \
			if ($$i == "ns/step") ns = $$(i-1); \
			if ($$i == "Minstr/sec") mi = $$(i-1); \
			if ($$i == "allocs/step") as = $$(i-1); } } \
		/^BenchmarkFig8PathCDF/ { for (i=1; i<=NF; i++) \
			if ($$i == "ns/op") fig8 = $$(i-1); } \
		END { printf "{\n  \"machine_step\": {\"ns_per_step\": %s, \"instrs_per_sec\": %.0f, \"allocs_per_step\": %s},\n  \"fig8_path_cdf\": {\"ns_per_op\": %s}\n}\n", ns, mi * 1e6, as, fig8 }' \
		BENCH_sim.txt > BENCH_sim.json
	@rm -f BENCH_sim.txt
	@echo "wrote BENCH_sim.json:"; cat BENCH_sim.json

# bench-verify measures the translation validator against the compiler
# it checks, over the same 279 builds (31 workloads x the 9 ModuleOptions
# variants of internal/verify's matrix), and writes ns/op, B/op and
# allocs/op of each to BENCH_verify.json. It fails when verifying costs
# more than compiling: every build the service hands out is verified, so
# the validator must stay within the compile's budget.
bench-verify: build
	@$(GO) test -run '^$$' -bench 'BenchmarkCompile$$|BenchmarkVerify$$' \
		-benchtime 3x -benchmem . | tee BENCH_verify.txt
	@awk ' \
		/^Benchmark(Compile|Verify)/ { name = ($$1 ~ /^BenchmarkCompile/) ? "compile" : "verify"; \
			for (i=1; i<=NF; i++) { \
				if ($$i == "ns/op") ns[name] = $$(i-1); \
				if ($$i == "B/op") by[name] = $$(i-1); \
				if ($$i == "allocs/op") al[name] = $$(i-1); } } \
		END { if (!("compile" in ns) || !("verify" in ns)) { print "bench-verify: missing benchmark output" > "/dev/stderr"; exit 1 } \
			printf "{\n  \"compile\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", ns["compile"], by["compile"], al["compile"]; \
			printf "  \"verify\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", ns["verify"], by["verify"], al["verify"]; \
			printf "  \"verify_over_compile\": %.3f\n}\n", ns["verify"] / ns["compile"] }' \
		BENCH_verify.txt > BENCH_verify.json
	@rm -f BENCH_verify.txt
	@echo "wrote BENCH_verify.json:"; cat BENCH_verify.json
	@awk '/"verify_over_compile"/ { if ($$2 + 0 > 1) { print "bench-verify: verify costs more than compile" > "/dev/stderr"; exit 1 } }' BENCH_verify.json

# bench-serve measures the idemd service under the acceptance workload
# (2000 mixed requests at concurrency 32, run twice with one seed) and
# writes req/s and latency percentiles to BENCH_serve.json. The run
# doubles as a correctness gate: any non-200 response or cross-pass
# digest mismatch fails it.
BENCH_SERVE_REQUESTS ?= 2000
BENCH_SERVE_CONCURRENCY ?= 32
bench-serve: build
	BENCH_SERVE_REQUESTS=$(BENCH_SERVE_REQUESTS) \
	BENCH_SERVE_CONCURRENCY=$(BENCH_SERVE_CONCURRENCY) \
		./scripts/bench_serve.sh

# bench-shard runs the same acceptance workload through idemfront over a
# BENCH_SHARD_REPLICAS-wide idemd fleet (default 3) and writes
# BENCH_shard.json; compare against BENCH_serve.json at equal request
# count and concurrency to measure what sharding buys (req/s, and the
# per-replica hit ratios proving the working set partitioned).
BENCH_SHARD_REPLICAS ?= 3
bench-shard: build
	BENCH_SERVE_REQUESTS=$(BENCH_SERVE_REQUESTS) \
	BENCH_SERVE_CONCURRENCY=$(BENCH_SERVE_CONCURRENCY) \
	FRONT=1 REPLICAS=$(BENCH_SHARD_REPLICAS) \
		./scripts/bench_serve.sh

# bench-quick is the fast smoke slice of the evaluation: the simulator
# engine microbenchmarks, the verify-vs-compile gate, a representative
# figure pair over one suite on a parallel engine (with the stage
# breakdown printed), and a reduced service benchmark.
bench-quick: bench-sim bench-verify
	$(GO) run ./cmd/idembench -table2 -fig10 -suite PARSEC -workers 8 -timing
	$(MAKE) bench-serve BENCH_SERVE_REQUESTS=400

ci: build check flake race
