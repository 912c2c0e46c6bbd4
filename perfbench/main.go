// Command perfbench is the repository's benchmark. It boots the idemd
// service core in-process on loopback (server.New + Serve, full
// translation validation, two workers), drives one named workload from a
// seed with a closed loop of two clients, checks every response against
// an oracle, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 a
// traced run replays the same request sequence: spans around the
// client's round trips and the service handler, and a layer replay that
// calls each layer's public functions with a span around each call,
// give the per-layer metrics. Spans are written to
// .bench_build/run/spans-<workload>-<seed>.jsonl.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from the checkout's sources; see perfbench/README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"idemproc/internal/buildcache"
)

// workloadDef configures one named workload.
type workloadDef struct {
	name string
	// cacheBytes bounds the service's compile cache; cacheDir gives it a
	// fresh artifact store per set-up.
	cacheBytes int64
	cacheDir   bool
	source     func(seed uint64, golden map[string]goldenCell) source
	warmup     func(seed uint64, golden map[string]goldenCell) []unit
	// replayOps is how many ops of the sequence the layer replay covers.
	replayOps int
	// targets are the layer spans the workload was chosen to stress; their
	// share of the handler's time in the layer replay is reported as
	// layers.target_share_pct.
	// For mixed-churn the targets (cache, codec, server) have no spans of
	// their own, so the share is what the pipeline layers leave.
	targets    []string
	complement bool
}

var pipelineLayers = []string{"lang.compile", "codegen.compile_module", "verify.verify",
	"fault.apply", "machine.predecode", "machine.run"}

var workloadDefs = []*workloadDef{
	{
		name:       "compile-cold",
		cacheBytes: 32 << 20,
		source:     func(seed uint64, _ map[string]goldenCell) source { return newCompileCold(seed) },
		warmup:     compileColdWarmup,
		replayOps:  150,
		targets:    []string{"lang.compile", "codegen.compile_module", "verify.verify"},
	},
	{
		name:       "simulate-warm",
		cacheBytes: 64 << 20,
		source: func(seed uint64, g map[string]goldenCell) source {
			return newSimulateWarm(seed, g)
		},
		warmup:    simulateWarmWarmup,
		replayOps: 100,
		targets:   []string{"fault.apply", "machine.predecode", "machine.run"},
	},
	{
		name:       "mixed-churn",
		cacheBytes: 10 << 20,
		cacheDir:   true,
		source: func(seed uint64, g map[string]goldenCell) source {
			return newMixedChurn(seed, g)
		},
		warmup:     mixedChurnWarmup,
		replayOps:  200,
		targets:    pipelineLayers,
		complement: true,
	},
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median.
const setupRuns = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "", "workload: compile-cold, simulate-warm or mixed-churn")
		seed     = flag.Uint64("seed", 1, "seed of the request sequence")
		seconds  = flag.Int("seconds", 25, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		writeExp = flag.Bool("write-expected", false, "regenerate "+expectedFile+" and exit")
		phase    = flag.String("phase", "", "untraced or traced: run one timed phase and print its summary (used by -trace 1)")
	)
	flag.Parse()
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "internal", "server")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if *writeExp {
		return writeExpected(root)
	}
	var wl *workloadDef
	for _, d := range workloadDefs {
		if d.name == *name {
			wl = d
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	or, err := loadOracle(root)
	if err != nil {
		return err
	}
	scratch, err := scratchDir(root)
	if err != nil {
		return err
	}
	b := &bench{wl: wl, seed: *seed, dur: time.Duration(*seconds) * time.Second, or: or, scratch: scratch}
	if *phase != "" {
		return b.phaseChild(*phase == "traced")
	}
	var res *result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type bench struct {
	wl      *workloadDef
	seed    uint64
	dur     time.Duration
	or      *oracle
	scratch string
}

// setUp boots a server and warms it up, returning the elapsed time.
func (b *bench) setUp(ctx context.Context, tr *tracer) (*service, time.Duration, error) {
	t0 := time.Now()
	s, err := boot(b.wl, b.scratch, tr, clients)
	if err != nil {
		return nil, 0, err
	}
	if err := s.warmup(ctx, b.or, b.wl.warmup(b.seed, b.or.golden)); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// tearDown releases the set-up builds' process-wide predecode memos and
// drains the server.
func (b *bench) tearDown(s *service) {
	release(s.srv.Cache(), b.wl.warmup(b.seed, b.or.golden))
	s.close()
}

// phase sets up once and runs one timed closed loop.
func (b *bench) phase(ctx context.Context, tr *tracer) (loopResult, error) {
	s, _, err := b.setUp(ctx, tr)
	if err != nil {
		return loopResult{}, err
	}
	defer b.tearDown(s)
	seq := &sequence{src: b.wl.source(b.seed, b.or.golden)}
	return s.timed(ctx, tr, b.or, seq, b.dur), nil
}

func (b *bench) untraced() (*result, error) {
	ctx := context.Background()
	var setups []float64
	var s *service
	for i := 0; i < setupRuns; i++ {
		si, d, err := b.setUp(ctx, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			b.tearDown(si)
		} else {
			s = si
		}
	}
	seq := &sequence{src: b.wl.source(b.seed, b.or.golden)}
	lr := s.timed(ctx, nil, b.or, seq, b.dur)
	rss, err := peakRSSMB()
	b.tearDown(s)
	if err != nil {
		return nil, err
	}
	b.report(&lr)
	n := float64(lr.completed)
	return &result{
		Correct: lr.failed == 0, Attempted: lr.completed, Failed: lr.failed,
		Metrics: map[string]metric{
			"req_per_s":      {n / lr.wall.Seconds(), "1/s"},
			"latency_p50_ms": {quantile(lr.latencies, 0.50), "ms"},
			"latency_p95_ms": {quantile(lr.latencies, 0.95), "ms"},
			"cpu_ms_per_req": {lr.cpu.Seconds() * 1e3 / n, "ms"},
			"heap_live_mb":   {lr.heap, "MiB"},
			"peak_rss_mb":    {rss, "MiB"},
			"setup_s":        {median(setups), "s"},
		},
	}, nil
}

// report prints a phase's diagnostics to standard error.
func (b *bench) report(lr *loopResult) {
	n := len(lr.latencies)
	beyond := n - int(0.95*float64(n)+0.5)
	st := lr.after
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %d requests in %.2fs (%d beyond p95), %d failed (failed_frac %.4f)\n",
		b.wl.name, b.seed, lr.completed, lr.wall.Seconds(), beyond, lr.failed, float64(lr.failed)/float64(max(lr.completed, 1)))
	fmt.Fprintf(os.Stderr, "  sim %.1f Minstr/s; live heap %.1f -> %.1f MiB; cache hits +%d misses +%d compiles +%d disk hits +%d evictions +%d\n",
		float64(lr.dyn)/lr.wall.Seconds()/1e6, lr.heapStart, lr.heap,
		st.Hits-lr.before.Hits, st.Misses-lr.before.Misses, st.Compiles-lr.before.Compiles,
		st.DiskHits-lr.before.DiskHits, st.Evictions-lr.before.Evictions)
	fmt.Fprint(os.Stderr, "  latency ms:")
	for _, q := range []float64{.1, .25, .5, .75, .9, .95, .99} {
		fmt.Fprintf(os.Stderr, " p%g %.2f", 100*q, quantile(lr.latencies, q))
	}
	fmt.Fprintln(os.Stderr)
	for _, e := range lr.errs {
		fmt.Fprintln(os.Stderr, "  FAIL", e)
	}
}

// traced runs the untraced and the traced timed phase over the same
// sequence, each in a child process of its own, then the layer replay.
// Separate processes give both phases the same history: a phase run
// after another would inherit the builds the first server left in the
// process-wide predecode table, a larger heap and so a different
// garbage-collector pacing, which skews the tracing-overhead comparison.
func (b *bench) traced() (*result, error) {
	ctx := context.Background()
	base, err := b.runPhase(ctx, false)
	if err != nil {
		return nil, err
	}
	tl, err := b.runPhase(ctx, true)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.spans = tl.spans
	for _, s := range tr.spans {
		tr.ids.Store(max(tr.ids.Load(), s.ID))
	}
	rc, err := replay(ctx, b.wl, b.seed, b.or, tr, b.scratch)
	if err != nil {
		return nil, err
	}
	for _, e := range rc.errs {
		fmt.Fprintln(os.Stderr, "  FAIL", e)
	}
	if err := tr.write(filepath.Join(b.scratch, fmt.Sprintf("spans-%s-%d.jsonl", b.wl.name, b.seed))); err != nil {
		return nil, err
	}
	failed := base.failed + tl.failed + rc.failed
	if rc.violations > 0 {
		failed++
	}
	return &result{
		Correct:   failed == 0,
		Attempted: base.completed + tl.completed + rc.ops,
		Failed:    failed,
		Metrics:   b.layerMetrics(&base, &tl, tr, &rc),
	}, nil
}

// phaseSummary is what a phase child reports to its parent.
type phaseSummary struct {
	Completed, Failed int
	Wall, CPU         time.Duration
	Dyn               int64
	Before, After     buildcache.Stats
	Spans             []span
}

// phaseChild runs one timed phase and prints its summary (the child side
// of traced).
func (b *bench) phaseChild(traced bool) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	lr, err := b.phase(context.Background(), tr)
	if err != nil {
		return err
	}
	b.report(&lr)
	ps := phaseSummary{lr.completed, lr.failed, lr.wall, lr.cpu, lr.dyn, lr.before, lr.after, nil}
	if tr != nil {
		ps.Spans = tr.spans
	}
	out, err := json.Marshal(ps)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runPhase runs phaseChild in a child process and waits for it.
func (b *bench) runPhase(ctx context.Context, traced bool) (loopResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return loopResult{}, err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	cmd := exec.CommandContext(ctx, exe, "-phase", mode, "-workload", b.wl.name,
		"-seed", strconv.FormatUint(b.seed, 10), "-seconds", strconv.Itoa(int(b.dur/time.Second)))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return loopResult{}, fmt.Errorf("%s phase: %w", mode, err)
	}
	var ps phaseSummary
	if err := json.Unmarshal(bytes.TrimSpace(out), &ps); err != nil {
		return loopResult{}, fmt.Errorf("%s phase output: %w", mode, err)
	}
	return loopResult{completed: ps.Completed, failed: ps.Failed, wall: ps.Wall, cpu: ps.CPU,
		dyn: ps.Dyn, before: ps.Before, after: ps.After, spans: ps.Spans}, nil
}

func (b *bench) layerMetrics(base, tl *loopResult, tr *tracer, rc *replayCounts) map[string]metric {
	ls := aggregate(tr)
	const us, ms = time.Microsecond, time.Millisecond
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("lang.compile_ms", ls["lang.compile"].meanSelf(ms), "ms")
	put("core.construct_ms", ls["core.construct"].meanSelf(ms), "ms")
	put("core.cuts", float64(rc.cuts), "count")
	put("codegen.compile_module_ms", ls["codegen.compile_module"].meanSelf(ms), "ms")
	put("codegen.static_instrs", float64(rc.staticInstrs), "count")
	put("codegen.spills", float64(rc.spills), "count")
	put("codegen.encode_us", ls["codegen.encode"].meanSelf(us), "us")
	put("codegen.decode_us", ls["codegen.decode"].meanSelf(us), "us")
	put("codegen.artifact_kb", ratio(float64(rc.artifactBytes), float64(rc.encodes))/1024, "KiB")
	put("verify.ms", ls["verify.verify"].meanSelf(ms), "ms")
	put("verify.regions", float64(rc.regions), "count")
	put("verify.violations", float64(rc.violations), "count")

	d0, d1 := base.before, base.after
	lookups := float64(d1.Hits - d0.Hits + d1.Misses - d0.Misses)
	put("buildcache.hit_ratio", ratio(float64(d1.Hits-d0.Hits), lookups), "ratio")
	put("buildcache.disk_hit_ratio", ratio(float64(d1.DiskHits-d0.DiskHits), lookups), "ratio")
	put("buildcache.compiles", float64(d1.Compiles-d0.Compiles), "count")
	put("buildcache.evictions", float64(d1.Evictions-d0.Evictions), "count")
	put("buildcache.hit_us", ls["buildcache.hit"].meanSelf(us), "us")

	put("fault.apply_us", ls["fault.apply"].meanSelf(us), "us")
	put("fault.recoveries", ratio(float64(rc.recoveries), float64(rc.injectedRuns)), "count")
	put("machine.predecode_us", ls["machine.predecode"].meanSelf(us), "us")
	nsPerInstr := func(l *layerStats) float64 {
		if l == nil || l.count == 0 {
			return 0
		}
		return float64(l.total) / float64(l.count)
	}
	put("machine.ns_per_instr", nsPerInstr(ls["machine.run"]), "ns")
	for _, s := range schemes {
		put("machine.ns_per_instr."+s, nsPerInstr(ls["machine.run."+s]), "ns")
	}
	put("machine.dyn_instrs", float64(rc.dyn), "count")
	put("sim_minstr_per_s", float64(base.dyn)/base.wall.Seconds()/1e6, "Minstr/s")

	h := ls["server.handler"]
	put("server.handler_ms", h.meanSelf(ms), "ms")
	if h != nil {
		put("server.response_kb", float64(h.bytes)/float64(h.n)/1024, "KiB")
	} else {
		put("server.response_kb", 0, "KiB")
	}
	put("http.overhead_ms", ls["client.http"].meanSelf(ms), "ms")
	put("jobs.stream_ms", ls["jobs.stream"].meanTotal(ms), "ms")
	put("jobs.batch_handler_ms", jobBatchHandlerMS(tr), "ms")

	perReq := func(l *loopResult) float64 { return l.cpu.Seconds() / float64(max(l.completed, 1)) }
	put("trace.overhead_pct", 100*(perReq(tl)-perReq(base))/perReq(base), "%")
	put("layers.target_share_pct", b.targetShare(ls), "%")
	return m
}

// jobBatchHandlerMS is the mean handler time of the /v1/batch call that
// each job op makes with the body it then submits to /v1/jobs.
func jobBatchHandlerMS(tr *tracer) float64 {
	jobReqs := map[int64]bool{}
	for _, s := range tr.spans {
		if s.Name == "op.job" {
			jobReqs[s.Req] = true
		}
	}
	var sum, n int64
	for _, s := range tr.spans {
		if s.Name == "server.handler" && jobReqs[s.Req] {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// targetShare is the share of the service handler's time, over the
// replayed ops, that the workload's target layers take in the replay.
func (b *bench) targetShare(ls map[string]*layerStats) float64 {
	h := ls["replay.handler"]
	if h == nil || h.total == 0 {
		return 0
	}
	var layers int64
	for _, name := range b.wl.targets {
		if l := ls[name]; l != nil {
			layers += l.total
		}
	}
	share := 100 * float64(layers) / float64(h.total)
	if b.wl.complement {
		share = 100 - share
	}
	return share
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
