// Package server implements idemd, the long-running idempotence-analysis
// service: an HTTP/JSON facade over the full paper pipeline. POST
// /v1/compile returns the §4 region/antidependence/cut report, POST
// /v1/simulate runs the machine simulator (optionally with faults armed)
// and returns the state digest, and POST /v1/batch fans many units onto
// the experiment engine's worker pool. GET /healthz, /readyz and
// /metrics serve liveness, drain-aware readiness and Prometheus text
// metrics (registered in metrics.go, rendered by internal/metrics).
//
// Request coalescing and artifact caching come from the shared
// buildcache: concurrent requests for the same (workload, options) key
// singleflight onto one compile, and the byte-bounded LRU keeps the
// daemon's footprint flat over an open-ended request stream. The request
// skeleton (internal/httpd, shared with the front tier) enforces
// per-request deadlines, sheds load with 429 beyond a concurrency limit,
// and drains gracefully on SIGTERM (readyz flips to 503, in-flight
// requests complete, new connections stop).
//
// See docs/service.md for the API and metrics catalog.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/experiments"
	"idemproc/internal/fault"
	"idemproc/internal/httpd"
	"idemproc/internal/jobs"
	"idemproc/internal/machine"
)

// Config sizes the daemon. Zero values select the documented defaults.
type Config struct {
	// Workers is the experiment-engine pool width for /v1/batch
	// (default GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrently served /v1/* requests; excess
	// requests are shed with 429 (default 64).
	MaxInFlight int
	// RequestTimeout is the per-request context deadline on /v1/*
	// (default 30s; <0 disables).
	RequestTimeout time.Duration
	// CacheMaxBytes bounds the compile cache (0 = unbounded).
	CacheMaxBytes int64
	// CacheDir, when non-empty, roots the persistent artifact store:
	// compiles are written behind as verified artifact files and memory
	// misses (cold start, eviction) reload from disk instead of
	// recompiling. See docs/persistence.md.
	CacheDir string
	// VerifyMode is ignored: the compile cache re-proves every fresh
	// compile and every disk artifact against the §2.1 criterion (see
	// docs/verify.md).
	//
	// Deprecated: perfbench is the only user of this field.
	VerifyMode buildcache.VerifyMode
	// MaxBodyBytes bounds request bodies (default
	// httpd.DefaultMaxBodyBytes, 8 MiB).
	MaxBodyBytes int64
	// MaxBatchUnits bounds /v1/batch fan-out (default 256).
	MaxBatchUnits int
	// MaxSimSteps caps simulated dynamic instructions per request
	// (default 2^28); requests may lower but not raise it.
	MaxSimSteps int64
	// PreemptEvery is the simulator's cancellation-poll stride in
	// dynamic instructions (default 4096): a canceled or timed-out
	// request stops its simulation within this many instructions, so
	// the request deadline bounds server-side work, not just
	// client-observed latency.
	PreemptEvery int64
	// MaxJobs bounds the async job table for /v1/jobs (default 64).
	MaxJobs int
	// JobTTL is how long a finished job stays queryable before reaping
	// (default 10m).
	JobTTL time.Duration
	// Logf, when set, receives one line per lifecycle event (listen,
	// drain, shutdown). Per-request logging is intentionally absent —
	// /metrics is the observation surface.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBatchUnits <= 0 {
		c.MaxBatchUnits = 256
	}
	if c.MaxSimSteps <= 0 {
		c.MaxSimSteps = 1 << 28
	}
	if c.PreemptEvery <= 0 {
		c.PreemptEvery = 4096
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the idemd service core. Create with New; serve via Handler
// (embedding, tests), Serve+Shutdown, or Run (the daemon process). The
// embedded skeleton carries the preamble, health, job reads and
// lifecycle (internal/httpd).
type Server struct {
	*httpd.Server
	cfg     Config
	cache   *buildcache.Cache
	engine  *experiments.Engine
	metrics *Metrics
	jobs    *jobs.Manager
}

// New builds a server with its own bounded compile cache, batch engine
// and async job manager. Journaled jobs from a previous life are NOT
// resumed here — call RecoverJobs after warming the artifact store
// (cmd/idemd scans the disk tier first so resumed units hit artifacts
// instead of recompiling).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := buildcache.NewBoundedDisk(cfg.CacheMaxBytes, cfg.CacheDir)
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		engine:  experiments.NewEngineWithCache(cfg.Workers, cache),
		metrics: NewMetrics(),
	}
	s.jobs = jobs.NewManager(jobs.Config{
		Dir:     cfg.CacheDir,
		MaxJobs: cfg.MaxJobs,
		TTL:     cfg.JobTTL,
		Logf:    cfg.Logf,
	}, s.engine, s.runUnit)
	s.Server = httpd.New(httpd.Config{
		Name:           "idemd",
		Metrics:        s.metrics,
		Jobs:           s.jobs,
		ObserveChunk:   s.metrics.ObserveChunk,
		MaxInFlight:    cfg.MaxInFlight,
		Shed:           s.metrics.Shed,
		RequestTimeout: cfg.RequestTimeout,
		MaxBodyBytes:   cfg.MaxBodyBytes,
		Drained:        s.flushArtifacts,
		Logf:           cfg.Logf,
	})
	s.Get("/metrics", s.handleMetrics)
	s.Post("/v1/compile", s.handleCompile)
	s.Post("/v1/simulate", s.handleSimulate)
	s.Post("/v1/batch", s.handleBatch)
	// Job submission holds a semaphore slot only for the submit itself;
	// the skeleton's poll/stream/cancel routes stay unlimited so a full
	// semaphore cannot block reading results (which is what frees work).
	s.Post("/v1/jobs", s.handleJobSubmit)
	return s
}

// Cache exposes the compile cache (cmd/idemd logs its stats on exit;
// tests assert on it).
func (s *Server) Cache() *buildcache.Cache { return s.cache }

// Metrics exposes the metric registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Jobs exposes the async job manager (tests assert on its stats).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// RecoverJobs resumes journaled jobs from a previous process life. Call
// it once, after the artifact store's warm-start Scan, so the resumed
// units reload compiles from disk instead of re-running codegen.
func (s *Server) RecoverJobs() jobs.RecoverStats {
	rs := s.jobs.Recover()
	if rs.Resumed+rs.Complete+rs.Pruned > 0 {
		s.cfg.Logf("idemd: job recovery: %d resumed, %d already complete, %d units journaled, %d pruned",
			rs.Resumed, rs.Complete, rs.Units, rs.Pruned)
	}
	return rs
}

// flushArtifacts ends a drain: builds still compiling and their
// write-behind land before exit, so a restart finds everything the
// drained process compiled.
func (s *Server) flushArtifacts(ctx context.Context) {
	if err := s.cache.Close(ctx); err != nil {
		s.cfg.Logf("idemd: artifact flush aborted: %v", err)
	} else if s.cache.Disk() != nil {
		s.cfg.Logf("idemd: artifact store flushed")
	}
}

// writeHTTPErr maps internal errors onto responses: validation errors
// keep their status, cancellation/deadline becomes 503 (the request was
// not served; a draining or overloaded replica tells the client to go
// elsewhere), anything else is a 422 pipeline failure.
func writeHTTPErr(w http.ResponseWriter, err error) {
	var he *httpd.Error
	switch {
	case errors.As(err, &he):
		httpd.WriteError(w, he.Status, he.Msg)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpd.WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("request abandoned: %v", err))
	default:
		httpd.WriteError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// decodeJSON reads the request body (413 beyond MaxBodyBytes) and
// strictly parses it into v. It returns the raw body for callers that
// keep it.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) ([]byte, *httpd.Error) {
	body, he := s.ReadBody(w, r)
	if he != nil {
		return nil, he
	}
	if he := httpd.Decode(body, v); he != nil {
		return nil, he
	}
	return body, nil
}

// ---------------------------------------------------------------------
// Metrics and the /v1 handlers.

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.Render(s.cache.Stats(), s.jobs.Stats()))
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if _, he := s.decodeJSON(w, r, &req); he != nil {
		writeHTTPErr(w, he)
		return
	}
	rep, err := s.doCompile(r.Context(), &req)
	if err != nil {
		writeHTTPErr(w, err)
		return
	}
	httpd.WriteJSON(w, http.StatusOK, rep)
}

// doCompile validates, builds (through the coalescing cache) and renders
// the report. Shared by runUnit.
func (s *Server) doCompile(ctx context.Context, req *CompileRequest) (*CompileReport, error) {
	wk, he := resolveWorkload(req.Workload, req.Source, req.MemWords, nil)
	if he != nil {
		return nil, he
	}
	mo := req.Options.moduleOptions(true)
	_, st, err := s.engine.Build(ctx, wk, mo)
	if err != nil {
		return nil, err
	}
	rep := ReportForBuild(wk, mo, st)
	rep.Verified = s.cache.Verified(wk, mo)
	return rep, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if _, he := s.decodeJSON(w, r, &req); he != nil {
		writeHTTPErr(w, he)
		return
	}
	rep, err := s.doSimulate(r.Context(), &req)
	if err != nil {
		writeHTTPErr(w, err)
		return
	}
	httpd.WriteJSON(w, http.StatusOK, rep)
}

// doSimulate validates, builds the scheme's binary, arms any injections
// and runs the simulator. Shared by runUnit.
func (s *Server) doSimulate(ctx context.Context, req *SimulateRequest) (*SimulateReport, error) {
	wk, he := resolveWorkload(req.Workload, req.Source, req.MemWords, req.Args)
	if he != nil {
		return nil, he
	}
	schemeID, apply, cfg, he := schemeSetup(req.Scheme)
	if he != nil {
		return nil, he
	}
	if req.Options != nil && req.Options.Idempotent != nil {
		return nil, httpd.BadRequest("options.idempotent is implied by the scheme; do not set it")
	}
	if len(req.Injections) > maxInjections {
		return nil, httpd.BadRequest("at most %d injections", maxInjections)
	}
	injs := make([]fault.Injection, 0, len(req.Injections))
	for _, is := range req.Injections {
		inj, he := is.parse()
		if he != nil {
			return nil, he
		}
		injs = append(injs, inj)
	}

	idem := schemeID == fault.SchemeIdempotence && apply
	mo := req.Options.moduleOptions(idem)
	mo.Idempotent = idem
	p, _, err := s.engine.Build(ctx, wk, mo)
	if err != nil {
		return nil, err
	}
	if apply {
		// The instrumented program is this request's alone: release its
		// predecode memo with the run, or every request leaks one.
		p = fault.Apply(p, schemeID)
		defer machine.DropPredecode(p)
	}

	cfg.TrackPaths = req.TrackPaths || idem
	cfg.Cache = machine.DefaultCache()
	cfg.MaxSteps = s.cfg.MaxSimSteps
	if req.MaxSteps > 0 && req.MaxSteps < cfg.MaxSteps {
		cfg.MaxSteps = req.MaxSteps
	}
	if len(injs) > 0 {
		// Arm the livelock watchdog whenever faults are armed: a fault
		// that corrupts a loop bound must cost the service a bounded
		// budget, not MaxSteps worth of simulation.
		cfg.WatchdogRef = req.WatchdogRef
		if cfg.WatchdogRef <= 0 {
			cfg.WatchdogRef = 1 << 20
		}
	}

	cfg.PreemptEvery = s.cfg.PreemptEvery

	m := machine.New(p, cfg)
	for _, inj := range injs {
		fault.Arm(m, inj)
	}
	r0, runErr := s.engine.RunMachine(ctx, m, wk.Args...)
	if errors.Is(runErr, machine.ErrPreempted) {
		// The request deadline (or a canceled batch fan-out) stopped the
		// step loop within cfg.PreemptEvery instructions. Surface the
		// context error so writeHTTPErr maps it to 503, and drop the
		// partial result so batch aggregation stays exact.
		s.metrics.SimPreempted()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		// Cancellation raced the final instructions; the requester is
		// already gone, so the (complete) result is dropped all the same.
		return nil, err
	}
	rep := &SimulateReport{
		Workload: wk.Name,
		Scheme:   schemeName(req.Scheme),
		Result:   r0,
		Digest:   m.Snapshot(r0, runErr),
	}
	if runErr != nil {
		rep.Error = runErr.Error()
	}
	if cfg.TrackPaths {
		rep.AvgPathLen = m.Stats.AvgPathLen()
	}
	return rep, nil
}

// schemeName canonicalizes the scheme for the response ("" -> none).
func schemeName(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// admitBatch is the one admission path of /v1/batch and /v1/jobs — a
// job is a batch with a handle, so the same body must be accepted or
// rejected identically by both. It reads and strictly decodes the body,
// checks the unit count and that each unit names exactly one of compile
// or simulate, and splits out each unit's raw bytes for runUnit. The
// raw body is returned too: it is the job journal's payload.
func (s *Server) admitBatch(w http.ResponseWriter, r *http.Request) ([]byte, []json.RawMessage, *httpd.Error) {
	var req BatchRequest
	body, he := s.decodeJSON(w, r, &req)
	if he != nil {
		return nil, nil, he
	}
	n := len(req.Units)
	if n == 0 {
		return nil, nil, httpd.BadRequest("batch has no units")
	}
	if n > s.cfg.MaxBatchUnits {
		return nil, nil, httpd.BadRequest("batch exceeds %d units", s.cfg.MaxBatchUnits)
	}
	for i, u := range req.Units {
		if (u.Compile == nil) == (u.Simulate == nil) {
			return nil, nil, httpd.BadRequest("unit %d: exactly one of compile or simulate is required", i)
		}
	}
	var raw struct {
		Units []json.RawMessage `json:"units"`
	}
	if err := json.Unmarshal(body, &raw); err != nil || len(raw.Units) != n {
		return nil, nil, httpd.BadRequest("invalid JSON body")
	}
	return body, raw.Units, nil
}

// runUnit is the one place a batch unit executes, for /v1/batch and
// every /v1/jobs runner alike: it decodes the unit's raw bytes, runs
// its compile or simulate, and returns the marshaled BatchResult. A
// unit failure stays inside its own slot. Admission strictly validated
// the bytes, so the re-parse cannot fail; the defensive branch keeps
// the slot well-formed regardless.
func (s *Server) runUnit(ctx context.Context, unit json.RawMessage, index int) []byte {
	res := BatchResult{Index: index}
	var u BatchUnit
	err := json.Unmarshal(unit, &u)
	switch {
	case err != nil:
		err = fmt.Errorf("invalid unit: %v", err)
	case u.Compile != nil:
		res.Compile, err = s.doCompile(ctx, u.Compile)
	case u.Simulate != nil:
		res.Simulate, err = s.doSimulate(ctx, u.Simulate)
	}
	if err != nil {
		res.Error = err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		// Unreachable for these fixed structs; keep the slot well-formed.
		b, _ = json.Marshal(BatchResult{Index: index, Error: "result encoding failed"})
	}
	return b
}

// handleBatch fans runUnit over the engine pool and joins the unit bytes
// in index order, whatever the pool width: the response is
// `{"results":[` + join(units, ",") + `]}` + "\n", exactly what a job
// stream of the same body reconstructs to (docs/jobs.md).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	_, units, he := s.admitBatch(w, r)
	if he != nil {
		writeHTTPErr(w, he)
		return
	}
	results := make([][]byte, len(units))
	_ = s.engine.ForEach(r.Context(), len(units), func(ctx context.Context, i int) error {
		results[i] = s.runUnit(ctx, units[i], i)
		return nil
	})
	if err := r.Context().Err(); err != nil {
		// The whole batch is abandoned on deadline/cancel: partial output
		// would not be byte-stable.
		writeHTTPErr(w, err)
		return
	}
	var b bytes.Buffer
	b.WriteString(`{"results":[`)
	b.Write(bytes.Join(results, []byte{','}))
	b.WriteString("]}\n")
	httpd.Write(w, http.StatusOK, b.Bytes())
}
