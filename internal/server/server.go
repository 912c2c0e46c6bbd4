// Package server implements idemd, the long-running idempotence-analysis
// service: an HTTP/JSON facade over the full paper pipeline. POST
// /v1/compile returns the §4 region/antidependence/cut report, POST
// /v1/simulate runs the machine simulator (optionally with faults armed)
// and returns the state digest, and POST /v1/batch fans many units onto
// the experiment engine's worker pool. GET /healthz, /readyz and
// /metrics serve liveness, drain-aware readiness and hand-rolled
// Prometheus text metrics.
//
// Request coalescing and artifact caching come from the shared
// buildcache: concurrent requests for the same (workload, options) key
// singleflight onto one compile, and the byte-bounded LRU keeps the
// daemon's footprint flat over an open-ended request stream. The
// middleware stack enforces per-request deadlines, sheds load with 429
// beyond a concurrency limit, and drains gracefully on SIGTERM (readyz
// flips to 503, in-flight requests complete, new connections stop).
//
// See docs/service.md for the API and metrics catalog.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/experiments"
	"idemproc/internal/fault"
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
	// VerifyMode re-checks compiled programs against the §2.1 criterion
	// with the internal/verify translation validator (off by default;
	// see docs/verify.md). Sampled and full modes also re-verify every
	// disk artifact after decode.
	VerifyMode buildcache.VerifyMode
	// MaxBodyBytes bounds request bodies (default 8 MiB).
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
	// JobPollMax caps the long-poll wait a GET /v1/jobs/{id} request may
	// ask for (default 25s — under common LB idle timeouts).
	JobPollMax time.Duration
	// RetryAfterHint is the Retry-After value attached to 429 sheds
	// (default 1s) so clients back off precisely instead of guessing.
	RetryAfterHint time.Duration
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
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
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
	if c.JobPollMax <= 0 {
		c.JobPollMax = 25 * time.Second
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the idemd service core. Create with New; serve either via
// Handler (for embedding/tests) or Serve+Shutdown (for the daemon).
type Server struct {
	cfg     Config
	cache   *buildcache.Cache
	engine  *experiments.Engine
	metrics *Metrics
	jobs    *jobs.Manager
	mux     *http.ServeMux
	sem     chan struct{}

	draining atomic.Bool
	httpSrv  *http.Server
}

// New builds a server with its own bounded compile cache, batch engine
// and async job manager. Journaled jobs from a previous life are NOT
// resumed here — call RecoverJobs after warming the artifact store
// (cmd/idemd scans the disk tier first so resumed units hit artifacts
// instead of recompiling).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := buildcache.NewBoundedDisk(cfg.CacheMaxBytes, cfg.CacheDir)
	cache.SetVerifyMode(cfg.VerifyMode)
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		engine:  experiments.NewEngineWithCache(cfg.Workers, cache),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
	}
	s.jobs = jobs.NewManager(jobs.Config{
		Dir:     cfg.CacheDir,
		MaxJobs: cfg.MaxJobs,
		TTL:     cfg.JobTTL,
		Logf:    cfg.Logf,
	}, s.engine, s.runJobUnit)
	get, post := []string{http.MethodGet}, []string{http.MethodPost}
	s.mux.Handle("/healthz", s.instrument("/healthz", get, false, s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("/readyz", get, false, s.handleReadyz))
	s.mux.Handle("/metrics", s.instrument("/metrics", get, false, s.handleMetrics))
	s.mux.Handle("/v1/compile", s.instrument("/v1/compile", post, true, s.handleCompile))
	s.mux.Handle("/v1/simulate", s.instrument("/v1/simulate", post, true, s.handleSimulate))
	s.mux.Handle("/v1/batch", s.instrument("/v1/batch", post, true, s.handleBatch))
	// Job submission holds a semaphore slot only for the submit itself;
	// poll/stream/cancel are cheap waits and stay unlimited so a full
	// semaphore cannot block reading results (which is what frees work).
	s.mux.Handle("/v1/jobs", s.instrument("/v1/jobs", post, true, s.handleJobSubmit))
	s.mux.Handle("/v1/jobs/{id}", s.instrument("/v1/jobs/{id}",
		[]string{http.MethodGet, http.MethodDelete}, false, s.handleJob))
	s.mux.Handle("/v1/jobs/{id}/stream", s.instrument("/v1/jobs/{id}/stream", get, false, s.handleJobStream))
	return s
}

// Handler returns the fully instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

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

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean drain, like net/http.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.cfg.Logf("idemd: listening on %s", l.Addr())
	return s.httpSrv.Serve(l)
}

// Shutdown drains the server: readiness flips to 503 immediately (so
// load balancers stop routing), in-flight requests run to completion,
// and Serve returns once the listener is closed and connections idle.
// No request is dropped silently — everything admitted before Shutdown
// gets its response.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cfg.Logf("idemd: draining (readyz -> 503)")
	// Stop the job subsystem first: runners park (journals stay on disk
	// for the next boot to resume) and blocked pollers/streamers wake,
	// so their connections can drain instead of holding Shutdown until
	// their long-poll deadlines.
	s.jobs.Stop()
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if jerr := s.jobs.Close(ctx); jerr != nil && err == nil {
		err = jerr
	}
	if d := s.cache.Disk(); d != nil {
		// Let in-flight write-behind artifact writes land before exit, so
		// a restart finds everything the drained process compiled.
		if ferr := d.Flush(ctx); ferr != nil {
			s.cfg.Logf("idemd: artifact flush aborted: %v", ferr)
		} else {
			s.cfg.Logf("idemd: artifact store flushed")
		}
	}
	s.cfg.Logf("idemd: drained")
	return err
}

// Close force-closes the listener and every active connection — the
// hard-exit path a second SIGTERM during a stuck drain takes. In-flight
// requests are abandoned; their contexts are canceled by the connection
// teardown, which preempts any running simulations within the poll
// budget.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.jobs.Stop()
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ---------------------------------------------------------------------
// Middleware.

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the NDJSON stream handler
// can push each chunk through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with method filtering, the in-flight gauge,
// the concurrency limiter (limited endpoints shed with 429 instead of
// queueing — the client can retry against another replica; queued work
// would just grow latency unboundedly), the per-request deadline, and
// latency/status accounting. The path label is the route pattern, so
// wildcard routes like /v1/jobs/{id} stay one metric series.
func (s *Server) instrument(path string, methods []string, limited bool, h func(http.ResponseWriter, *http.Request)) http.Handler {
	allow := strings.Join(methods, ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		done := s.metrics.InFlight()
		defer func() {
			done()
			s.metrics.Observe(path, rec.code, time.Since(start))
		}()

		allowed := false
		for _, m := range methods {
			if r.Method == m {
				allowed = true
				break
			}
		}
		if !allowed {
			rec.Header().Set("Allow", allow)
			writeError(rec, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed", r.Method))
			return
		}
		if limited {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.metrics.Shed()
				// Retry-After turns the shed from a guess into a schedule:
				// resilience clients honor it verbatim instead of probing
				// with their own backoff curve.
				rec.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfterHint)))
				writeError(rec, http.StatusTooManyRequests, "server at concurrency limit, retry later")
				return
			}
			if s.cfg.RequestTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		h(rec, r)
	})
}

// retryAfterSeconds renders a hint as whole seconds, minimum 1 (the
// header's granularity; 0 would mean "retry immediately", defeating the
// point).
func retryAfterSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// writeJSON marshals v with a trailing newline. Marshaling fixed structs
// is deterministic, which is what makes response bodies byte-identical
// across runs and replicas.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// writeHTTPErr maps internal errors onto responses: validation errors
// keep their status, cancellation/deadline becomes 503 (the request was
// not served; a draining or overloaded replica tells the client to go
// elsewhere), anything else is a 422 pipeline failure.
func writeHTTPErr(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		writeError(w, he.status, he.msg)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("request abandoned: %v", err))
	default:
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// decodeJSON strictly parses the request body into v.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) *httpError {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// ---------------------------------------------------------------------
// Health, readiness, metrics.

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.Render(s.cache.Stats(), s.jobs.Stats()))
}

// ---------------------------------------------------------------------
// /v1 handlers.

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		writeHTTPErr(w, he)
		return
	}
	rep, err := s.doCompile(r.Context(), &req)
	if err != nil {
		writeHTTPErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// doCompile validates, builds (through the coalescing cache) and renders
// the report. Shared by the batch handler.
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
	if he := s.decodeJSON(w, r, &req); he != nil {
		writeHTTPErr(w, he)
		return
	}
	rep, err := s.doSimulate(r.Context(), &req)
	if err != nil {
		writeHTTPErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// doSimulate validates, builds the scheme's binary, arms any injections
// and runs the simulator. Shared by the batch handler.
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
		return nil, badRequest("options.idempotent is implied by the scheme; do not set it")
	}
	if len(req.Injections) > maxInjections {
		return nil, badRequest("at most %d injections", maxInjections)
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

// validateBatch applies the shared /v1/batch and /v1/jobs admission
// rules — identical on purpose: a job is a batch with a handle, so the
// same body must be accepted or rejected identically by both.
func (s *Server) validateBatch(req *BatchRequest) *httpError {
	n := len(req.Units)
	if n == 0 {
		return badRequest("batch has no units")
	}
	if n > s.cfg.MaxBatchUnits {
		return badRequest("batch exceeds %d units", s.cfg.MaxBatchUnits)
	}
	for i, u := range req.Units {
		if (u.Compile == nil) == (u.Simulate == nil) {
			return badRequest("unit %d: exactly one of compile or simulate is required", i)
		}
	}
	return nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		writeHTTPErr(w, he)
		return
	}
	if he := s.validateBatch(&req); he != nil {
		writeHTTPErr(w, he)
		return
	}
	n := len(req.Units)

	// Fan the units onto the engine pool. Per-unit failures are recorded
	// in their slot (fn always returns nil), so one broken unit cannot
	// cancel its siblings; results land in index order regardless of the
	// pool width — the same determinism contract as the figure drivers.
	results := make([]BatchResult, n)
	_ = s.engine.ForEach(r.Context(), n, func(ctx context.Context, i int) error {
		res := BatchResult{Index: i}
		u := req.Units[i]
		switch {
		case u.Compile != nil:
			rep, err := s.doCompile(ctx, u.Compile)
			if err != nil {
				res.Error = err.Error()
			} else {
				res.Compile = rep
			}
		case u.Simulate != nil:
			rep, err := s.doSimulate(ctx, u.Simulate)
			if err != nil {
				res.Error = err.Error()
			} else {
				res.Simulate = rep
			}
		}
		results[i] = res
		return nil
	})
	if err := r.Context().Err(); err != nil {
		// The whole batch is abandoned on deadline/cancel: partial output
		// would not be byte-stable.
		writeHTTPErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}
