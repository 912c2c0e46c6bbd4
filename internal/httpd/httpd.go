// Package httpd is the request skeleton idemd and idemfront share. It
// owns what both daemons do around their handlers: the route table with
// each route's method allow-list, the preamble every request passes
// (in-flight gauge, method filter, shed semaphore, deadline, per-path
// observation), the bounded body read and the strict JSON decoder, the
// JSON and error writers, /healthz and /readyz, the job read endpoints,
// the drain state and the process lifecycle (Run). Each daemon registers
// its own routes on a Server and keeps only what is specific to it. The
// preamble is described once, in order, in docs/service.md.
package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"idemproc/internal/jobs"
)

// Fixed parts of the service contract, equal on both tiers.
const (
	// RetryAfter is the Retry-After header (whole seconds) on every 429:
	// it turns a shed from a guess into a schedule, which
	// internal/resilience clients honor verbatim.
	RetryAfter = "1"
	// PollMax caps the wait a GET /v1/jobs/{id} long-poll may ask for,
	// under common load-balancer idle timeouts.
	PollMax = 25 * time.Second
	// DefaultMaxBodyBytes bounds request bodies unless Config sets a
	// bound of its own.
	DefaultMaxBodyBytes = 8 << 20
)

// Observer receives the preamble's per-request accounting; each
// daemon's Metrics implements it. The path is the route pattern, so a
// wildcard route like /v1/jobs/{id} stays one series.
type Observer interface {
	InFlight() func()
	Observe(path string, code int, d time.Duration)
}

// Config wires a daemon into the skeleton.
type Config struct {
	// Name prefixes every log line ("idemd", "idemfront").
	Name    string
	Metrics Observer
	// Jobs is the daemon's job table; the skeleton serves its read
	// endpoints and stops it on drain.
	Jobs *jobs.Manager
	// ObserveChunk, when set, records each job result delivery of n
	// units by mode ("poll" or "stream").
	ObserveChunk func(mode string, n int)
	// MaxInFlight > 0 bounds concurrently served POST routes; excess
	// requests are shed with 429 rather than queued, and Shed (when set)
	// counts them.
	MaxInFlight int
	Shed        func()
	// RequestTimeout > 0 is the context deadline of each POST route.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// NotReady, when set, returns why the daemon cannot serve ("" when
	// it can); /readyz answers 503 with that reason.
	NotReady func() string
	// Drained, when set, runs at the end of a drain, after the listener
	// and the job table have closed.
	Drained func(ctx context.Context)
	// Join, when set, stops and joins the daemon's own goroutines. It
	// runs last in Shutdown and Close, when no handler can start one.
	Join func()
	// Logf receives lifecycle lines (listening, draining, drained,
	// stopped); nil discards them.
	Logf func(format string, args ...any)
}

// Server is one daemon's HTTP surface. Create with New, register routes
// with Get and Post, then serve via Handler (embedding, tests) or Run
// (the daemon process).
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	sem      chan struct{}
	httpSrv  *http.Server
	draining atomic.Bool
}

// New builds a server with /healthz, /readyz and the job read endpoints
// already registered.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	s.Get("/healthz", s.handleHealthz)
	s.Get("/readyz", s.handleReadyz)
	s.handle("/v1/jobs/{id}", []string{http.MethodGet, http.MethodDelete}, false, s.handleJob)
	s.Get("/v1/jobs/{id}/stream", s.handleJobStream)
	return s
}

// Get registers a GET route: no shedding and no deadline, so reads
// that free work (job polls) are never blocked by a full semaphore.
func (s *Server) Get(pattern string, h http.HandlerFunc) {
	s.handle(pattern, []string{http.MethodGet}, false, h)
}

// Post registers a POST work route: shed with 429 beyond MaxInFlight
// and run under RequestTimeout.
func (s *Server) Post(pattern string, h http.HandlerFunc) {
	s.handle(pattern, []string{http.MethodPost}, true, h)
}

// handle wraps h in the preamble, in order: in-flight gauge, method
// filter (405 with Allow), shed semaphore (429 with Retry-After) and
// deadline on work routes, then h; the status and latency are observed
// when h returns.
func (s *Server) handle(pattern string, methods []string, work bool, h http.HandlerFunc) {
	allow := strings.Join(methods, ", ")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		done := s.cfg.Metrics.InFlight()
		defer func() {
			done()
			s.cfg.Metrics.Observe(pattern, rec.code, time.Since(start))
		}()
		if !slices.Contains(methods, r.Method) {
			rec.Header().Set("Allow", allow)
			WriteError(rec, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed", r.Method))
			return
		}
		if work {
			if s.sem != nil {
				select {
				case s.sem <- struct{}{}:
					defer func() { <-s.sem }()
				default:
					if s.cfg.Shed != nil {
						s.cfg.Shed()
					}
					WriteShed(rec, "server at concurrency limit, retry later")
					return
				}
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

// statusRecorder captures the response code for observation.
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

// ---------------------------------------------------------------------
// Bodies and errors.

// Error is a request failure with the HTTP status it answers with.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// BadRequest is a 400 Error.
func BadRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// ReadBody reads the request body: 413 beyond the configured bound, 400
// when the read itself fails.
func (s *Server) ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, *Error) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &Error{Status: http.StatusRequestEntityTooLarge,
				Msg: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return nil, BadRequest("reading body: %v", err)
	}
	return b, nil
}

// Decode strictly parses b into v: unknown fields and trailing data are
// 400s, so typos fail loudly.
func Decode(b []byte, v any) *Error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return BadRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return BadRequest("trailing data after JSON body")
	}
	return nil
}

// Write sends an encoded JSON body (newline-terminated) with code.
func Write(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// WriteJSON marshals v with a trailing newline. Marshaling fixed structs
// is deterministic, which is what makes response bodies byte-identical
// across runs, replicas and tiers.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	Write(w, code, append(b, '\n'))
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

// WriteError sends the uniform {"error": msg} body with code.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, errorBody{Error: msg})
}

// WriteShed sends a 429 with the Retry-After hint.
func WriteShed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", RetryAfter)
	WriteError(w, http.StatusTooManyRequests, msg)
}

// ---------------------------------------------------------------------
// Health and lifecycle.

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	reason := ""
	switch {
	case s.draining.Load():
		reason = "draining"
	case s.cfg.NotReady != nil:
		reason = s.cfg.NotReady()
	}
	if reason != "" {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

// Handler returns the fully instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean drain, like net/http.
func (s *Server) Serve(l net.Listener) error {
	s.cfg.Logf("%s: listening on %s", s.cfg.Name, l.Addr())
	return s.httpSrv.Serve(l)
}

// Shutdown drains the server: readiness flips to 503 immediately (so
// load balancers and the front's probes stop routing), in-flight
// requests run to completion, and Serve returns once the listener is
// closed and connections idle. Everything admitted before Shutdown gets
// its response.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cfg.Logf("%s: draining (readyz -> 503)", s.cfg.Name)
	s.stop()
	err := s.httpSrv.Shutdown(ctx)
	if jerr := s.cfg.Jobs.Close(ctx); jerr != nil && err == nil {
		err = jerr
	}
	if s.cfg.Drained != nil {
		s.cfg.Drained(ctx)
	}
	s.join()
	s.cfg.Logf("%s: drained", s.cfg.Name)
	return err
}

// Close force-closes the listener and every active connection: the
// hard-exit path a second signal during a stuck drain takes. Connection
// teardown cancels the in-flight requests' contexts, which preempts any
// running simulation within its poll budget.
func (s *Server) Close() error {
	s.stop()
	err := s.httpSrv.Close()
	s.join()
	return err
}

// stop begins a drain or a close. The job table stops first: runners
// park (journals stay for the next boot) and blocked pollers and
// streamers wake, so their connections can drain instead of holding
// Shutdown until their long-poll deadlines.
func (s *Server) stop() {
	s.draining.Store(true)
	s.cfg.Jobs.Stop()
}

func (s *Server) join() {
	if s.cfg.Join != nil {
		s.cfg.Join()
	}
}

// Draining reports whether Shutdown or Close has begun.
func (s *Server) Draining() bool { return s.draining.Load() }
