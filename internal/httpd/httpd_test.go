package httpd

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"idemproc/internal/jobs"
	"idemproc/internal/leakcheck"
)

// TestMain fails the package's tests if they leave goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// observer records what the preamble reports.
type observer struct {
	mu       sync.Mutex
	inflight int
	seen     []string
}

func (o *observer) InFlight() func() {
	o.mu.Lock()
	o.inflight++
	o.mu.Unlock()
	return func() {
		o.mu.Lock()
		o.inflight--
		o.mu.Unlock()
	}
}

func (o *observer) Observe(path string, code int, _ time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seen = append(o.seen, path+" "+http.StatusText(code))
}

// newTestServer builds a skeleton whose drain the test's cleanup runs.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Jobs = jobs.NewManager(jobs.Config{}, nil, nil)
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestPreamble walks one request through each exit of the preamble:
// method filter, shed, body bound, and the deadline that only POST
// routes carry; every exit is observed under the route pattern.
func TestPreamble(t *testing.T) {
	obs := &observer{}
	shed := 0
	s := newTestServer(t, Config{Metrics: obs, MaxInFlight: 1, Shed: func() { shed++ },
		RequestTimeout: time.Minute, MaxBodyBytes: 8})
	hold, release := make(chan struct{}), make(chan struct{})
	s.Post("/work", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); !ok {
			t.Error("POST route runs without a deadline")
		}
		if r.URL.Query().Get("hold") != "" {
			close(hold)
			<-release
		}
		if _, he := s.ReadBody(w, r); he != nil {
			WriteError(w, he.Status, he.Msg)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]int{"n": 1})
	})
	s.Get("/read", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); ok {
			t.Error("GET route runs under a deadline")
		}
	})

	rec := do(t, s.Handler(), http.MethodGet, "/work", "")
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" ||
		rec.Body.String() != "{\"error\":\"method GET not allowed\"}\n" {
		t.Errorf("GET /work: %d Allow %q body %q", rec.Code, rec.Header().Get("Allow"), rec.Body)
	}
	if rec := do(t, s.Handler(), http.MethodPost, "/work", "123456789"); rec.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(rec.Body.String(), "body exceeds 8 bytes") {
		t.Errorf("oversize POST: %d %s", rec.Code, rec.Body)
	}
	do(t, s.Handler(), http.MethodGet, "/read", "")

	done := make(chan struct{})
	go func() {
		defer close(done)
		do(t, s.Handler(), http.MethodPost, "/work?hold=1", "{}")
	}()
	<-hold
	rec = do(t, s.Handler(), http.MethodPost, "/work", "{}")
	close(release)
	<-done
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != RetryAfter || shed != 1 {
		t.Errorf("over-limit POST: %d Retry-After %q, %d sheds", rec.Code, rec.Header().Get("Retry-After"), shed)
	}

	want := []string{"/work Method Not Allowed", "/work Request Entity Too Large", "/read OK",
		"/work Too Many Requests", "/work OK"}
	if got := strings.Join(obs.seen, ", "); got != strings.Join(want, ", ") || obs.inflight != 0 {
		t.Errorf("observed %s with %d in flight, want %s", got, obs.inflight, strings.Join(want, ", "))
	}
}

// TestReadyz: the daemon's not-ready reason and draining both answer
// 503 with the reason as the body.
func TestReadyz(t *testing.T) {
	reason := "no healthy backends"
	s := newTestServer(t, Config{Metrics: &observer{}, NotReady: func() string { return reason }})
	check := func(code int, body string) {
		t.Helper()
		rec := do(t, s.Handler(), http.MethodGet, "/readyz", "")
		if rec.Code != code || rec.Body.String() != body {
			t.Errorf("readyz: %d %q, want %d %q", rec.Code, rec.Body, code, body)
		}
	}
	check(http.StatusServiceUnavailable, "no healthy backends\n")
	reason = ""
	check(http.StatusOK, "ready\n")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(http.StatusServiceUnavailable, "draining\n")
}

// TestLifecycleHooks: a drain runs Drained before Join, a forced close
// runs Join alone, and Serve returns once the drain is done.
func TestLifecycleHooks(t *testing.T) {
	var order []string
	s := newTestServer(t, Config{Metrics: &observer{},
		Drained: func(context.Context) { order = append(order, "drained") },
		Join:    func() { order = append(order, "join") }})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	resp, err := http.Get("http://" + l.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "ok\n" {
		t.Fatalf("healthz body %q", b)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	s.Close()
	if got := strings.Join(order, ","); got != "drained,join,join" {
		t.Fatalf("hooks ran %s, want drained,join,join", got)
	}
}
