package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the span that
// made the call (0 for a request's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response size of handler spans.
	Bytes int64 `json:"bytes,omitempty"`
	// Count is the layer's work count where it has one (dynamic
	// instructions of a machine run).
	Count int64 `json:"count,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced and traced runs take the same code path.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	tr *tracer
	s  span
}

func (t *tracer) start(name string, parent, req int64) *active {
	if t == nil {
		return nil
	}
	return &active{tr: t, s: span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: time.Since(t.t0).Nanoseconds()}}
}

func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

func (a *active) end() {
	a.stop()
	a.commit()
}

// stop ends the span's interval; commit records it. Split, they let a
// caller name a span after the call it times, from the call's outcome.
func (a *active) stop() {
	if a != nil {
		a.s.End = time.Since(a.tr.t0).Nanoseconds()
	}
}

func (a *active) commit() {
	if a == nil {
		return
	}
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.s)
	a.tr.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	pos := make(map[int64]int, len(t.spans))
	for i := range t.spans {
		pos[t.spans[i].ID] = i
	}
	children := make(map[int][][2]int64)
	for i := range t.spans {
		if p, ok := pos[t.spans[i].Parent]; ok && t.spans[i].Parent != 0 {
			children[p] = append(children[p], [2]int64{t.spans[i].Start, t.spans[i].End})
		}
	}
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, lo, hi := int64(0), int64(-1), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		self[i] = s.dur() - covered
	}
	return self
}

// Request headers that carry the client's span identity to the traced
// handler wrapper. The service ignores them.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// tracedHandler times Server.Handler().ServeHTTP into an in-memory
// recorder, then copies the recorded response to the connection, so the
// handler span holds the service's work and none of the socket I/O.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	name := "server.handler"
	if strings.HasPrefix(r.URL.Path, "/v1/jobs") {
		name = "server.jobs"
	}
	rec := httptest.NewRecorder()
	a := th.tr.start(name, parent, req)
	th.h.ServeHTTP(rec, r)
	a.s.Bytes = int64(rec.Body.Len())
	a.end()
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// layerStats aggregates spans by name.
type layerStats struct {
	n     int
	total int64 // ns
	self  int64 // ns
	bytes int64
	count int64
}

func aggregate(tr *tracer) map[string]*layerStats {
	self := tr.selfTimes()
	out := map[string]*layerStats{}
	for i := range tr.spans {
		s := &tr.spans[i]
		name := s.Name
		if strings.HasPrefix(name, "machine.run.") {
			// Per-scheme runs also roll up into machine.run.
			add(out, "machine.run", s, self[i])
		}
		add(out, name, s, self[i])
	}
	return out
}

func add(out map[string]*layerStats, name string, s *span, self int64) {
	ls := out[name]
	if ls == nil {
		ls = &layerStats{}
		out[name] = ls
	}
	ls.n++
	ls.total += s.dur()
	ls.self += self
	ls.bytes += s.Bytes
	ls.count += s.Count
}

// meanTotal is the mean duration per span in the given unit.
func (ls *layerStats) meanTotal(unit time.Duration) float64 {
	if ls == nil || ls.n == 0 {
		return 0
	}
	return float64(ls.total) / float64(ls.n) / float64(unit)
}

// meanSelf is the mean self time per span in the given unit.
func (ls *layerStats) meanSelf(unit time.Duration) float64 {
	if ls == nil || ls.n == 0 {
		return 0
	}
	return float64(ls.self) / float64(ls.n) / float64(unit)
}
