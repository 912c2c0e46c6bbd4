package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/machine"
	"idemproc/internal/server"
)

// clients is the closed loop's width: each client sends its next request
// only after the previous reply, as idemload, experiment drivers and job
// clients do. Two clients on the two-core machine the figures come from
// keep the load at the core count, so queueing does not dominate.
const clients = 2

// service is one booted idemd core on loopback.
type service struct {
	srv     *server.Server
	httpSrv *http.Server // set when traced: Serve is wrapped by tracedHandler
	done    chan error
	base    string
	client  *http.Client
	dir     string // CacheDir, removed at close
}

// boot starts a server for the workload with the given batch pool width,
// optionally with the traced handler in front of it.
func boot(wl *workloadDef, scratch string, tr *tracer, workers int) (*service, error) {
	cfg := server.Config{Workers: workers, VerifyMode: buildcache.VerifyFull,
		CacheMaxBytes: wl.cacheBytes, JobTTL: 2 * time.Second}
	s := &service{done: make(chan error, 1)}
	if wl.cacheDir {
		dir, err := os.MkdirTemp(scratch, "store-")
		if err != nil {
			return nil, err
		}
		cfg.CacheDir, s.dir = dir, dir
	}
	s.srv = server.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tr == nil {
		go func() { s.done <- s.srv.Serve(l) }()
	} else {
		s.httpSrv = &http.Server{Handler: tracedHandler{h: s.srv.Handler(), tr: tr},
			ReadHeaderTimeout: 10 * time.Second}
		go func() { s.done <- s.httpSrv.Serve(l) }()
	}
	s.base = "http://" + l.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}}
	resp, err := s.client.Get(s.base + "/readyz")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("readyz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// close drains the server and waits for Serve to return.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.httpSrv != nil {
		s.httpSrv.Shutdown(ctx)
	}
	s.srv.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// release drops the predecoded form of the builds in keys that are
// still resident in c. A discarded cache's entries die with it, but their
// predecode memo lives in a process-wide table keyed by Program, so
// set-ups and replays in one process would otherwise pile up. Under full
// verification an idempotent build is resident exactly when the cache
// reports it verified, which is checked first so that an evicted key is
// not rebuilt just to be dropped.
func release(c *buildcache.Cache, keys []unit) {
	ctx := context.Background()
	seen := map[buildcache.Key]bool{}
	for _, u := range keys {
		w, mo := u.buildWorkload(), u.mo()
		k := buildcache.KeyOf(w, mo)
		if seen[k] || (mo.Idempotent && !c.Verified(w, mo)) {
			continue
		}
		seen[k] = true
		if p, _, err := c.Compile(ctx, w, mo); err == nil {
			machine.DropPredecode(p)
		}
	}
}

// post sends one request; the spans of a traced run record the round
// trip, and the headers let the handler span name its parent.
func (s *service) post(ctx context.Context, tr *tracer, parent, req int64, method, path string, body []byte) ([]byte, error) {
	a := tr.start("client.http", parent, req)
	defer a.end()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(a.id(), 10))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// do runs one op against the service and checks its responses. lat is
// the client-observed time of the op's round trips, without the time
// the oracle takes to check them.
func (s *service) do(ctx context.Context, tr *tracer, or *oracle, o *op) (dyn int64, lat time.Duration, err error) {
	req := int64(o.idx + 1)
	root := tr.start("op."+opNames[o.kind], 0, req)
	defer root.end()
	t0 := time.Now()
	body, err := s.post(ctx, tr, root.id(), req, http.MethodPost, o.path(), o.body)
	lat = time.Since(t0)
	if err != nil {
		return 0, lat, err
	}
	if dyn, err = or.check(o, body); err != nil || o.kind != opJob {
		return dyn, lat, err
	}
	js := tr.start("jobs.stream", root.id(), req)
	defer js.end()
	t0 = time.Now()
	sub, err := s.post(ctx, tr, js.id(), req, http.MethodPost, "/v1/jobs", o.body)
	if err != nil {
		return 0, lat + time.Since(t0), err
	}
	var sr server.SubmitResponse
	if err := json.Unmarshal(sub, &sr); err != nil {
		return 0, lat + time.Since(t0), fmt.Errorf("job submit response: %w", err)
	}
	stream, err := s.post(ctx, tr, js.id(), req, http.MethodGet, "/v1/jobs/"+sr.ID+"/stream", nil)
	lat += time.Since(t0)
	if err != nil {
		return 0, lat, err
	}
	return dyn, lat, checkStream(stream, body)
}

// warmup compiles the workload's set-up builds through the service with
// the closed loop's clients, checking every report.
func (s *service) warmup(ctx context.Context, or *oracle, us []unit) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	next := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= len(us) || first != nil
				mu.Unlock()
				if stop {
					return
				}
				o := op{kind: opCompile, units: []unit{us[i]}}
				encodeOp(&o)
				body, err := s.post(ctx, nil, 0, 0, http.MethodPost, o.path(), o.body)
				if err == nil {
					_, err = or.check(&o, body)
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("warm-up: %w", err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// loopResult is what one timed closed-loop phase measured.
type loopResult struct {
	completed, failed int
	latencies         []time.Duration
	wall, cpu         time.Duration
	dyn               int64
	heapStart, heap   float64 // live heap (MiB) after a forced GC
	before, after     buildcache.Stats
	errs              []string
	spans             []span // a traced phase's spans, when run in a child
}

// timed runs the closed loop over seq for dur: every client takes the
// next op as soon as its previous one completes, and ops in flight at
// the deadline run to completion and count.
func (s *service) timed(ctx context.Context, tr *tracer, or *oracle, seq *sequence, dur time.Duration) loopResult {
	var res loopResult
	res.heapStart = liveHeapMB()
	res.before = s.srv.Cache().Stats()
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := seq.next()
				dyn, lat, err := s.do(ctx, tr, or, &o)
				mu.Lock()
				res.completed++
				res.latencies = append(res.latencies, lat)
				res.dyn += dyn
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, fmt.Sprintf("op %d (%s): %v", o.idx, opNames[o.kind], err))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	res.after = s.srv.Cache().Stats()
	res.heap = liveHeapMB()
	sort.Slice(res.latencies, func(a, b int) bool { return res.latencies[a] < res.latencies[b] })
	return res
}

// quantile is the nearest-rank quantile of sorted durations, in ms.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / float64(time.Millisecond)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if n, _ := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// scratchDir is the benchmark's own directory for temporary stores and
// span files, inside the checkout.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "run")
	return dir, os.MkdirAll(dir, 0o755)
}
