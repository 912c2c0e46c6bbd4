// Tests for the async job endpoints. The load-bearing assertions are
// byte-level: the concatenated /v1/jobs/{id}/stream body must
// reconstruct the /v1/batch response for the same request exactly, and a
// job resumed after a restart must produce the same bytes with zero
// recompiles and no re-execution of journaled units.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// jobBatchBody is a mixed batch: compiles, simulates across schemes, and
// a per-unit error — the same shape the batch determinism tests use.
func jobBatchBody(t *testing.T) []byte {
	t.Helper()
	return marshal(t, &BatchRequest{Units: []BatchUnit{
		{Compile: &CompileRequest{Source: tinySource}},
		{Simulate: &SimulateRequest{Source: tinySource, Args: []uint64{25}, Scheme: "idem"}},
		{Simulate: &SimulateRequest{Source: tinySource, Args: []uint64{10}, Scheme: "tmr"}},
		{Compile: &CompileRequest{Source: "not a program"}}, // per-unit error
		{Simulate: &SimulateRequest{Source: tinySource, Args: []uint64{7},
			Injections: []InjectionSpec{{Model: "reg", Step: 40, Mask: 1 << 7}}}},
	}})
}

// submitJob posts body to /v1/jobs and returns the handle.
func submitJob(t *testing.T, ts *httptest.Server, body []byte) SubmitResponse {
	t.Helper()
	code, b := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d body %s", code, b)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatalf("submit body %s: %v", b, err)
	}
	if sub.ID == "" || sub.State != "running" {
		t.Fatalf("submit response %+v", sub)
	}
	return sub
}

// streamLines reads the full NDJSON stream from cursor and returns the
// raw result lines.
func streamLines(t *testing.T, ts *httptest.Server, id string, cursor int) []string {
	t.Helper()
	resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/jobs/%s/stream?cursor=%d", ts.URL, id, cursor))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return lines
}

// reconstructBatch rebuilds a /v1/batch response body from stream lines.
func reconstructBatch(lines []string) []byte {
	return []byte(`{"results":[` + strings.Join(lines, ",") + "]}\n")
}

// TestJobStreamAndPollMatchBatchBytes submits the same body to /v1/batch
// and /v1/jobs and requires that (a) the concatenated stream lines
// reconstruct the batch response byte-for-byte, and (b) a cursor-driven
// poll loop collects the identical per-unit bytes.
func TestJobStreamAndPollMatchBatchBytes(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := jobBatchBody(t)
	code, batchBody := postJSON(t, ts.Client(), ts.URL+"/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d body %s", code, batchBody)
	}

	sub := submitJob(t, ts, body)
	lines := streamLines(t, ts, sub.ID, 0)
	if len(lines) != sub.Units {
		t.Fatalf("stream returned %d lines, want %d", len(lines), sub.Units)
	}
	if got := reconstructBatch(lines); !bytes.Equal(got, batchBody) {
		t.Fatalf("stream reconstruction differs from batch:\n got %s\nwant %s", got, batchBody)
	}

	// Cursor loop over the finished job (and one poll beyond the end).
	var collected []string
	cursor := 0
	for cursor < sub.Units {
		code, b := getJSON(t, ts, fmt.Sprintf("/v1/jobs/%s?cursor=%d&wait=5000", sub.ID, cursor))
		if code != http.StatusOK {
			t.Fatalf("poll: status %d body %s", code, b)
		}
		var rep pollReply
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			collected = append(collected, string(r))
		}
		if rep.NextCursor == cursor && rep.State != "running" {
			break
		}
		cursor = rep.NextCursor
	}
	if got := reconstructBatch(collected); !bytes.Equal(got, batchBody) {
		t.Fatalf("poll reconstruction differs from batch:\n got %s\nwant %s", got, batchBody)
	}
}

// pollReply mirrors jobs.PollResponse for decoding in tests.
type pollReply struct {
	ID         string   `json:"id"`
	State      string   `json:"state"`
	Units      int      `json:"units"`
	NextCursor int      `json:"next_cursor"`
	Error      string   `json:"error,omitempty"`
	Results    []rawMsg `json:"results"`
}

type rawMsg []byte

func (m *rawMsg) UnmarshalJSON(b []byte) error { *m = append((*m)[:0], b...); return nil }

func getJSON(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestJobCursorValidation pins the edge semantics: cursor past the unit
// count is 400, cursor at the end is an empty 200, junk cursors/waits
// are 400, unknown ids are 404, and the wildcard route 405s with a
// combined Allow header.
func TestJobCursorValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub := submitJob(t, ts, jobBatchBody(t))
	// Wait for completion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, b := getJSON(t, ts, "/v1/jobs/"+sub.ID+"?wait=1000")
		if code != http.StatusOK {
			t.Fatalf("poll: status %d body %s", code, b)
		}
		var rep pollReply
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", rep)
		}
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{fmt.Sprintf("/v1/jobs/%s?cursor=%d", sub.ID, sub.Units), http.StatusOK},
		{fmt.Sprintf("/v1/jobs/%s?cursor=%d", sub.ID, sub.Units+1), http.StatusBadRequest},
		{"/v1/jobs/" + sub.ID + "?cursor=-1", http.StatusBadRequest},
		{"/v1/jobs/" + sub.ID + "?cursor=abc", http.StatusBadRequest},
		{"/v1/jobs/" + sub.ID + "?wait=abc", http.StatusBadRequest},
		{"/v1/jobs/" + sub.ID + "?wait=-5", http.StatusBadRequest},
		{fmt.Sprintf("/v1/jobs/%s/stream?cursor=%d", sub.ID, sub.Units+1), http.StatusBadRequest},
		{"/v1/jobs/nosuchjob", http.StatusNotFound},
		{"/v1/jobs/nosuchjob/stream", http.StatusNotFound},
	} {
		if code, b := getJSON(t, ts, tc.path); code != tc.want {
			t.Errorf("GET %s: status %d body %s, want %d", tc.path, code, b, tc.want)
		}
	}

	// Cursor at the end: empty results, terminal state, cursor echoed.
	_, b := getJSON(t, ts, fmt.Sprintf("/v1/jobs/%s?cursor=%d&wait=1000", sub.ID, sub.Units))
	var rep pollReply
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.State != "done" || rep.NextCursor != sub.Units || len(rep.Results) != 0 {
		t.Fatalf("poll at end = %s", b)
	}
	if !strings.Contains(string(b), `"results":[]`) {
		t.Fatalf("poll at end must encode results as [], got %s", b)
	}

	// Method filtering on the wildcard route.
	req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, DELETE" {
		t.Fatalf("PATCH Allow = %q, want \"GET, DELETE\"", allow)
	}

	// DELETE of an unknown job is 404 too.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nosuchjob", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}
}

// TestJobConcurrentPollers runs several cursor loops against one job
// concurrently; each must collect the identical full result sequence.
func TestJobConcurrentPollers(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	units := make([]BatchUnit, 8)
	for i := range units {
		units[i] = BatchUnit{Simulate: &SimulateRequest{Source: tinySource, Args: []uint64{uint64(5 + i)}}}
	}
	sub := submitJob(t, ts, marshal(t, &BatchRequest{Units: units}))

	var wg sync.WaitGroup
	results := make([][]string, 4)
	for p := range results {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cursor := 0
			for cursor < sub.Units {
				code, b := getJSON(t, ts, fmt.Sprintf("/v1/jobs/%s?cursor=%d&wait=2000", sub.ID, cursor))
				if code != http.StatusOK {
					t.Errorf("poller %d: status %d body %s", p, code, b)
					return
				}
				var rep pollReply
				if err := json.Unmarshal(b, &rep); err != nil {
					t.Errorf("poller %d: %v", p, err)
					return
				}
				for _, r := range rep.Results {
					results[p] = append(results[p], string(r))
				}
				cursor = rep.NextCursor
			}
		}(p)
	}
	wg.Wait()
	for p := 1; p < len(results); p++ {
		if strings.Join(results[p], "\n") != strings.Join(results[0], "\n") {
			t.Fatalf("poller %d collected different bytes than poller 0", p)
		}
	}
	if len(results[0]) != sub.Units {
		t.Fatalf("pollers collected %d results, want %d", len(results[0]), sub.Units)
	}
}

// TestJobCancel: DELETE flips a running job to canceled, wakes waiters,
// and the stream ends early instead of hanging.
func TestJobCancel(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	units := make([]BatchUnit, 3)
	for i := range units {
		units[i] = BatchUnit{Simulate: &SimulateRequest{Source: slowSource, Args: []uint64{200_000_000 + uint64(i)}}}
	}
	sub := submitJob(t, ts, marshal(t, &BatchRequest{Units: units}))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), `"state":"canceled"`) {
		t.Fatalf("DELETE: status %d body %s", resp.StatusCode, buf.String())
	}

	// The stream of a canceled job terminates (possibly with zero lines).
	lines := streamLines(t, ts, sub.ID, 0)
	if len(lines) >= sub.Units {
		t.Fatalf("canceled job streamed %d lines", len(lines))
	}
	// Poll confirms the terminal state; a second DELETE stays canceled.
	_, b := getJSON(t, ts, "/v1/jobs/"+sub.ID)
	if !strings.Contains(string(b), `"state":"canceled"`) {
		t.Fatalf("poll after cancel: %s", b)
	}
}

// TestShedRetryAfter: 429 sheds carry a Retry-After hint (satellite:
// resilience clients back off precisely instead of guessing).
func TestShedRetryAfter(t *testing.T) {
	s := New(Config{MaxInFlight: 1, RetryAfterHint: 2 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := marshal(t, &SimulateRequest{Source: slowSource, Args: []uint64{200_000_000}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlightNow() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json",
		bytes.NewReader(marshal(t, &CompileRequest{Source: tinySource})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
}

// TestJobTableFullRetryAfter: a full job table rejects submissions with
// 429 + Retry-After, and frees up once a job is canceled and reaped.
func TestJobTableFullRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 1, JobTTL: 50 * time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slowBody := marshal(t, &BatchRequest{Units: []BatchUnit{
		{Simulate: &SimulateRequest{Source: slowSource, Args: []uint64{200_000_000}}},
	}})
	sub := submitJob(t, ts, slowBody)

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(jobBatchBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit to full table: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("submit to full table: missing Retry-After")
	}

	// Cancel; after the TTL the next submit reaps the slot inline.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	if resp, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	time.Sleep(80 * time.Millisecond)
	submitJob(t, ts, jobBatchBody(t))
}

// TestJobResumeAfterRestart is the tentpole e2e: a job interrupted by a
// daemon restart resumes from its journal — the journaled prefix is not
// re-executed, the compiles all come from the artifact store (zero
// codegen runs), and the final bytes are identical to an uninterrupted
// /v1/batch of the same body.
func TestJobResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	body := marshal(t, &BatchRequest{Units: []BatchUnit{
		{Compile: &CompileRequest{Source: tinySource}},
		{Simulate: &SimulateRequest{Source: tinySource, Args: []uint64{25}}},
		{Simulate: &SimulateRequest{Source: slowSource, Args: []uint64{300_000}}},
		{Simulate: &SimulateRequest{Source: slowSource, Args: []uint64{300_001}}},
		{Simulate: &SimulateRequest{Source: slowSource, Args: []uint64{300_002}}},
	}})

	// First life: a single worker runs the units in order. Shut down
	// mid-job, once the first slow unit is done: by then life 1 has built
	// everything the job needs (a build is queued for the artifact store
	// before any unit can use it, and Shutdown flushes that queue), so the
	// resume below must compile nothing, while two slow units are still
	// pending, so there is something to resume. (Shutting down at cursor 1
	// raced the slow unit's build: when it had not started, the resume had
	// to compile it.)
	s1 := New(Config{Workers: 1, CacheDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	sub := submitJob(t, ts1, body)
	deadline := time.Now().Add(30 * time.Second)
	for s1.Jobs().Stats().Completed == 0 {
		code, b := getJSON(t, ts1, "/v1/jobs/"+sub.ID+"?wait=500")
		if code != http.StatusOK {
			t.Fatalf("poll: status %d body %s", code, b)
		}
		var rep pollReply
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.NextCursor >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before restart")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	ts1.Close()
	if c := s1.Jobs().Stats().Completed; c != 0 {
		t.Fatalf("life 1 completed %d jobs before shutdown, want the job interrupted", c)
	}

	// Second life over the same cache dir: artifact scan first (as
	// cmd/idemd does), then job recovery.
	s2 := New(Config{CacheDir: dir})
	defer s2.Close()
	if d := s2.Cache().Disk(); d != nil {
		d.Scan()
	}
	rs := s2.RecoverJobs()
	if rs.Resumed+rs.Complete != 1 {
		t.Fatalf("recover stats = %+v, want exactly the one job back", rs)
	}
	if rs.Units == 0 {
		t.Fatal("interrupted job recovered zero journaled units")
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	lines := streamLines(t, ts2, sub.ID, 0)
	if len(lines) != sub.Units {
		t.Fatalf("resumed stream returned %d lines, want %d", len(lines), sub.Units)
	}
	if got := s2.Jobs().Stats().ResumedUnits; got == 0 {
		t.Fatal("resumed-units counter is zero for an interrupted job")
	}
	// Zero recompiles: every build the resumed units needed came from
	// the persisted artifact store.
	if c := s2.Cache().Stats().Compiles; c != 0 {
		t.Fatalf("resume ran %d compiles, want 0 (artifact store was warm)", c)
	}

	// Byte-identity against an uninterrupted /v1/batch of the same body.
	code, batchBody := postJSON(t, ts2.Client(), ts2.URL+"/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("reference batch: status %d", code)
	}
	if got := reconstructBatch(lines); !bytes.Equal(got, batchBody) {
		t.Fatalf("resumed stream differs from batch:\n got %s\nwant %s", got, batchBody)
	}
}
