// Front-side async-job contract tests. The load-bearing one mirrors
// the /v1/batch determinism test: a job streamed through a 3-replica
// fleet must reconstruct byte-for-byte into the /v1/batch response a
// single idemd process produces for the same body. The rest pin the
// fleet-grade properties: a replica dying mid-job costs a resubmission,
// not the job; cancel fans out to replica sub-jobs; and identical
// compiles single-flight through the failover window.
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idemproc/internal/httpd"
	"idemproc/internal/jobs"
	"idemproc/internal/server"
)

// slowVariant is srcVariant's expensive sibling: distinct content keys
// that each take long enough to leave a kill/cancel window.
func slowVariant(i int) string {
	return fmt.Sprintf("func main(int n) int {\n\tint s = %d;\n\tint t = 1;\n\tfor (int i = 0; i < n; i = i + 1) { s = s + i; t = t + s; }\n\treturn s + t;\n}\n", i)
}

// jobBatch spans several content keys (so the front splits it) and
// includes an in-band per-unit error.
func jobBatch(t *testing.T) []byte {
	t.Helper()
	return mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{
		{Compile: &server.CompileRequest{Source: srcVariant(0)}},
		{Simulate: &server.SimulateRequest{Source: frontTinySrc, Args: []uint64{10}}},
		{Compile: &server.CompileRequest{Source: "not a program"}},
		{Compile: &server.CompileRequest{Source: srcVariant(1)}},
		{Simulate: &server.SimulateRequest{Source: srcVariant(2), Args: []uint64{5}, Scheme: "idem"}},
		{Compile: &server.CompileRequest{Source: srcVariant(3)}},
	}})
}

func submitFrontJob(t *testing.T, url string, body []byte) server.SubmitResponse {
	t.Helper()
	status, resp := postBody(t, url+"/v1/jobs", body)
	if status != http.StatusOK {
		t.Fatalf("submit: status %d: %s", status, resp)
	}
	var sub server.SubmitResponse
	if err := json.Unmarshal(resp, &sub); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return sub
}

// streamFrontJob reads the NDJSON stream from cursor to the end.
func streamFrontJob(t *testing.T, url, id string, cursor int) [][]byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?cursor=%d", url, id, cursor))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	var lines [][]byte
	for _, l := range bytes.Split(raw, []byte("\n")) {
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return lines
}

// reconstruct derives the /v1/batch response body from stream lines.
func reconstruct(lines [][]byte) []byte {
	return append(append([]byte(`{"results":[`), bytes.Join(lines, []byte(","))...), []byte("]}\n")...)
}

type frontPollReply struct {
	State      string            `json:"state"`
	Units      int               `json:"units"`
	NextCursor int               `json:"next_cursor"`
	Error      string            `json:"error"`
	Results    []json.RawMessage `json:"results"`
}

func pollFrontJob(t *testing.T, url, id string, cursor, waitMS int) frontPollReply {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?cursor=%d&wait=%d", url, id, cursor, waitMS))
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll: status %d: %s", resp.StatusCode, b)
	}
	var rep frontPollReply
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("poll response: %v", err)
	}
	return rep
}

// TestFrontJobMatchesBatchBytes: stream and cursor-poll reconstructions
// through a 3-replica fleet are byte-identical to a single process's
// /v1/batch response for the same body.
func TestFrontJobMatchesBatchBytes(t *testing.T) {
	ref, _ := newReplica(t)
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(refTS.Close)

	var backends []string
	for i := 0; i < 3; i++ {
		_, addr := newReplica(t)
		backends = append(backends, addr)
	}
	_, url := newFront(t, backends, nil)

	body := jobBatch(t)
	refStatus, refBatch := postBody(t, refTS.URL+"/v1/batch", body)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, refBatch)
	}

	sub := submitFrontJob(t, url, body)
	if sub.Units != 6 || sub.State != "running" {
		t.Fatalf("submit response: %+v", sub)
	}

	lines := streamFrontJob(t, url, sub.ID, 0)
	if len(lines) != sub.Units {
		t.Fatalf("streamed %d lines, want %d", len(lines), sub.Units)
	}
	if got := reconstruct(lines); !bytes.Equal(got, refBatch) {
		t.Fatalf("stream reconstruction diverges from single-process batch:\n got: %s\nwant: %s", got, refBatch)
	}

	// Cursor-poll the same job; the concatenation across polls must be
	// the same bytes.
	var polled [][]byte
	cursor := 0
	for {
		rep := pollFrontJob(t, url, sub.ID, cursor, 2000)
		for _, r := range rep.Results {
			polled = append(polled, []byte(r))
		}
		cursor = rep.NextCursor
		if cursor >= sub.Units {
			if rep.State != "done" {
				t.Fatalf("job ended %q, want done", rep.State)
			}
			break
		}
	}
	if got := reconstruct(polled); !bytes.Equal(got, refBatch) {
		t.Fatalf("poll reconstruction diverges from single-process batch:\n got: %s\nwant: %s", got, refBatch)
	}

	// Suffix stream resume: cursor=2 must replay exactly lines[2:].
	suffix := streamFrontJob(t, url, sub.ID, 2)
	if len(suffix) != sub.Units-2 {
		t.Fatalf("suffix stream: %d lines, want %d", len(suffix), sub.Units-2)
	}
	for i, l := range suffix {
		if !bytes.Equal(l, lines[i+2]) {
			t.Fatalf("suffix line %d diverges", i)
		}
	}
}

// TestFrontJobSurvivesReplicaDeath: killing a replica with an active
// sub-job resubmits the remainder elsewhere; the merged stream still
// reconstructs the single-process bytes.
func TestFrontJobSurvivesReplicaDeath(t *testing.T) {
	ref, _ := newReplica(t)
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(refTS.Close)

	// The victim is the first replica to accept a sub-job of two or more
	// units. Its first poll that returns results is cut to one result,
	// and its later polls are held until the kill, so the kill always
	// lands after a partial delivery and leaves units to resubmit.
	var victim atomic.Int32
	victim.Store(-1)
	delivered := make(chan struct{})
	var deliverOnce sync.Once
	var backends []string
	var listeners []*httptest.Server
	for i := 0; i < 3; i++ {
		s := newServer(t, server.Config{MaxInFlight: 128, RequestTimeout: time.Minute, Workers: 1})
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				var req server.BatchRequest
				if json.Unmarshal(body, &req) == nil && len(req.Units) >= 2 {
					victim.CompareAndSwap(-1, int32(i))
				}
			}
			if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/jobs/") || victim.Load() != int32(i) {
				h.ServeHTTP(w, r)
				return
			}
			if r.URL.Query().Get("cursor") != "0" {
				<-r.Context().Done()
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var rep jobs.PollResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || len(rep.Results) == 0 {
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
				return
			}
			rep.Results, rep.NextCursor = rep.Results[:1], 1
			b, _ := json.Marshal(rep)
			w.Write(b)
			deliverOnce.Do(func() { close(delivered) })
		}))
		t.Cleanup(ts.Close)
		listeners = append(listeners, ts)
		backends = append(backends, strings.TrimPrefix(ts.URL, "http://"))
	}
	f, url := newFront(t, backends, nil)

	// Slow, key-diverse units: each replica that owns a group has a
	// visible window where its sub-job is running.
	var units []server.BatchUnit
	for i := 0; i < 6; i++ {
		units = append(units, server.BatchUnit{
			Simulate: &server.SimulateRequest{Source: slowVariant(i), Args: []uint64{400_000}},
		})
	}
	body := mustJSON(t, &server.BatchRequest{Units: units})
	refStatus, refBatch := postBody(t, refTS.URL+"/v1/batch", body)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, refBatch)
	}

	sub := submitFrontJob(t, url, body)

	// Kill the victim once its first result has reached the front.
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("the victim replica never delivered a result")
	}
	killed := victim.Load()
	listeners[killed].CloseClientConnections()
	listeners[killed].Close()

	lines := streamFrontJob(t, url, sub.ID, 0)
	if len(lines) != len(units) {
		rep := pollFrontJob(t, url, sub.ID, 0, 0)
		t.Fatalf("streamed %d/%d lines; job state %q (%s)", len(lines), len(units), rep.State, rep.Error)
	}
	if got := reconstruct(lines); !bytes.Equal(got, refBatch) {
		t.Fatalf("post-kill reconstruction diverges from single-process batch:\n got: %s\nwant: %s", got, refBatch)
	}
	if n := f.Metrics().SubJobRetriesNow(); n < 1 {
		t.Fatalf("expected at least one sub-job resubmission, got %d", n)
	}
}

// TestFrontJobCancelFansOut: DELETE on the front job cancels the
// replica-side sub-jobs so the fleet stops computing unread results.
func TestFrontJobCancelFansOut(t *testing.T) {
	var backends []string
	var servers []*server.Server
	for i := 0; i < 3; i++ {
		s := newServer(t, server.Config{MaxInFlight: 128, RequestTimeout: time.Minute, Workers: 1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, s)
		backends = append(backends, strings.TrimPrefix(ts.URL, "http://"))
	}
	_, url := newFront(t, backends, nil)

	var units []server.BatchUnit
	for i := 0; i < 3; i++ {
		units = append(units, server.BatchUnit{
			Simulate: &server.SimulateRequest{Source: slowVariant(i), Args: []uint64{100_000_000}},
		})
	}
	sub := submitFrontJob(t, url, mustJSON(t, &server.BatchRequest{Units: units}))

	// Wait until at least one replica is actually running a sub-job.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n := int64(0)
		for _, s := range servers {
			n += s.Jobs().Stats().Active
		}
		if n > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var cr httpd.CancelResponse
	if err := json.Unmarshal(b, &cr); err != nil || cr.State != "canceled" {
		t.Fatalf("cancel response: %s (%v)", b, err)
	}

	// The mergers' best-effort DELETEs land on the replicas shortly.
	for time.Now().Before(deadline) {
		n := int64(0)
		for _, s := range servers {
			n += s.Jobs().Stats().Canceled
		}
		if n > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no replica sub-job was ever canceled")
}

// TestFrontJobValidation pins the front's own answers to submissions:
// an unsplittable body gets the canonical replica error, and a batch
// beyond the split bound is rejected with the replica's message shape.
func TestFrontJobValidation(t *testing.T) {
	_, refAddr := newReplica(t)
	refURL := "http://" + refAddr
	_, addr := newReplica(t)
	_, url := newFront(t, []string{addr}, func(c *Config) { c.MaxBatchUnits = 2 })

	// A submit that the splitter declines for shape reasons gets the
	// byte-identical replica error.
	badBody := []byte(`{"units": []}`)
	fStatus, fResp := postBody(t, url+"/v1/jobs", badBody)
	rStatus, rResp := postBody(t, refURL+"/v1/jobs", badBody)
	if fStatus != rStatus || !bytes.Equal(fResp, rResp) {
		t.Fatalf("unsplittable submit: front (%d, %s) vs replica (%d, %s)", fStatus, fResp, rStatus, rResp)
	}

	// Beyond the front's split bound: rejected at the front with the
	// replica's message shape, no replica-side handle minted.
	big := mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{
		{Compile: &server.CompileRequest{Source: srcVariant(0)}},
		{Compile: &server.CompileRequest{Source: srcVariant(1)}},
		{Compile: &server.CompileRequest{Source: srcVariant(2)}},
	}})
	status, resp := postBody(t, url+"/v1/jobs", big)
	if status != http.StatusBadRequest || !strings.Contains(string(resp), "batch exceeds 2 units") {
		t.Fatalf("oversize submit: status %d body %s", status, resp)
	}
}

// TestFrontErrorsMatchReplica sends every error the request skeleton
// writes to a replica and to a front, and requires the same status,
// body, Allow and Content-Type: both tiers answer from one preamble.
func TestFrontErrorsMatchReplica(t *testing.T) {
	_, refAddr := newReplica(t)
	refURL := "http://" + refAddr
	_, addr := newReplica(t)
	_, frontURL := newFront(t, []string{addr}, nil)

	// One finished single-unit job on each side, for the cursor and wait
	// checks; the handles differ, so {id} is filled in per side.
	body := mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{
		{Compile: &server.CompileRequest{Source: srcVariant(0)}},
	}})
	ids := map[string]string{}
	for _, base := range []string{refURL, frontURL} {
		sub := submitFrontJob(t, base, body)
		if rep := pollFrontJob(t, base, sub.ID, 0, 5000); rep.State != "done" {
			t.Fatalf("%s: job state %q", base, rep.State)
		}
		ids[base] = sub.ID
	}

	tooBig := bytes.Repeat([]byte("x"), httpd.DefaultMaxBodyBytes+1)
	type exchange struct {
		status             int
		body, allow, ctype string
	}
	send := func(base, method, path string, payload []byte) exchange {
		t.Helper()
		req, err := http.NewRequest(method, base+strings.ReplaceAll(path, "{id}", ids[base]), bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: read body: %v", method, path, err)
		}
		return exchange{resp.StatusCode, string(b), resp.Header.Get("Allow"), resp.Header.Get("Content-Type")}
	}

	for _, tc := range []struct {
		method, path string
		body         []byte
		want         int
	}{
		{http.MethodPost, "/healthz", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/readyz", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/metrics", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/compile", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/simulate", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/batch", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/jobs", nil, http.StatusMethodNotAllowed},
		{http.MethodPatch, "/v1/jobs/{id}", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/jobs/{id}/stream", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/compile", tooBig, http.StatusRequestEntityTooLarge},
		{http.MethodPost, "/v1/simulate", tooBig, http.StatusRequestEntityTooLarge},
		{http.MethodPost, "/v1/batch", tooBig, http.StatusRequestEntityTooLarge},
		{http.MethodPost, "/v1/jobs", tooBig, http.StatusRequestEntityTooLarge},
		{http.MethodGet, "/v1/jobs/zzz", nil, http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/zzz/stream", nil, http.StatusNotFound},
		{http.MethodDelete, "/v1/jobs/zzz", nil, http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/{id}?cursor=2", nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs/{id}?cursor=-1", nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs/{id}?cursor=abc", nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs/{id}/stream?cursor=abc", nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs/{id}?wait=abc", nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs/{id}?wait=-5", nil, http.StatusBadRequest},
	} {
		want := send(refURL, tc.method, tc.path, tc.body)
		got := send(frontURL, tc.method, tc.path, tc.body)
		if want.status != tc.want {
			t.Errorf("%s %s: replica status %d, want %d", tc.method, tc.path, want.status, tc.want)
		}
		if got != want {
			t.Errorf("%s %s: front %+v, replica %+v", tc.method, tc.path, got, want)
		}
	}
}
