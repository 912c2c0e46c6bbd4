// Front-side async jobs: POST /v1/jobs splits a batch into per-owner
// sub-jobs across the replica fleet, tracks them behind one front-side
// handle, and merges the per-replica streams back into strict index
// order — so GET /v1/jobs/{id}/stream through the front is byte-
// identical to the same job on a single replica, which in turn is
// byte-derivable from the /v1/batch response. Sub-jobs fail over
// between replicas with only the *remaining* units resubmitted; a
// replica crash mid-job costs re-execution of at most its in-flight
// units somewhere else, never a unit the front already holds.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"idemproc/internal/httpd"
	"idemproc/internal/jobs"
	"idemproc/internal/server"
)

// maxSubAttempts bounds how many times one sub-batch is (re)submitted
// across the candidate list before the front job fails. Generous: a
// rolling restart of every replica still converges well inside it.
const maxSubAttempts = 8

// subJobWait is the long-poll wait the mergers use against replicas.
// The replica returns early on any progress; this only bounds how long
// an idle poll parks.
const subJobWait = 15 * time.Second

// handleJobSubmit implements POST /v1/jobs at the front: validate and
// split exactly like /v1/batch, mint a front-side handle immediately,
// and let one merger goroutine per sub-batch feed the tracked job.
func (f *Front) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, he := f.ReadBody(w, r)
	if he != nil {
		httpd.WriteError(w, he.Status, he.Msg)
		return
	}
	groups, splittable := f.splitBatch(body)
	if !splittable {
		f.forwardUnsplittableJob(w, r.Context(), body)
		return
	}

	total := 0
	for _, g := range groups {
		total += len(g.indices)
	}
	j, err := f.jobs.Track(total, nil)
	if err != nil {
		if errors.Is(err, jobs.ErrTableFull) || errors.Is(err, jobs.ErrClosed) {
			// Same shed contract as a replica: bounded table, retry hint.
			httpd.WriteShed(w, err.Error())
			return
		}
		httpd.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	for _, g := range groups {
		f.wg.Add(1)
		go f.runGroup(j, g)
	}
	httpd.WriteJSON(w, http.StatusOK, server.SubmitResponse{ID: j.ID(), Units: total, State: j.State().String()})
}

// forwardUnsplittableJob handles the bodies the splitter declines. The
// replica validation rules are a superset of the splitter's, so these
// forward unsplit purely to fetch the canonical replica error — except
// the front's own split bound, which the front enforces itself (with
// the replica's own message shape) rather than minting a replica-side
// handle it could never serve.
func (f *Front) forwardUnsplittableJob(w http.ResponseWriter, ctx context.Context, body []byte) {
	const path = "/v1/jobs"
	var outer struct {
		Units []json.RawMessage `json:"units"`
	}
	if httpd.Decode(body, &outer) == nil && len(outer.Units) > f.cfg.MaxBatchUnits {
		httpd.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch exceeds %d units", f.cfg.MaxBatchUnits))
		return
	}
	f.metrics.RawRouted()
	status, resp, err := f.route(ctx, path, body, rawKey(body))
	if err != nil {
		httpd.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("no replica served the request: %v", err))
		return
	}
	if status == http.StatusOK {
		// Unreachable when front and replica validation agree; never hand
		// out a replica-scoped handle (its TTL reaps the stray job).
		httpd.WriteError(w, http.StatusBadGateway,
			"replica accepted a job the front cannot track")
		return
	}
	httpd.Write(w, status, resp)
}

// runGroup is one sub-batch's merger: submit the group's still-missing
// units to a replica as a sub-job, long-poll its cursor, rewrite each
// result's index back to the original batch position, and deliver it
// into the front job. On any replica-side failure it resubmits only the
// remaining units to the next candidate; after maxSubAttempts the whole
// front job fails (partial output would not be byte-stable).
func (f *Front) runGroup(j *jobs.Job, g *batchGroup) {
	defer f.wg.Done()
	ctx := j.Context()
	delivered := make([]bool, len(g.indices))
	var lastErr error
	for attempt := 0; attempt < maxSubAttempts; attempt++ {
		var remUnits []json.RawMessage
		var remIdx []int
		for k, d := range delivered {
			if !d {
				remUnits = append(remUnits, g.units[k])
				remIdx = append(remIdx, k)
			}
		}
		if len(remUnits) == 0 {
			return
		}
		b := f.pickBackend(g.key, attempt)
		err := f.runSubJob(ctx, j, b, remUnits, remIdx, g.indices, delivered)
		if err == nil {
			return
		}
		if ctx.Err() != nil {
			// Front job canceled or front draining — not a replica fault.
			return
		}
		lastErr = err
		f.metrics.SubJobRetry()
	}
	j.Fail(fmt.Sprintf("sub-batch failed on every replica: %v", lastErr))
}

// pickBackend walks the group's candidate list by attempt number, so
// consecutive retries rotate replicas instead of hammering one.
func (f *Front) pickBackend(key string, attempt int) *backend {
	cands := f.candidates(key)
	return cands[attempt%len(cands)]
}

// runSubJob drives one sub-job on one replica to completion: submit,
// long-poll the cursor, deliver rewritten results. A nil return means
// every remaining unit was delivered; an error means the caller should
// fail over with whatever is still missing.
func (f *Front) runSubJob(ctx context.Context, j *jobs.Job, b *backend,
	remUnits []json.RawMessage, remIdx []int, indices []int, delivered []bool) error {
	sub, err := json.Marshal(struct {
		Units []json.RawMessage `json:"units"`
	}{Units: remUnits})
	if err != nil {
		return err
	}
	f.metrics.SubJob()
	// The submit is detached from ctx and bounded by the front's request
	// timeout instead: a cancel landing while it is in flight would
	// otherwise orphan the replica job it creates, which would then
	// compute results nobody reads. With the handle back, the cancel is
	// forwarded below.
	sctx, cancel := context.WithoutCancel(ctx), func() {}
	if f.cfg.RequestTimeout > 0 {
		sctx, cancel = context.WithTimeout(sctx, f.cfg.RequestTimeout)
	}
	status, resp, err := f.request(sctx, http.MethodPost, b.base+"/v1/jobs", sub)
	cancel()
	if err != nil {
		if status == 0 {
			f.setHealth(b, false, "transport error")
		}
		return fmt.Errorf("submit to %s: %w", b.id, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("submit to %s: status %d: %s", b.id, status, firstLine(resp))
	}
	var sr server.SubmitResponse
	if err := json.Unmarshal(resp, &sr); err != nil || sr.Units != len(remUnits) {
		return fmt.Errorf("submit to %s: malformed handle", b.id)
	}
	if ctx.Err() != nil {
		f.cancelSubJob(b, sr.ID)
		return nil
	}

	cursor := 0
	for cursor < len(remUnits) {
		url := fmt.Sprintf("%s/v1/jobs/%s?cursor=%d&wait=%d",
			b.base, sr.ID, cursor, subJobWait.Milliseconds())
		status, resp, err := f.request(ctx, http.MethodGet, url, nil)
		if ctx.Err() != nil {
			// The front job went away under us; release the replica's slot.
			f.cancelSubJob(b, sr.ID)
			return nil
		}
		if err != nil {
			if status == 0 {
				f.setHealth(b, false, "transport error")
			}
			return fmt.Errorf("poll %s on %s: %w", sr.ID, b.id, err)
		}
		if status != http.StatusOK {
			// 404: the replica restarted without the journal (or reaped the
			// sub-job) — resubmit the remainder elsewhere.
			return fmt.Errorf("poll %s on %s: status %d: %s", sr.ID, b.id, status, firstLine(resp))
		}
		var rep jobs.PollResponse
		if err := json.Unmarshal(resp, &rep); err != nil {
			return fmt.Errorf("poll %s on %s: malformed response: %v", sr.ID, b.id, err)
		}
		for _, res := range rep.Results {
			if cursor >= len(remIdx) {
				return fmt.Errorf("poll %s on %s: more results than units", sr.ID, b.id)
			}
			k := remIdx[cursor]
			global := indices[k]
			rewritten, err := rewriteIndex(res, global)
			if err != nil {
				return fmt.Errorf("poll %s on %s: malformed result: %v", sr.ID, b.id, err)
			}
			j.Deliver(global, rewritten)
			delivered[k] = true
			cursor++
		}
		switch rep.State {
		case "canceled", "failed":
			return fmt.Errorf("sub-job %s on %s ended %s: %s", sr.ID, b.id, rep.State, rep.Error)
		}
	}
	return nil
}

// rewriteIndex re-marshals one replica result with its original batch
// index, passing the compile/simulate payload bytes through verbatim —
// the same rewrite /v1/batch merging uses, and for the same reason:
// byte-identity with a single-process run.
func rewriteIndex(res json.RawMessage, index int) ([]byte, error) {
	var r rawBatchResult
	if err := json.Unmarshal(res, &r); err != nil {
		return nil, err
	}
	r.Index = index
	return json.Marshal(r)
}

// cancelSubJob best-effort releases a replica-side sub-job whose front
// job is gone (canceled or front shutdown); the replica would otherwise
// keep computing results nobody will read.
func (f *Front) cancelSubJob(b *backend, id string) {
	_, _, _ = f.detached(http.MethodDelete, b.base+"/v1/jobs/"+id)
}

// firstLine trims a response body to its first line for error messages.
func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}
