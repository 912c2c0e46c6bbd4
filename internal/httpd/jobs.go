// Job read endpoints, the same on both tiers: GET /v1/jobs/{id}?cursor=N
// long-polls for results past the cursor, GET /v1/jobs/{id}/stream
// pushes them as NDJSON in strict index order, DELETE /v1/jobs/{id}
// cancels. idemd serves them over jobs its engine runs, the front over
// jobs its mergers feed. See docs/jobs.md.
package httpd

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"idemproc/internal/jobs"
)

// CancelResponse is the DELETE /v1/jobs/{id} body.
type CancelResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// handleJob serves GET (long-poll) and DELETE (cancel).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromRequest(w, r)
	if !ok {
		return
	}
	if r.Method == http.MethodDelete {
		j, _ = s.cfg.Jobs.Cancel(j.ID())
		WriteJSON(w, http.StatusOK, CancelResponse{ID: j.ID(), State: j.State().String()})
		return
	}
	cursor, he := parseCursor(r, j.Units())
	if he != nil {
		WriteError(w, he.Status, he.Msg)
		return
	}
	var wait time.Duration
	if q := r.URL.Query().Get("wait"); q != "" {
		ms, err := strconv.Atoi(q)
		if err != nil || ms < 0 {
			WriteError(w, http.StatusBadRequest, "wait must be a non-negative duration in milliseconds")
			return
		}
		wait = PollMax
		if ms < int(PollMax.Milliseconds()) {
			wait = time.Duration(ms) * time.Millisecond
		}
	}
	rep := j.Poll(r.Context(), cursor, wait)
	if n := len(rep.Results); n > 0 && s.cfg.ObserveChunk != nil {
		s.cfg.ObserveChunk("poll", n)
	}
	WriteJSON(w, http.StatusOK, rep)
}

// handleJobStream serves GET /v1/jobs/{id}/stream, resumable with
// ?cursor=.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromRequest(w, r)
	if !ok {
		return
	}
	cursor, he := parseCursor(r, j.Units())
	if he != nil {
		WriteError(w, he.Status, he.Msg)
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// From here the status is committed; a broken stream is signaled by
	// the connection, and the client resumes with ?cursor=.
	_, _ = j.Stream(r.Context(), cursor, func(chunk [][]byte) error {
		var buf bytes.Buffer
		for _, line := range chunk {
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		if s.cfg.ObserveChunk != nil {
			s.cfg.ObserveChunk("stream", len(chunk))
		}
		return nil
	})
}

// jobFromRequest resolves {id} or writes the canonical 404.
func (s *Server) jobFromRequest(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.cfg.Jobs.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
	}
	return j, ok
}

// parseCursor validates ?cursor=N against [0, units].
func parseCursor(r *http.Request, units int) (int, *Error) {
	q := r.URL.Query().Get("cursor")
	if q == "" {
		return 0, nil
	}
	c, err := strconv.Atoi(q)
	if err != nil || c < 0 || c > units {
		return 0, BadRequest("cursor must be an integer in [0, %d]", units)
	}
	return c, nil
}
