// Async job submission: POST /v1/jobs admits a batch exactly like
// /v1/batch and returns a handle immediately; the skeleton
// (internal/httpd) serves the poll, stream and cancel endpoints over the
// same job table. Units run through runUnit, the executor whose bytes
// /v1/batch joins into its response, so `{"results":[` + join(stream
// lines, ",") + `]}` + "\n" reconstructs the batch response for the same
// body byte for byte. See docs/jobs.md.
package server

import (
	"errors"
	"net/http"

	"idemproc/internal/httpd"
	"idemproc/internal/jobs"
)

// SubmitResponse is the POST /v1/jobs body.
type SubmitResponse struct {
	ID    string `json:"id"`
	Units int    `json:"units"`
	State string `json:"state"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// The raw body is the journal payload: recovery re-derives the units
	// from it.
	body, units, he := s.admitBatch(w, r)
	if he != nil {
		writeHTTPErr(w, he)
		return
	}
	j, err := s.jobs.Submit(body, units)
	if err != nil {
		if errors.Is(err, jobs.ErrTableFull) || errors.Is(err, jobs.ErrClosed) {
			httpd.WriteShed(w, err.Error())
			return
		}
		writeHTTPErr(w, err)
		return
	}
	httpd.WriteJSON(w, http.StatusOK, SubmitResponse{ID: j.ID(), Units: j.Units(), State: j.State().String()})
}
