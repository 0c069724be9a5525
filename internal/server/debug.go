package server

import (
	"net/http"

	"tcsim/internal/obs"
)

// Debug endpoints: the span views of this process. These serve raw
// local state: GET /debug/spans (the Shell's, on both daemons) and
// GET /debug/trace/{id} here. The cross-node collation lives on the
// gateway (GET /v1/trace/{request-id}), which scrapes /debug/spans on
// the nodes.

// handleDebugTrace implements GET /debug/trace/{job-id}: a merged
// Chrome trace for one finished job — the request's service-level spans
// (looked up by the job's trace ID) nested above the job's cycle-level
// timeline when the run captured one. Load the output in
// chrome://tracing or ui.perfetto.dev.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	rid := j.rid
	var tl *obs.Timeline
	if j.ent != nil {
		tl = j.ent.tl
	}
	j.mu.Unlock()
	spans := s.spans.Dump(rid).Spans
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	obs.WriteMergedChromeTrace(w, spans, tl)
}
