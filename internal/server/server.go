package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/obs"
	"tcsim/internal/tracestore"
)

// Config assembles a Server.
type Config struct {
	Engine EngineConfig
	// JobTTL is how long a finished job stays pollable (0 = 10m). A node
	// keeps at most 4096 finished jobs, and none for a sync cache hit.
	JobTTL time.Duration
	// MaxBodyBytes caps request bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// Logger receives the daemon's structured log: one access line per
	// request plus job lifecycle events (accepted, cache hit, started,
	// completed, failed, rejected), each carrying the request ID the
	// response echoed in X-Request-ID. Nil discards everything.
	Logger *slog.Logger
	// Service names this process in spans and span dumps ("" =
	// "tcserved"). Nodes booted in process behind a gateway set their
	// node name here so a collated span tree shows which node served
	// each attempt.
	Service string
	// FlightDir, when set, enables automatic span-ring dumps: a 5xx
	// response overwrites flight-<service>-last5xx.json there. SIGQUIT
	// dumps (wired in cmd/tcserved) land there too.
	FlightDir string
}

// Server is the tcserved HTTP front end: job lifecycle, pass registry,
// health, and metrics. Create with New, mount via Handler,
// stop with Shutdown.
type Server struct {
	cfg     Config
	engine  *Engine
	jobs    *jobStore
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware
	log     *slog.Logger
	spans   *obs.Spanner // the process's span starter and its one span ring

	// baseCtx parents async job execution so Shutdown can cancel what
	// the drain deadline abandons.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// draining flips readiness (GET /healthz/ready) to 503 the moment a
	// graceful shutdown begins — before any work stops being accepted —
	// so balancers and the cluster gateway stop routing first. Liveness
	// (GET /healthz) stays green for the whole drain.
	draining atomic.Bool
}

// New builds a server.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	service := cfg.Service
	if service == "" {
		service = "tcserved"
	}
	s := &Server{
		cfg:        cfg,
		engine:     NewEngine(cfg.Engine),
		jobs:       newJobStore(cfg.JobTTL),
		log:        log,
		spans:      obs.NewSpanner(service, obs.NewSpanRing(0)),
		baseCtx:    ctx,
		cancelBase: cancel,
	}
	s.engine.spans = s.spans
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/passes", s.handlePasses)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /v1/traces/{sha}", s.handleTrace) // also serves HEAD
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /debug/spans", DebugSpans(s.spans))
	mux.HandleFunc("GET /debug/trace/{id}", s.handleDebugTrace)
	s.mux = mux
	s.handler = s.withObs(mux)
	return s
}

// Handler returns the HTTP handler to serve: the route mux wrapped in
// the request-ID / access-log middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Spanner exposes the server's span starter and ring (SIGQUIT dumps).
func (s *Server) Spanner() *obs.Spanner { return s.spans }

// dumpFlightOn5xx preserves the span ring after a server error. It
// overwrites a fixed file name so a 5xx storm keeps the latest context
// without growing the directory; no FlightDir means no dump.
func (s *Server) dumpFlightOn5xx() {
	if s.cfg.FlightDir == "" {
		return
	}
	if path, err := s.spans.WriteDump(s.cfg.FlightDir, "last5xx"); err != nil {
		s.log.Warn("flight dump failed", "error", err.Error())
	} else {
		s.log.Info("flight dump written", "path", path, "trigger", "5xx")
	}
}

// BeginDrain flips readiness to 503 without refusing any work: jobs
// already in flight and new submissions both still run. Call it first
// on SIGTERM — before http.Server.Shutdown — so the gateway and any LB
// stop routing to this node while it is still fully serving; then close
// the listener and call Shutdown. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown drains the server: no new work is admitted, and every
// admitted job (sync and async) finishes, or is cancelled once ctx
// expires. Call http.Server.Shutdown first so no requests arrive
// concurrently; async jobs survive their submitting request, which is
// why the engine drain is separate.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	err := s.engine.Drain(ctx)
	if err != nil {
		// Deadline hit with jobs still running: cancel them so their
		// goroutines exit promptly rather than leaking.
		s.cancelBase()
	}
	return err
}

// --- responses ---

// WriteJSON writes v as a compact JSON response: tcserved's and tcgate's
// writer for every body but a job's (writeJob). An encoding error cannot
// change the status already sent, so it is dropped; the client sees a
// truncated body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJob writes every job response: the envelope's other members as
// encoding/json marshals them, then the stored result as the last
// member, written as it is. The bytes are what WriteJSON would write for
// env, but the result is neither scanned nor copied. The body carries
// its Content-Length, so a reader can size its buffer once.
func writeJob(w http.ResponseWriter, status int, env JobEnvelope) {
	result := env.Result
	env.Result = nil
	head, err := json.Marshal(&env)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "internal", "encode job: "+err.Error(), 0)
		return
	}
	head = head[:len(head)-1] // reopen the object
	sep := resultMember
	if len(result) == 0 {
		sep = nil
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(sep)+len(result)+len(jobEnd)))
	w.WriteHeader(status)
	w.Write(head)
	w.Write(sep)
	w.Write(result)
	w.Write(jobEnd)
}

// resultMember and jobEnd are the fixed bytes writeJob puts around a
// stored result; jobEnd ends with the newline json.Encoder writes.
var resultMember, jobEnd = []byte(`,"result":`), []byte("}\n")

// WriteError writes the wire's error body: tcserved's and tcgate's one
// error writer. retryAfterSecs > 0 also sets the Retry-After header.
func WriteError(w http.ResponseWriter, status int, code, msg string, retryAfterSecs int) {
	if retryAfterSecs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	}
	WriteJSON(w, status, client.ErrorBody{Error: client.APIError{
		Code: code, Message: msg, RetryAfterSecs: retryAfterSecs}})
}

// writeRunError maps an engine/run error onto the wire.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var br *badRequest
	switch {
	case errors.As(err, &br):
		WriteError(w, http.StatusBadRequest, "invalid_argument", br.msg, 0)
	case errors.Is(err, ErrQueueFull):
		WriteError(w, http.StatusTooManyRequests, "queue_full",
			"all workers busy and the wait queue is full", int(s.engine.RetryAfter()/time.Second))
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, "draining",
			"server is shutting down", 2)
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, "timeout", err.Error(), 0)
	case isCancel(err):
		// Client went away; the status is moot but keep the map total.
		WriteError(w, 499, "canceled", err.Error(), 0)
	default:
		WriteError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
	}
}

// DecodeBody decodes r's JSON body, of at most maxBytes, into v, and
// rejects unknown fields: both daemons' one body decoder. On failure it
// answers 400 and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid_argument",
			"malformed request body: "+err.Error(), 0)
		return false
	}
	return true
}

// --- handlers ---

// handleSubmit implements POST /v1/jobs. Sync by default; ?async=1
// returns 202 with a pollable job. Both paths admit before running, so
// a saturated daemon rejects with 429 at submission time and async
// submissions can never grow an unbounded backlog.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rid := requestID(r.Context())
	var req client.JobRequest
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	serve := obs.SpanFrom(r.Context())
	rj, err := resolveSpec(&req, s.engine.Limits())
	if err != nil {
		s.log.Warn("job rejected", "trace_id", rid, "request_id", rid,
			"span_id", serve.ID(), "error", err.Error())
		serve.SetError(err)
		s.writeRunError(w, err)
		return
	}
	key := rj.key
	s.engine.met.accepted.Add(1)
	async := r.URL.Query().Get("async") == "1"

	// Cache hits are free: serve them without consuming admission, so a
	// full queue never rejects an already-computed answer. Only an async
	// caller comes back for the record; a sync caller holds the answer,
	// so a sync hit keeps none.
	if ent, ok := s.engine.cached(r.Context(), key); ok {
		s.engine.met.completed.Add(1)
		j := newJob(key, rid)
		j.finish(ent, true, nil, 0)
		s.log.Info("job cache hit", "trace_id", rid, "request_id", rid,
			"span_id", serve.ID(), "job_id", j.id,
			"key", key, "workload", rj.workload)
		status := http.StatusOK
		if async {
			s.jobs.keep(j)
			status = http.StatusAccepted
		}
		writeJob(w, status, j.wire())
		return
	}

	release, err := s.engine.Admit()
	if err != nil {
		s.log.Warn("job rejected", "trace_id", rid, "request_id", rid,
			"span_id", serve.ID(), "key", key, "error", err.Error())
		serve.SetError(err)
		s.writeRunError(w, err)
		return
	}

	j := s.jobs.create(key, rid)
	s.log.Info("job accepted", "trace_id", rid, "request_id", rid,
		"span_id", serve.ID(), "job_id", j.id,
		"key", key, "workload", rj.workload, "insts", rj.cfg.MaxInsts, "async", async)
	serve.SetAttr("job", j.id)
	serve.SetAttr("key", key)
	if async {
		// Detach the request's span identity onto the server's base
		// context: the job's spans still parent under the submitting
		// request, but its cancellation is the server's, not the
		// already-answered request's.
		ctx := obs.Detach(s.baseCtx, r.Context())
		go func() {
			defer release()
			s.runJob(ctx, rid, j, rj)
		}()
		writeJob(w, http.StatusAccepted, j.wire())
		return
	}
	defer release()
	if err := s.runJob(r.Context(), rid, j, rj); err != nil {
		s.writeRunError(w, err)
		return
	}
	writeJob(w, http.StatusOK, j.wire())
}

// runJob drives one admitted job through the engine and records the
// outcome on the job record. rid is the submitting request's ID, kept
// explicitly because async jobs outlive their request context.
func (s *Server) runJob(ctx context.Context, rid string, j *job, rj resolved) error {
	j.setRunning()
	// Async jobs run on a detached context: no active span, only the
	// submitting request's remote span identity. Log under that parent so
	// the lifecycle lines still name a span in the trace.
	sid := obs.SpanFrom(ctx).ID()
	if sid == "" {
		if rc, ok := obs.RemoteFrom(ctx); ok {
			sid = rc.SpanID
		}
	}
	s.log.Info("job started", "trace_id", rid, "request_id", rid, "span_id", sid,
		"job_id", j.id, "key", j.key)
	t0 := time.Now()
	ent, cached, err := s.engine.Run(ctx, rj)
	wall := time.Since(t0)
	j.finish(ent, cached, err, wall)
	s.jobs.keep(j)
	if err != nil {
		s.engine.met.failed.Add(1)
		s.log.Error("job failed", "trace_id", rid, "request_id", rid, "span_id", sid,
			"job_id", j.id, "key", j.key, "wall", wall.Round(time.Microsecond), "error", err.Error())
		return err
	}
	s.engine.met.completed.Add(1)
	s.log.Info("job completed", "trace_id", rid, "request_id", rid, "span_id", sid,
		"job_id", j.id, "key", j.key,
		"cached", cached, "wall", wall.Round(time.Microsecond), "ipc", ent.res.IPC)
	return nil
}

// handleGetJob implements GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeJob(w, http.StatusOK, j.wire())
	}
}

// lookupJob returns the record of the job r's path names, or answers
// 404 and returns false.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no job %q: unknown, "+
			"finished more than %v ago or pushed out by %d newer ones, "+
			"or a synchronous cache hit, which keeps no record", id, s.jobs.ttl, maxFinishedJobs), 0)
	}
	return j, ok
}

// handlePasses implements GET /v1/passes from the pass registry.
func (s *Server) handlePasses(w http.ResponseWriter, r *http.Request) {
	var out []client.Pass
	for _, p := range tcsim.Passes() {
		out = append(out, client.Pass{Name: p.Name, Desc: p.Desc, Default: p.Default})
	}
	WriteJSON(w, http.StatusOK, out)
}

// handlePolicies implements GET /v1/policies from the replacement-policy
// registry, mirroring /v1/passes.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	var out []client.Policy
	for _, p := range tcsim.Policies() {
		out = append(out, client.Policy{Name: p.Name, Desc: p.Desc, Default: p.Default, Oracle: p.Oracle})
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleHealth implements GET /healthz — liveness. It answers 200 for
// as long as the process serves HTTP, including during a graceful
// drain: a draining node is alive, just not ready.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady implements GET /healthz/ready — readiness. It flips to
// 503 the moment BeginDrain is called, while submissions still succeed,
// so routing stops strictly before work does.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "draining",
			"server is draining and should receive no new work", 2)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// ContentTypeTrace is the media type of serialized trace bodies served
// by GET /v1/traces/{sha} — the PR 5 versioned on-disk format (magic
// "TCTR", version, uvarint header, varint columns, CRC-32 trailer).
const ContentTypeTrace = "application/x-tctrace"

// handleTrace implements GET and HEAD /v1/traces/{program-sha256}: the
// trace CDN. The path component is the hex sha256 of the built program
// image (content-addressed: a recompiled workload gets a new address),
// and the required budget query parameter selects the retirement bound
// the stream was captured under. The body is re-validated before a
// single byte leaves this node; a corrupt on-disk file is an error, not
// a response. HEAD answers availability without counting a serve.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sha := r.PathValue("sha")
	name, ok := tracestore.WorkloadByHash(sha)
	if !ok {
		WriteError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no bundled workload builds a program with hash %q", sha), 0)
		return
	}
	budget, err := strconv.ParseUint(r.URL.Query().Get("budget"), 10, 64)
	if err != nil || budget == 0 {
		WriteError(w, http.StatusBadRequest, "invalid_argument",
			"budget query parameter must be a positive integer", 0)
		return
	}
	raw, err := s.traceStore().ExportBytes(name, budget, r.Method != http.MethodHead)
	switch {
	case errors.Is(err, tracestore.ErrUnavailable):
		WriteError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("trace for %s@%d is not resident on this node", name, budget), 0)
		return
	case err != nil:
		// A persisted trace failed validation: refuse to serve it and say
		// so loudly — the peer will capture live instead.
		s.log.Warn("trace export rejected", "request_id", requestID(r.Context()),
			"workload", name, "budget", budget, "error", err.Error())
		WriteError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", ContentTypeTrace)
	w.Header().Set("X-Trace-Workload", name)
	w.Header().Set("X-Trace-Budget", strconv.FormatUint(budget, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Write(raw)
}

// traceStore returns the store this server's jobs and trace CDN run
// against: the engine's own when configured, else the process-wide one.
func (s *Server) traceStore() *tcsim.TraceStore {
	if st := s.engine.Store(); st != nil {
		return st
	}
	return tracestore.Shared()
}
