package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/obs"
)

// The daemon shell: what tcserved and tcgate do alike around their own
// routes. One front door wraps each daemon's mux, one set of health and
// registry routes is mounted on both, and Serve is both mains' signal
// and drain loop.

// Shell is the part of a daemon that tcserved's Server and tcgate's
// Gateway share: the front door, the routes both answer alike, the span
// ring and the drain bit. Both embed one, so Handler, Spanner and
// BeginDrain are the same methods on each.
type Shell struct {
	spans     *obs.Spanner // the process's span starter and its one span ring
	log       *slog.Logger
	flightDir string                    // a 5xx dumps the span ring here ("" = no dump)
	unready   func() (code, msg string) // the daemon's own reason to refuse new work
	handler   http.Handler

	// draining flips readiness (GET /healthz/ready) to 503 the moment a
	// graceful shutdown begins, before any work stops being accepted, so
	// balancers and the cluster gateway stop routing first. Liveness
	// (GET /healthz) stays green for the whole drain.
	draining atomic.Bool
}

// NewShell mounts the routes both daemons answer alike on mux (GET
// /healthz, /healthz/ready, /v1/passes, /v1/policies and /debug/spans)
// and wraps mux in the front door. spans names the process in its span
// ring and log takes the access lines; neither may be nil. A 5xx dumps
// the ring to flightDir unless it is "". unready, when non-nil, gives
// the daemon's own reason to refuse new work besides draining (tcgate:
// no routable node) as the error code and message readiness answers
// with; a "" code means ready.
func NewShell(mux *http.ServeMux, spans *obs.Spanner, log *slog.Logger, flightDir string, unready func() (code, msg string)) *Shell {
	sh := &Shell{spans: spans, log: log, flightDir: flightDir, unready: unready}
	mux.HandleFunc("GET /healthz", handleHealth)
	mux.HandleFunc("GET /healthz/ready", sh.handleReady)
	mux.HandleFunc("GET /v1/passes", handlePasses)
	mux.HandleFunc("GET /v1/policies", handlePolicies)
	mux.HandleFunc("GET /debug/spans", sh.handleSpans)
	sh.handler = sh.frontDoor(mux)
	return sh
}

// Handler returns the HTTP handler to serve: the daemon's routes behind
// the front door.
func (sh *Shell) Handler() http.Handler { return sh.handler }

// Spanner exposes the daemon's span starter and ring (SIGQUIT dumps).
func (sh *Shell) Spanner() *obs.Spanner { return sh.spans }

// BeginDrain flips readiness to 503 without refusing any work: requests
// in flight and new ones are still served. Serve calls it before the
// listener closes, so the gateway and any balancer stop routing here
// while the daemon still serves fully. Idempotent.
func (sh *Shell) BeginDrain() { sh.draining.Store(true) }

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// frontDoor wraps next in what both daemons do for every request. It
// adopts the caller's X-Request-ID through obs.SanitizeID, or mints one,
// and echoes it on the response. A /v1/ request gets a "<method> <path>"
// span whose trace is the request ID and whose parent is the
// X-Trace-Parent span, so a handler reads the request ID as
// obs.SpanFrom(ctx).TraceID(). After the handler the span finishes (a
// handler may have finished it first), one access line is logged, and a
// 5xx dumps the span ring to the flight directory, if there is one.
func (sh *Shell) frontDoor(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.SanitizeID(r.Header.Get(obs.RequestIDHeader))
		if id == "" {
			id = obs.NewSpanID()
		}
		w.Header().Set(obs.RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		req := r
		var sp *obs.ActiveSpan
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			var ctx context.Context
			parent := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
			ctx, sp = sh.spans.StartRemote(r.Context(), id, parent, r.Method+" "+r.URL.Path)
			req = r.WithContext(ctx)
		}
		next.ServeHTTP(sw, req)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		sp.SetAttr("status", strconv.Itoa(sw.status))
		if sw.status >= 500 {
			sp.SetError(errors.New(http.StatusText(sw.status)))
		}
		sp.Finish()
		// Room for span_id up front: growing the slice would allocate.
		attrs := append(make([]slog.Attr, 0, 6),
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", time.Since(t0).Round(time.Microsecond)),
		)
		if sid := sp.ID(); sid != "" {
			attrs = append(attrs, slog.String("span_id", sid))
		}
		sh.log.LogAttrs(r.Context(), logLevelFor(sw.status), "request", attrs...)
		if sw.status >= 500 && sh.flightDir != "" {
			// A fixed name: a 5xx storm keeps the latest context without
			// growing the directory.
			writeDump(sh.spans, sh.log, sh.flightDir, "last5xx", "5xx")
		}
	})
}

// logLevelFor maps a response status onto a log level: server errors
// are errors, client errors (incl. backpressure 429s) warnings.
func logLevelFor(status int) slog.Level {
	switch {
	case status >= 500:
		return slog.LevelError
	case status >= 400:
		return slog.LevelWarn
	}
	return slog.LevelInfo
}

// writeDump writes sp's whole ring to dir as flight-<service>-<tag>.json
// and logs the outcome.
func writeDump(sp *obs.Spanner, log *slog.Logger, dir, tag, trigger string) {
	if path, err := sp.WriteDump(dir, tag); err != nil {
		log.Error("flight dump failed", "trigger", trigger, "error", err.Error())
	} else {
		log.Info("flight dump written", "path", path, "trigger", trigger)
	}
}

// handleHealth serves GET /healthz, liveness: 200 for as long as the
// process serves HTTP, a drain included. A draining daemon is alive,
// just not ready.
func handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady serves GET /healthz/ready, readiness: 503 draining from
// BeginDrain on, while work is still served, so routing stops strictly
// before work does; else 503 for the daemon's own reason, if it has one;
// else 200.
func (sh *Shell) handleReady(w http.ResponseWriter, r *http.Request) {
	code, msg := "", ""
	switch {
	case sh.draining.Load():
		code, msg = "draining", "draining: route no new work here"
	case sh.unready != nil:
		code, msg = sh.unready()
	}
	if code != "" {
		WriteError(w, http.StatusServiceUnavailable, code, msg, 2)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handlePasses serves GET /v1/passes from the pass registry, the one
// ResolveConfig checks a job's pass spec against on either daemon.
func handlePasses(w http.ResponseWriter, r *http.Request) {
	var out []client.Pass
	for _, p := range tcsim.Passes() {
		out = append(out, client.Pass{Name: p.Name, Desc: p.Desc, Default: p.Default})
	}
	WriteJSON(w, http.StatusOK, out)
}

// handlePolicies serves GET /v1/policies from the replacement-policy
// registry, mirroring /v1/passes.
func handlePolicies(w http.ResponseWriter, r *http.Request) {
	var out []client.Policy
	for _, p := range tcsim.Policies() {
		out = append(out, client.Policy{Name: p.Name, Desc: p.Desc, Default: p.Default, Oracle: p.Oracle})
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleSpans serves GET /debug/spans: the span ring as an
// obs.SpanDump, filtered to one trace with ?trace=<request-id>. It is
// also the shape the gateway's trace collation scrapes from each node.
func (sh *Shell) handleSpans(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, sh.spans.Dump(obs.SanitizeID(r.URL.Query().Get("trace"))))
}

// Daemon is what Serve runs: tcserved's Server or tcgate's Gateway.
type Daemon interface {
	Spanner() *obs.Spanner
	BeginDrain()
	Shutdown(ctx context.Context) error
}

// Serve is both daemons' main loop. It serves h on ln until stop ends,
// and dumps d's span ring to flightDir ("" = the working directory) on
// each SIGQUIT without stopping. Then it drains, all within drain:
// d.BeginDrain flips readiness while the listener still answers, so
// routing stops before work does; http.Server.Shutdown closes the
// listener and waits for the requests in flight; d.Shutdown then
// finishes what they left running (tcserved's async jobs, tcgate's
// probe loop). It returns 0 after a clean drain and 1 if serving or any
// drain step failed.
func Serve(stop context.Context, ln net.Listener, h http.Handler, d Daemon, drain time.Duration, flightDir string, log *slog.Logger) int {
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	done := make(chan struct{})
	defer func() {
		signal.Stop(quit)
		close(done)
	}()
	go func() {
		for {
			select {
			case <-quit:
				writeDump(d.Spanner(), log, flightDir, strconv.FormatInt(time.Now().UnixNano(), 10), "SIGQUIT")
			case <-done:
				return
			}
		}
	}()

	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		log.Error("serve failed", "error", err.Error())
		return 1
	case <-stop.Done():
	}

	d.BeginDrain()
	log.Info("draining", "deadline", drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	code := 0
	if err := hs.Shutdown(ctx); err != nil {
		log.Error("http shutdown", "error", err.Error())
		code = 1
	}
	if err := d.Shutdown(ctx); err != nil {
		log.Error("drain failed", "error", err.Error())
		code = 1
	}
	if code == 0 {
		log.Info("drained")
	}
	return code
}
