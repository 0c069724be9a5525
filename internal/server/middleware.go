package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tcsim/internal/obs"
)

// reqIDHeader is the request-correlation header. Clients may supply it;
// the daemon generates one otherwise, and every response echoes it so a
// failure report can be matched to the daemon's log lines.
const reqIDHeader = "X-Request-ID"

type ctxKey int

const reqIDKey ctxKey = iota

// requestID extracts the request ID the middleware attached to ctx
// ("" outside a request served through withObs).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey).(string)
	return id
}

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

// withObs is the observability middleware: it assigns (or sanitizes and
// adopts) the request ID, echoes it on the response, attaches it to the
// request context for handler and job-lifecycle log lines, opens a
// serve span for API requests (parented under the caller's span when
// X-Trace-Parent names one — the trace ID is the request ID), and
// writes one structured access-log line per request. A 5xx, when the
// server has a flight directory, dumps the span ring (the failing
// request's serve span included) so the context is preserved.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The request ID is the trace ID: obs's ID rules accept or mint it.
		id := obs.SanitizeID(r.Header.Get(reqIDHeader))
		if id == "" {
			id = obs.NewSpanID()
		}
		w.Header().Set(reqIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		ctx := context.WithValue(r.Context(), reqIDKey, id)
		var sp *obs.Span
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			parent := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
			ctx, sp = s.spans.StartRemote(ctx, id, parent, r.Method+" "+r.URL.Path)
		}
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		sp.SetAttr("status", strconv.Itoa(sw.status))
		if sw.status >= 500 {
			sp.SetError(errors.New(http.StatusText(sw.status)))
		}
		sp.Finish()
		attrs := []slog.Attr{
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", time.Since(t0).Round(time.Microsecond)),
		}
		if sid := sp.ID(); sid != "" {
			attrs = append(attrs, slog.String("span_id", sid))
		}
		s.log.LogAttrs(r.Context(), logLevelFor(sw.status), "request", attrs...)
		if sw.status >= 500 {
			s.dumpFlightOn5xx()
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
