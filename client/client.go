package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"tcsim/internal/obs"
)

// Context keys of the IDs a caller pins.
type (
	requestIDKey  struct{}
	spanParentKey struct{}
)

// WithRequestID returns a context that makes every client call carry id
// as its X-Request-ID, correlating the exchange with the daemon's
// structured log. Without it a call sends the trace ID of the context's
// active span (obs.SpanFrom), and with neither a fresh random ID. The
// ID the exchange actually used is surfaced on APIError when a call
// fails.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// WithSpanParent returns a context that makes every client call carry
// an X-Trace-Parent header naming spanID as the caller's span, so the
// daemon's spans nest under it in a collated trace. Without it a call
// names the context's active span, if any. The trace half of the header
// is the request ID, so this composes with WithRequestID. An empty
// spanID returns ctx unchanged.
func WithSpanParent(ctx context.Context, spanID string) context.Context {
	if spanID == "" {
		return ctx
	}
	return context.WithValue(ctx, spanParentKey{}, spanID)
}

// traceIDs returns the request ID and the parent span ID ("" for none)
// a call under ctx sends: the pinned ones first, else the context's
// active span, else a fresh request ID and no parent.
func traceIDs(ctx context.Context) (rid, parent string) {
	sp := obs.SpanFrom(ctx)
	if rid, _ = ctx.Value(requestIDKey{}).(string); rid == "" {
		if rid = sp.TraceID(); rid == "" {
			rid = obs.NewSpanID()
		}
	}
	if parent, _ = ctx.Value(spanParentKey{}).(string); parent == "" {
		parent = sp.ID()
	}
	return rid, parent
}

// Client talks to a tcserved daemon — or to a tcgate cluster gateway,
// which speaks the identical wire schema.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8080"). A trailing slash is trimmed.
func New(base string) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, http: &http.Client{}}
}

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles) and returns the receiver for chaining.
func (c *Client) WithHTTPClient(h *http.Client) *Client {
	c.http = h
	return c
}

// Base returns the daemon base URL the client talks to.
func (c *Client) Base() string { return c.base }

// SubmitJob runs one job synchronously: the call blocks until the
// simulation finishes and returns the terminal Job. A full queue
// surfaces as an *APIError with Code "queue_full"; inspect RetryAfter
// for the suggested backoff.
func (c *Client) SubmitJob(ctx context.Context, req *JobRequest) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// SubmitJobAsync enqueues a job and returns immediately with its ID;
// poll with GetJob or WaitJob.
func (c *Client) SubmitJobAsync(ctx context.Context, req *JobRequest) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs?async=1", req, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// GetJob fetches a job's current state.
func (c *Client) GetJob(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// WaitJob polls a job until it reaches a terminal state or ctx expires.
// poll <= 0 selects a 20ms interval.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*Job, error) {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		job, err := c.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.Done() {
			return job, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return job, ctx.Err()
		}
	}
}

// Passes lists the registered fill-unit optimization passes.
func (c *Client) Passes(ctx context.Context) ([]Pass, error) {
	var ps []Pass
	if err := c.do(ctx, http.MethodGet, "/v1/passes", nil, &ps); err != nil {
		return nil, err
	}
	return ps, nil
}

// Policies lists the registered cache replacement policies.
func (c *Client) Policies(ctx context.Context) ([]Policy, error) {
	var ps []Policy
	if err := c.do(ctx, http.MethodGet, "/v1/policies", nil, &ps); err != nil {
		return nil, err
	}
	return ps, nil
}

// Metrics scrapes GET /metrics — a daemon's or a gateway's Prometheus
// text exposition — and returns every sample keyed by "name{labels}"
// (labels in exposition order), e.g.
// `tcserved_cache_requests_total{result="hit"}`. The body must parse as
// a valid exposition.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	raw, err := c.Raw(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(raw)
}

// Raw issues one exchange as the typed calls do, with in (unless nil)
// as the JSON request body and the same retries, request-ID and
// trace-parent headers and *APIError mapping, and returns the 2xx
// response body unparsed. The cluster gateway relays job responses
// through it without parsing them.
func (c *Client) Raw(ctx context.Context, method, path string, in any) ([]byte, error) {
	var raw []byte
	if err := c.do(ctx, method, path, in, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Health checks /healthz (liveness); nil means the process is up. A
// draining daemon is still live — use Ready to ask whether it should
// receive new work.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Ready checks /healthz/ready (readiness); nil means the daemon accepts
// new work. During graceful drain readiness flips to 503 ("draining")
// while in-flight jobs finish, so balancers and the cluster gateway stop
// routing before the listener closes.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz/ready", nil, nil)
}

// Cluster fetches a gateway's per-node view (GET /v1/cluster). Against a
// plain single-node daemon it returns a not_found *APIError.
func (c *Client) Cluster(ctx context.Context) (*ClusterStatus, error) {
	var cs ClusterStatus
	if err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &cs); err != nil {
		return nil, err
	}
	return &cs, nil
}

// do issues one JSON exchange, retrying per the client's RetryPolicy:
// transient failures (transport errors, 429/502/503, a 504 other than a
// job timeout; see Retryable) back off with jittered exponential delays
// honoring Retry-After, until the policy's attempt budget or the
// context runs out. The zero policy means exactly one attempt.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		err := c.doOnce(ctx, method, path, in, out)
		if err == nil || attempt >= attempts || !Retryable(err) {
			return err
		}
		d := c.retry.backoff(attempt, err)
		if c.retry.OnRetry != nil {
			c.retry.OnRetry(attempt, err, d)
		}
		if sleepCtx(ctx, d) != nil {
			// Context died mid-backoff; the last real failure is the story.
			return err
		}
	}
}

// doOnce issues one JSON request and decodes either the 2xx body into
// out (a *[]byte takes it raw) or the error body into an *APIError.
func (c *Client) doOnce(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rid, parent := traceIDs(ctx)
	req.Header.Set(obs.RequestIDHeader, rid)
	if parent != "" {
		req.Header.Set(obs.TraceParentHeader, obs.TraceParent(rid, parent))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	if resp.StatusCode/100 != 2 {
		// Prefer the daemon's echoed ID (it may have replaced ours).
		rid := resp.Header.Get(obs.RequestIDHeader)
		var eb ErrorBody
		if derr := json.NewDecoder(resp.Body).Decode(&eb); derr != nil || eb.Error.Code == "" {
			return &APIError{Status: resp.StatusCode, RequestID: rid, Code: "http_error",
				Message: fmt.Sprintf("%s %s: %s", method, path, resp.Status)}
		}
		eb.Error.Status = resp.StatusCode
		eb.Error.RequestID = rid
		if eb.Error.RetryAfterSecs == 0 {
			if s, _ := strconv.Atoi(resp.Header.Get("Retry-After")); s > 0 {
				eb.Error.RetryAfterSecs = s
			}
		}
		return &eb.Error
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = readBody(resp)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// maxSizedRead bounds the buffer readBody sizes from a Content-Length
// header alone; a larger claimed body is read as it arrives.
const maxSizedRead = 16 << 20

// readBody reads a whole response body. When the response declares its
// length, the body is read into one buffer of exactly that size: one
// copy, where io.ReadAll's doubling can allocate about twice the body.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n <= maxSizedRead {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	return io.ReadAll(resp.Body)
}
