package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyServer fails the first fail requests with status/code (a JSON
// APIError body plus optional Retry-After header), then serves a queued
// job. Returns the client and a request counter.
func flakyServer(t *testing.T, fail int, status int, code string, retryAfterSecs int) (*Client, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= int64(fail) {
			if retryAfterSecs > 0 {
				w.Header().Set("Retry-After", "1")
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(ErrorBody{Error: APIError{Code: code, Message: "induced failure", RetryAfterSecs: retryAfterSecs}})
			return
		}
		json.NewEncoder(w).Encode(Job{ID: "j1", State: StateDone, Key: "k"})
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL), &n
}

// fastRetry is a test policy with tiny real sleeps and no jitter.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// TestRetrySucceedsAfter429: two queue_full rejections, then success —
// the caller sees only the success, and the server saw three requests.
func TestRetrySucceedsAfter429(t *testing.T) {
	cl, n := flakyServer(t, 2, http.StatusTooManyRequests, "queue_full", 0)
	cl.WithRetry(fastRetry(4))
	job, err := cl.SubmitJob(context.Background(), &JobRequest{Workload: "vector_sum"})
	if err != nil {
		t.Fatalf("SubmitJob after retries: %v", err)
	}
	if job.State != StateDone {
		t.Errorf("job state = %q, want done", job.State)
	}
	if got := n.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
}

// TestRetryBudgetExhausted: a server that never recovers; the final
// queue_full error surfaces after exactly MaxAttempts requests.
func TestRetryBudgetExhausted(t *testing.T) {
	cl, n := flakyServer(t, 1000, http.StatusTooManyRequests, "queue_full", 0)
	cl.WithRetry(fastRetry(3))
	_, err := cl.SubmitJob(context.Background(), &JobRequest{Workload: "vector_sum"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "queue_full" {
		t.Fatalf("err = %v, want queue_full APIError", err)
	}
	if got := n.Load(); got != 3 {
		t.Errorf("server saw %d requests, want MaxAttempts=3", got)
	}
}

// TestNoRetryByDefault: the zero policy preserves one-shot behavior — a
// 429 surfaces straight to the caller.
func TestNoRetryByDefault(t *testing.T) {
	cl, n := flakyServer(t, 1000, http.StatusTooManyRequests, "queue_full", 0)
	_, err := cl.SubmitJob(context.Background(), &JobRequest{Workload: "vector_sum"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429 APIError", err)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (no retries without a policy)", got)
	}
}

// TestNoRetryOnTerminalError: 4xx validation errors are not transient;
// one attempt, straight surface.
func TestNoRetryOnTerminalError(t *testing.T) {
	cl, n := flakyServer(t, 1000, http.StatusBadRequest, "invalid_argument", 0)
	cl.WithRetry(fastRetry(4))
	_, err := cl.SubmitJob(context.Background(), &JobRequest{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "invalid_argument" {
		t.Fatalf("err = %v, want invalid_argument APIError", err)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (invalid_argument is terminal)", got)
	}
}

// TestJobTimeoutIsTerminal: a 504 with code "timeout" is the job's own
// timeout and surfaces after one attempt; a 504 with any other code (an
// unstructured proxy timeout reads "http_error") is still retried.
func TestJobTimeoutIsTerminal(t *testing.T) {
	cl, n := flakyServer(t, 1000, http.StatusGatewayTimeout, "timeout", 0)
	cl.WithRetry(fastRetry(4))
	_, err := cl.SubmitJob(context.Background(), &JobRequest{Workload: "vector_sum"})
	var ae *APIError
	if !errors.As(err, &ae) || !ae.JobTimeout() {
		t.Fatalf("err = %v, want the 504 timeout APIError", err)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (a job timeout is terminal)", got)
	}

	cl, n = flakyServer(t, 2, http.StatusGatewayTimeout, "http_error", 0)
	cl.WithRetry(fastRetry(4))
	if _, err := cl.SubmitJob(context.Background(), &JobRequest{Workload: "vector_sum"}); err != nil {
		t.Fatalf("SubmitJob after two other 504s: %v", err)
	}
	if got := n.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (other 504s are retried)", got)
	}
}

// TestRetryHonorsRetryAfterClamped: the server suggests a 1s backoff but
// MaxDelay clamps it, so three attempts complete far sooner than the two
// suggested seconds. OnRetry observes the clamped delays.
func TestRetryHonorsRetryAfterClamped(t *testing.T) {
	cl, _ := flakyServer(t, 2, http.StatusServiceUnavailable, "draining", 1)
	var delays []time.Duration
	p := fastRetry(4)
	p.MaxDelay = 10 * time.Millisecond
	p.OnRetry = func(_ int, _ error, d time.Duration) { delays = append(delays, d) }
	cl.WithRetry(p)
	start := time.Now()
	if _, err := cl.SubmitJob(context.Background(), &JobRequest{Workload: "vector_sum"}); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("retries took %v; MaxDelay should clamp the 1s Retry-After", elapsed)
	}
	if len(delays) != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", len(delays))
	}
	for i, d := range delays {
		if d > 10*time.Millisecond {
			t.Errorf("delay %d = %v, want <= MaxDelay (10ms)", i, d)
		}
	}
}

// TestRetryContextCancelled: a context cancelled during backoff stops
// the loop and surfaces the last real failure, not a retry storm.
func TestRetryContextCancelled(t *testing.T) {
	cl, n := flakyServer(t, 1000, http.StatusTooManyRequests, "queue_full", 0)
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}
	cl.WithRetry(p)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, err := cl.SubmitJob(ctx, &JobRequest{Workload: "vector_sum"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want the last APIError after cancellation", err)
	}
	if got := n.Load(); got > 3 {
		t.Errorf("server saw %d requests after early cancel, want few", got)
	}
}

// TestRetryTransportError: a connection-refused transport error is
// retryable; the client survives a dead-then-alive server only via its
// attempt budget (here the server stays dead, so the error surfaces
// after the budget).
func TestRetryTransportError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // dead on arrival
	cl := New(srv.URL).WithRetry(fastRetry(3))
	var tries int
	cl.retry.OnRetry = func(attempt int, err error, _ time.Duration) { tries = attempt }
	err := cl.Health(context.Background())
	if err == nil {
		t.Fatal("Health against a closed server succeeded")
	}
	if tries != 2 {
		t.Errorf("observed %d retries, want 2 (3 attempts)", tries)
	}
	if Retryable(err) != true {
		t.Errorf("transport error not classified retryable: %v", err)
	}
}

// TestBackoffGrowsAndClamps: deterministic jitter seam — backoff doubles
// from BaseDelay and clamps at MaxDelay.
func TestBackoffGrowsAndClamps(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond}
	errTransient := errors.New("transient")
	want := []time.Duration{10, 20, 35, 35} // ms, attempts 1..4
	for i, w := range want {
		if got := p.backoff(i+1, errTransient); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	// Jitter pulls downward only: with rnd=1 the sleep is d*(1-Jitter).
	p.Jitter = 0.5
	p.rnd = func() float64 { return 1 }
	if got := p.backoff(1, errTransient); got != 5*time.Millisecond {
		t.Errorf("jittered backoff = %v, want 5ms", got)
	}
	// A Retry-After hint larger than the schedule wins, within MaxDelay.
	p.Jitter = 0
	hint := &APIError{Status: 429, Code: "queue_full", RetryAfterSecs: 1}
	if got := p.backoff(1, hint); got != 35*time.Millisecond {
		t.Errorf("hinted backoff = %v, want clamp at 35ms", got)
	}
}
