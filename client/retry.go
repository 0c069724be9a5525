package client

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"time"
)

// RetryPolicy makes a Client retry transient failures — transport
// errors, 429 queue_full, 503 draining, 502 (a gateway with no node to
// serve) and a 504 other than a job's own timeout — with exponential
// backoff, full jitter, and `Retry-After` honoring. Job submissions,
// and so every cell of a Sweep, are idempotent by canonical config key
// (a retried POST lands on the result cache or joins the in-flight
// run), so replaying them is always safe.
//
// The zero policy disables retries (one attempt), preserving the
// classic "a 429 surfaces straight to the caller" behavior; opt in with
// Client.WithRetry(DefaultRetryPolicy()).
type RetryPolicy struct {
	// MaxAttempts bounds total attempts including the first (<= 1 means
	// no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt n sleeps
	// ~BaseDelay * 2^(n-1) (0 = 50ms).
	BaseDelay time.Duration
	// MaxDelay caps every sleep, including a server-suggested
	// Retry-After (0 = 2s). The cap keeps a hostile or confused server
	// from parking the client.
	MaxDelay time.Duration
	// Jitter spreads each sleep uniformly over [d*(1-Jitter), d], keeping
	// a thundering herd from re-synchronizing on the daemon (0 = no
	// jitter; clamped to [0, 1]).
	Jitter float64
	// OnRetry, when non-nil, observes each scheduled retry: the attempt
	// that just failed (1-based), its error, and the sleep about to be
	// taken. Wire a logger here.
	OnRetry func(attempt int, err error, delay time.Duration)

	// rnd substitutes the jitter source in tests (nil = math/rand).
	rnd func() float64
}

// DefaultRetryPolicy is a sane interactive default: 4 attempts, 50ms
// base, 2s cap, 25% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.25}
}

// WithRetry installs a retry policy on the client and returns the
// receiver for chaining. The zero policy disables retries.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p
	return c
}

// Retryable reports whether an error is worth retrying: transport
// failures (the daemon may be restarting, the gateway may re-route) and
// the load-shedding statuses 429, 502, 503, 504. A 504 whose code is
// "timeout" is the job's own timeout_ms expiring: a rerun of the same
// job would time out again, so it is terminal, like context
// cancellation and every other API error (validation, not-found,
// simulation failure).
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
			return true
		case http.StatusGatewayTimeout:
			return !ae.JobTimeout()
		}
		return false
	}
	// Anything else at this layer is a transport-level failure.
	return true
}

// JobTimeout reports a job's own timeout: the 504 with code "timeout"
// a daemon answers when the job's timeout_ms expired. It is the job's
// answer, not a failure of the node that ran it, so neither a client
// retry nor the gateway's failover runs the job again.
func (e *APIError) JobTimeout() bool {
	return e.Status == http.StatusGatewayTimeout && e.Code == "timeout"
}

// backoff computes the sleep before retrying after the attempt-th
// failure (1-based): exponential from BaseDelay, overridden by a larger
// server Retry-After hint, capped at MaxDelay, then jittered downward.
func (p RetryPolicy) backoff(attempt int, err error) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	d := base << (attempt - 1)
	if d <= 0 || d > maxd { // shift overflow or past the cap
		d = maxd
	}
	var ae *APIError
	if errors.As(err, &ae) {
		if ra := ae.RetryAfter(); ra > d {
			d = ra
		}
	}
	if d > maxd {
		d = maxd
	}
	j := p.Jitter
	if j < 0 {
		j = 0
	} else if j > 1 {
		j = 1
	}
	if j > 0 {
		r := rand.Float64
		if p.rnd != nil {
			r = p.rnd
		}
		d = time.Duration(float64(d) * (1 - j*r()))
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
