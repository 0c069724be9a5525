// Package server implements tcserved, the simulation-as-a-service
// daemon: an HTTP/JSON front end over the tcsim simulator with a
// bounded worker pool, a canonical-config-hash result cache with
// singleflight deduplication, a bounded store of pollable jobs,
// backpressure, and live metrics. A sweep is not a daemon endpoint:
// client.Sweep submits each cell as an ordinary job.
package server

import (
	"errors"
	"fmt"
	"time"

	"tcsim"
	"tcsim/client"
)

// badRequest is a validation failure that the HTTP layer maps to a
// structured 400.
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

// IsBadRequest reports whether err is a request-validation failure (the
// kind the HTTP layer answers with a structured 400). The cluster
// gateway uses it to reject malformed requests itself instead of
// burning a backend round trip.
func IsBadRequest(err error) bool {
	var br *badRequest
	return errors.As(err, &br)
}

// resolved is a validated wire request: the machine config with every
// default applied, its canonical cache key (computed once, here), the
// workload, and the job's wall-clock cap. Two JobRequests that mean the
// same simulation resolve to the same config and key.
type resolved struct {
	workload string
	cfg      tcsim.Config
	key      string
	// timeout bounds the run; it does not configure the machine, so it
	// is not part of the key.
	timeout time.Duration
}

// resolveSpec validates a wire JobRequest and resolves it through
// tcsim.Config.Canonical. It handles only the wire's own concerns — the
// preset, the no_* fields, the server's Limits and the timeout — and
// hard-codes no machine default. All validation failures are
// *badRequest errors.
func resolveSpec(req *client.JobRequest, lim Limits) (resolved, error) {
	if req.Workload == "" {
		return resolved{}, badRequestf("workload is required (one of %v)", tcsim.Workloads())
	}
	cfg := tcsim.Config{
		MaxInsts:      req.Insts,
		Passes:        req.Passes,
		TimePasses:    req.TimePasses,
		FillLatency:   req.FillLatency,
		TracePacking:  !req.NoPacking,
		Promotion:     !req.NoPromotion,
		InactiveIssue: !req.NoInactive,
		UseTraceCache: !req.NoTraceCache,
		Clusters:      req.Clusters,
		FUsPerCluster: req.FUsPerCluster,
		MaxCycles:     req.MaxCycles,
		Timeline:      req.Timeline,
		TCPolicy:      req.TCPolicy,
		ICPolicy:      req.ICPolicy,
		Sampling: tcsim.SamplingConfig{
			Period:    req.SamplePeriod,
			WindowLen: req.SampleWindow,
			Warmup:    req.SampleWarmup,
			Seek:      req.SampleSeek,
		},
	}
	if req.Timeline {
		// Served timelines are bounded tighter than the library default:
		// the ring (and the cached result holding its snapshot) lives in
		// daemon memory.
		cfg.TimelineEvents = servedTimelineEvents
	}
	if req.Preset != "" && len(req.Passes) > 0 {
		return resolved{}, badRequestf("preset and passes are mutually exclusive")
	}
	switch req.Preset {
	case "", client.PresetBaseline:
	case client.PresetAll:
		cfg.Passes = tcsim.DefaultPassSpec()
	default:
		return resolved{}, badRequestf("unknown preset %q (valid: %q, %q)",
			req.Preset, client.PresetBaseline, client.PresetAll)
	}
	cfg, key, err := cfg.Canonical(req.Workload)
	if err != nil {
		return resolved{}, &badRequest{msg: err.Error()}
	}
	if lim.MaxInsts > 0 && cfg.MaxInsts > lim.MaxInsts {
		return resolved{}, badRequestf("insts %d exceeds the server's per-job limit %d", cfg.MaxInsts, lim.MaxInsts)
	}

	if req.TimeoutMS < 0 {
		return resolved{}, badRequestf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = lim.DefaultTimeout
	}
	if lim.MaxTimeout > 0 && timeout > lim.MaxTimeout {
		timeout = lim.MaxTimeout
	}
	return resolved{workload: req.Workload, cfg: cfg, key: key, timeout: timeout}, nil
}

// servedTimelineEvents bounds timelines recorded on behalf of a job
// request; long runs keep the most recent events.
const servedTimelineEvents = 1 << 14

// ResolveConfig resolves a wire request exactly as the daemon does,
// returning the tcsim.Config the job would run and its canonical cache
// key. The serving tests use it to compute direct-run reference
// results for bit-for-bit comparison against served responses.
func ResolveConfig(req *client.JobRequest, lim Limits) (tcsim.Config, string, error) {
	r, err := resolveSpec(req, lim)
	return r.cfg, r.key, err
}

// Limits bounds what a single request may ask for.
type Limits struct {
	// MaxInsts caps one job's retired-instruction budget (0 = no cap).
	MaxInsts uint64
	// DefaultTimeout applies when a request names none.
	DefaultTimeout time.Duration
	// MaxTimeout silently clamps requested timeouts (0 = no cap).
	MaxTimeout time.Duration
}
