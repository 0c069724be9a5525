// Package server implements tcserved, the simulation-as-a-service
// daemon: an HTTP/JSON front end over the tcsim simulator with a
// bounded worker pool, a canonical-config-hash result cache with
// singleflight deduplication, an async job store with TTL GC, sweeps
// whose cells run as engine jobs, backpressure, and live metrics.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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

// jobSpec is a fully resolved simulation request: every default applied,
// the pass pipeline expanded, and the instruction budget made explicit.
// Two JobRequests that mean the same simulation resolve to the same
// jobSpec — and therefore the same cache key.
type jobSpec struct {
	Workload string   `json:"workload"`
	Insts    uint64   `json:"insts"`
	Passes   []string `json:"passes"`
	Timed    bool     `json:"timed"`
	FillLat  int      `json:"fill_latency"`
	Packing  bool     `json:"packing"`
	Promote  bool     `json:"promotion"`
	Inactive bool     `json:"inactive_issue"`
	TCache   bool     `json:"trace_cache"`
	Clusters int      `json:"clusters"`
	FUs      int      `json:"fus_per_cluster"`
	MaxCyc   uint64   `json:"max_cycles"`
	Timeline bool     `json:"timeline"`
	// TCPolicy/ICPolicy are always the resolved registered names (never
	// ""), so "default" and "explicit default" hash to the same key and
	// any non-default policy splits the cache.
	TCPolicy string `json:"tc_policy"`
	ICPolicy string `json:"ic_policy"`

	// The resolved sampling plan. omitempty keeps exact-run keys
	// identical to pre-sampling releases while any enabled plan —
	// period, window, warm-up, or seek mode — splits the cache, so a
	// sampled result can never be served for an exact request or vice
	// versa.
	SamplePeriod uint64 `json:"sample_period,omitempty"`
	SampleWindow uint64 `json:"sample_window,omitempty"`
	SampleWarmup uint64 `json:"sample_warmup,omitempty"`
	SampleSeek   bool   `json:"sample_seek,omitempty"`

	// timeout is the per-job wall-clock cap. Deliberately excluded from
	// the canonical JSON: it bounds the run, it does not configure the
	// machine, so it must not split the cache.
	timeout time.Duration `json:"-"`
}

// resolveSpec validates a wire JobRequest and resolves it to a canonical
// jobSpec. All validation failures are *badRequest errors.
func resolveSpec(req *client.JobRequest, lim Limits) (jobSpec, error) {
	var s jobSpec
	if req.Workload == "" {
		return s, badRequestf("workload is required (one of %v)", tcsim.Workloads())
	}
	def, ok := tcsim.WorkloadDefaultInsts(req.Workload)
	if !ok {
		return s, badRequestf("unknown workload %q (have %v)", req.Workload, tcsim.Workloads())
	}
	s.Workload = req.Workload
	s.Insts = req.Insts
	if s.Insts == 0 {
		s.Insts = def
	}
	if lim.MaxInsts > 0 && s.Insts > lim.MaxInsts {
		return s, badRequestf("insts %d exceeds the server's per-job limit %d", s.Insts, lim.MaxInsts)
	}

	if req.Preset != "" && len(req.Passes) > 0 {
		return s, badRequestf("preset and passes are mutually exclusive")
	}
	switch req.Preset {
	case "", client.PresetBaseline:
		s.Passes = append([]string{}, req.Passes...)
	case client.PresetAll:
		s.Passes = tcsim.DefaultPassSpec()
	default:
		return s, badRequestf("unknown preset %q (valid: %q, %q)",
			req.Preset, client.PresetBaseline, client.PresetAll)
	}
	if err := tcsim.ValidatePassSpec(s.Passes); err != nil {
		return s, &badRequest{msg: err.Error()}
	}

	s.Timed = req.TimePasses
	s.FillLat = req.FillLatency
	if s.FillLat == 0 {
		s.FillLat = 1
	}
	if s.FillLat < 0 {
		return s, badRequestf("fill_latency must be >= 1, got %d", req.FillLatency)
	}
	s.Packing = !req.NoPacking
	s.Promote = !req.NoPromotion
	s.Inactive = !req.NoInactive
	s.TCache = !req.NoTraceCache
	s.Clusters = req.Clusters
	if s.Clusters == 0 {
		s.Clusters = 4
	}
	s.FUs = req.FUsPerCluster
	if s.FUs == 0 {
		s.FUs = 4
	}
	if s.Clusters < 0 || s.FUs < 0 {
		return s, badRequestf("clusters and fus_per_cluster must be positive")
	}
	s.MaxCyc = req.MaxCycles
	s.Timeline = req.Timeline

	sc := tcsim.SamplingConfig{
		Period:    req.SamplePeriod,
		WindowLen: req.SampleWindow,
		Warmup:    req.SampleWarmup,
		Seek:      req.SampleSeek,
	}
	if !sc.Enabled() && (sc.WindowLen != 0 || sc.Warmup != 0 || sc.Seek) {
		return s, badRequestf("sample_window/sample_warmup/sample_seek need sample_period > 0")
	}
	if err := sc.Validate(); err != nil {
		return s, &badRequest{msg: err.Error()}
	}
	s.SamplePeriod = sc.Period
	s.SampleWindow = sc.WindowLen
	s.SampleWarmup = sc.Warmup
	s.SampleSeek = sc.Seek

	for _, p := range []string{req.TCPolicy, req.ICPolicy} {
		if err := tcsim.ValidatePolicy(p); err != nil {
			return s, &badRequest{msg: err.Error()}
		}
	}
	s.TCPolicy = req.TCPolicy
	if s.TCPolicy == "" {
		s.TCPolicy = tcsim.DefaultPolicy()
	}
	s.ICPolicy = req.ICPolicy
	if s.ICPolicy == "" {
		s.ICPolicy = tcsim.DefaultPolicy()
	}

	if req.TimeoutMS < 0 {
		return s, badRequestf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	s.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	if s.timeout == 0 {
		s.timeout = lim.DefaultTimeout
	}
	if lim.MaxTimeout > 0 && s.timeout > lim.MaxTimeout {
		s.timeout = lim.MaxTimeout
	}
	return s, nil
}

// Key is the canonical config hash: sha256 over the spec's canonical
// JSON, truncated to 16 hex digits. Identical simulations — however
// their requests were phrased — produce identical keys; the result
// cache and singleflight table, which jobs and sweep cells share, key
// on it.
func (s jobSpec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// jobSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("server: marshal jobSpec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Config expands the spec into the tcsim machine configuration.
func (s jobSpec) Config() tcsim.Config {
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = s.Insts
	cfg.Passes = s.Passes
	cfg.TimePasses = s.Timed
	cfg.FillLatency = s.FillLat
	cfg.TracePacking = s.Packing
	cfg.Promotion = s.Promote
	cfg.InactiveIssue = s.Inactive
	cfg.UseTraceCache = s.TCache
	cfg.Clusters = s.Clusters
	cfg.FUsPerCluster = s.FUs
	cfg.MaxCycles = s.MaxCyc
	cfg.TCPolicy = s.TCPolicy
	cfg.ICPolicy = s.ICPolicy
	cfg.Sampling = tcsim.SamplingConfig{
		Period:    s.SamplePeriod,
		WindowLen: s.SampleWindow,
		Warmup:    s.SampleWarmup,
		Seek:      s.SampleSeek,
	}
	if s.Timeline {
		cfg.Timeline = true
		// Served timelines are bounded tighter than the library default:
		// the ring (and the cached result holding its snapshot) lives in
		// daemon memory.
		cfg.TimelineEvents = servedTimelineEvents
	}
	return cfg
}

// servedTimelineEvents bounds timelines recorded on behalf of a job
// request; long runs keep the most recent events.
const servedTimelineEvents = 1 << 14

// ResolveConfig resolves a wire request exactly as the daemon does,
// returning the tcsim.Config the job would run and its canonical cache
// key. The serving tests use it to compute direct-run reference
// results for bit-for-bit comparison against served responses.
func ResolveConfig(req *client.JobRequest, lim Limits) (tcsim.Config, string, error) {
	spec, err := resolveSpec(req, lim)
	if err != nil {
		return tcsim.Config{}, "", err
	}
	return spec.Config(), spec.Key(), nil
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
