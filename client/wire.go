// Package client is the Go client for tcserved, the simulation-as-a-
// service daemon, and the home of the service's wire schema. The server
// (internal/server) imports these types for its request and response
// bodies, so client and daemon marshal the exact same JSON and cannot
// drift apart.
package client

import (
	"fmt"
	"time"

	"tcsim"
)

// Job states reported by the service.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Presets name well-known pass pipelines a JobRequest can select without
// spelling out a spec.
const (
	PresetBaseline = "baseline" // no fill-unit optimization passes
	PresetAll      = "all"      // the paper's combined configuration
)

// JobRequest describes one simulation job: a bundled workload plus the
// machine configuration. The zero value of every config field selects
// the paper's baseline machine (the negative no_* fields exist so that
// "absent" means "default on", mirroring tcsim.DefaultConfig).
type JobRequest struct {
	// Workload is the bundled benchmark name (see tcsim.Workloads).
	Workload string `json:"workload"`
	// Insts bounds retired instructions (0 = the workload's default).
	Insts uint64 `json:"insts,omitempty"`

	// Preset selects a named pipeline ("baseline" or "all"). Mutually
	// exclusive with Passes; empty plus empty Passes means baseline.
	Preset string `json:"preset,omitempty"`
	// Passes is an explicit ordered pass spec (see GET /v1/passes).
	Passes []string `json:"passes,omitempty"`
	// TimePasses collects per-pass wall time into the result. Note that
	// timed results are cached like any other: a cache hit returns the
	// original run's timings.
	TimePasses bool `json:"time_passes,omitempty"`

	FillLatency   int    `json:"fill_latency,omitempty"` // 0 = 1 cycle
	NoTraceCache  bool   `json:"no_trace_cache,omitempty"`
	NoPacking     bool   `json:"no_packing,omitempty"`
	NoPromotion   bool   `json:"no_promotion,omitempty"`
	NoInactive    bool   `json:"no_inactive,omitempty"`
	Clusters      int    `json:"clusters,omitempty"`        // 0 = 4
	FUsPerCluster int    `json:"fus_per_cluster,omitempty"` // 0 = 4
	MaxCycles     uint64 `json:"max_cycles,omitempty"`

	// TCPolicy and ICPolicy select the trace-cache and L1 instruction
	// cache replacement policies by registered name (GET /v1/policies;
	// "" = the default, LRU). The canonical cache key always carries the
	// resolved name, so "" and an explicit "lru" hash identically — and
	// any non-default policy hashes differently.
	TCPolicy string `json:"tc_policy,omitempty"`
	ICPolicy string `json:"ic_policy,omitempty"`

	// SamplePeriod enables SMARTS-style sampled timing (0 = exact
	// simulation): detailed cycle-accurate windows of SampleWindow
	// instructions every SamplePeriod retired instructions, each
	// preceded by a discarded SampleWarmup prefix; the gaps advance by
	// functional fast-forward, or by checkpoint seek with SampleSeek.
	// The result carries the sampled-IPC estimate and its 95% CI in
	// Result.Sampled. The sampling plan is part of the canonical cache
	// key, so sampled and exact runs of one machine never collide.
	SamplePeriod uint64 `json:"sample_period,omitempty"`
	SampleWindow uint64 `json:"sample_window,omitempty"`
	SampleWarmup uint64 `json:"sample_warmup,omitempty"`
	SampleSeek   bool   `json:"sample_seek,omitempty"`

	// TimeoutMS caps the job's wall time (0 = the server default; the
	// server also enforces a maximum). Timeouts do not affect the cache
	// key: the same machine config always hashes the same.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Timeline records a cycle-level event timeline into the result
	// (tcsim.Result.Timeline; bounded server-side, oldest events drop
	// first). Timelines are part of the cache key: a traced and an
	// untraced run of the same config are cached separately, though
	// their statistics are bit-for-bit identical.
	Timeline bool `json:"timeline,omitempty"`
}

// Job is the service's view of one submitted job. Sync submissions
// return it in the terminal state; async submissions return it queued
// and GET /v1/jobs/{id} polls it forward.
type Job struct {
	// ID names the job for GET /v1/jobs/{id}, which answers for the
	// daemon's -job-ttl after the job finishes, or until 4096 newer jobs
	// have finished on its node. A sync cache hit's ID does not poll:
	// its caller already holds the answer, so the daemon keeps no record.
	ID    string `json:"id"`
	State string `json:"state"`
	// Key is the canonical config hash the result cache is keyed by;
	// two jobs with the same Key are the same simulation.
	Key string `json:"key"`
	// Cached reports that the result came from the cache or was
	// deduplicated onto a concurrent identical run.
	Cached bool `json:"cached,omitempty"`
	// Result is set once State is "done". It is bit-for-bit the value a
	// direct tcsim.Run of the same config produces.
	Result *tcsim.Result `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
	WallMS float64       `json:"wall_ms,omitempty"`
}

// Done reports whether the job reached a terminal state.
func (j *Job) Done() bool { return j.State == StateDone || j.State == StateFailed }

// SweepRequest is a batch over workloads x configs for Client.Sweep,
// which submits every pair as one job (POST /v1/jobs), so cells share
// the daemon's result cache and deduplicate (within and across sweeps
// and jobs) by config hash. Sweeps return compact per-cell statistics;
// submit a job for the full tcsim.Result of an interesting cell.
type SweepRequest struct {
	// Workloads lists benchmark names (empty = every bundled workload).
	Workloads []string `json:"workloads,omitempty"`
	// Configs are the machine configurations to cross with Workloads.
	// The Workload field inside a sweep config must be empty; an empty
	// Configs list means just the baseline. Per-config Insts overrides
	// the sweep-level Insts.
	Configs []JobRequest `json:"configs,omitempty"`
	// Insts bounds each cell (0 = per-workload defaults).
	Insts uint64 `json:"insts,omitempty"`
}

// SweepRow is one (workload, config) cell's result.
type SweepRow struct {
	Workload       string  `json:"workload"`
	Key            string  `json:"key"`
	IPC            float64 `json:"ipc"`
	Cycles         uint64  `json:"cycles"`
	Retired        uint64  `json:"retired"`
	TCHitRate      float64 `json:"tc_hit_rate"`
	MispredictRate float64 `json:"mispredict_rate"`
}

// SweepResponse aggregates a sweep. Simulations counts the cells whose
// job was not Cached; Cells minus Simulations were result-cache hits or
// deduplicated onto concurrent identical runs.
type SweepResponse struct {
	Rows        []SweepRow `json:"rows"`
	Cells       int        `json:"cells"`
	Simulations uint64     `json:"simulations"`
	WallMS      float64    `json:"wall_ms"`
}

// Pass is one registered fill-unit optimization pass (GET /v1/passes).
type Pass struct {
	Name    string `json:"name"`
	Desc    string `json:"desc"`
	Default bool   `json:"default"`
}

// Policy is one registered cache replacement policy (GET /v1/policies).
type Policy struct {
	Name    string `json:"name"`
	Desc    string `json:"desc"`
	Default bool   `json:"default"`
	// Oracle marks offline upper-bound policies (future knowledge from
	// the captured trace stream; only valid for workload jobs).
	Oracle bool `json:"oracle,omitempty"`
}

// NodeStatus is one backend's health as the cluster gateway sees it
// (GET /v1/cluster).
type NodeStatus struct {
	// Name is the node's stable ring identity ("node0", ...): consistent
	// hashing keys on it, so a node restarted on a new address keeps its
	// shard.
	Name string `json:"name"`
	URL  string `json:"url"`
	// Healthy reports the last probe or proxy outcome; unhealthy nodes
	// are demoted and their keys re-hash to the next ring replica.
	Healthy bool `json:"healthy"`
	// Demotions counts healthy->unhealthy transitions since gateway start.
	Demotions uint64 `json:"demotions"`
	// LastError is the failure that caused the current demotion (empty
	// when healthy).
	LastError string `json:"last_error,omitempty"`
}

// ClusterStatus is the gateway's cluster view (GET /v1/cluster).
type ClusterStatus struct {
	Nodes []NodeStatus `json:"nodes"`
	// Healthy counts nodes currently routable.
	Healthy int `json:"healthy"`
	// RingPoints is the total number of virtual nodes on the hash ring.
	RingPoints int `json:"ring_points"`
}

// ErrorBody is every non-2xx response's JSON shape.
type ErrorBody struct {
	Error APIError `json:"error"`
}

// APIError is a structured service error. It implements error, so the
// client returns it directly.
type APIError struct {
	// Status is the HTTP status code (not serialized; filled by the
	// client from the response).
	Status int `json:"-"`
	// RequestID is the X-Request-ID the failing exchange carried (not
	// serialized; filled by the client from the response header). Quote
	// it when reporting a server-side failure: the daemon logs every
	// request under this ID.
	RequestID string `json:"-"`
	// Code is a stable machine-readable identifier: "invalid_argument",
	// "not_found", "queue_full", "draining", "timeout", "canceled",
	// "internal" — plus, from a cluster gateway, "bad_gateway" (no
	// healthy backend could serve the request).
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSecs accompanies "queue_full" and "draining": how long
	// the client should back off (also sent as a Retry-After header).
	RetryAfterSecs int `json:"retry_after_secs,omitempty"`
}

func (e *APIError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("tcserved: %s (%d %s)", e.Message, e.Status, e.Code)
	}
	return fmt.Sprintf("tcserved: %s (%s)", e.Message, e.Code)
}

// RetryAfter returns the suggested backoff as a duration (0 if none).
func (e *APIError) RetryAfter() time.Duration {
	return time.Duration(e.RetryAfterSecs) * time.Second
}
