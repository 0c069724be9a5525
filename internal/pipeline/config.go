// Package pipeline wires the simulator together: the trace-cache front
// end with inactive issue, the rename/issue stage with checkpoint repair,
// the clustered out-of-order backend, in-order retirement feeding the
// fill unit, and the statistics the paper's figures are built from.
//
// Execution is timing-directed: a functional oracle (internal/emu)
// supplies the correct-path instruction stream — PCs, branch outcomes,
// effective addresses — while the pipeline models fetch, speculation,
// wrong-path and inactive-issue resource effects, bypass latencies and
// recovery timing itself.
package pipeline

import (
	"errors"
	"fmt"

	"tcsim/internal/bpred"
	"tcsim/internal/cache"
	"tcsim/internal/core"
	"tcsim/internal/emu"
	"tcsim/internal/exec"
	"tcsim/internal/obs"
	"tcsim/internal/trace"
)

// ErrCanceled is returned by Run when Config.Cancelled reports true.
var ErrCanceled = errors.New("pipeline: simulation canceled")

// Config aggregates the configuration of every component. Construct it
// with DefaultConfig: New rejects a geometry other than FUs functional
// units, the zero one included.
type Config struct {
	Fill   core.Config
	Exec   exec.Config
	Cache  cache.Params
	Pred   bpred.Config
	TCache trace.CacheConfig

	Checkpoints int // in-flight checkpoint capacity

	// UseTraceCache disables the trace cache path entirely when false
	// (ablation: pure instruction-cache front end).
	UseTraceCache bool
	// InactiveIssue issues the blocks of a trace line that do not match
	// the prediction inactively (paper baseline: on). When false, a
	// trace line is truncated at the first predicted divergence.
	InactiveIssue bool

	// MaxCycles aborts the simulation if the program has not halted.
	MaxCycles uint64
	// MaxInsts stops simulation after retiring this many instructions
	// (0: run to HALT). Used to bound long workloads like the paper
	// bounds li and ijpeg.
	MaxInsts uint64

	// Cancelled, when non-nil, is polled periodically by Run (every 4096
	// cycles, off the hot path); returning true aborts the simulation
	// with ErrCanceled. The experiment runner uses it to cancel
	// outstanding simulations once one workload fails.
	Cancelled func() bool

	// Oracle, when non-nil, supplies the correct-path instruction stream
	// instead of a live emulation of the program — e.g. a
	// tracestore.Replay over a previously captured run. The source must
	// describe exactly the program passed to New; the retirement stage
	// cross-checks every record's PC against the fetched uop and panics
	// on the first divergence. Nil (the default) builds a live
	// emu.Oracle, pre-sized to MaxOracleLead.
	Oracle emu.Source

	// Future, when non-nil, supplies the future-reference index over
	// the run's correct-path stream that oracle replacement policies
	// (the "belady" headroom bound) consult — typically the
	// *tracestore.Trace the run replays, which implements the interface.
	// Required when Config names an oracle policy for the trace cache or
	// L1I; New rejects the configuration otherwise.
	Future FutureIndex

	// Sampling, when enabled (Period > 0), runs SMARTS-style sampled
	// timing: detailed cycle-accurate windows at each period boundary
	// (warm-up first, discarded), functional fast-forward (or a
	// checkpoint seek) in between, and a sampled-IPC estimate with a
	// 95% confidence interval in Stats.Sampled. Zero value = exact
	// simulation, bit-for-bit identical to builds without this field.
	Sampling SamplingConfig

	// Recorder, when non-nil, receives cycle-level timeline events:
	// fetch source (trace-cache hit / instruction-cache fetch / miss),
	// issue and retirement occupancy, and — forwarded to the fill unit —
	// segment finalization with per-pass rewrite events. Nil (the
	// default) keeps the cycle loop allocation-free and costs one nil
	// compare per emission site; recording itself never allocates (the
	// ring is preallocated). Timing is unaffected either way.
	Recorder *obs.Recorder
}

// FutureIndex answers future-reference queries over the correct-path
// stream: the next position at which a PC — or any instruction in an
// aligned block of 1<<shift bytes — executes at or after from.
// *tracestore.Trace implements it over its captured columns.
type FutureIndex interface {
	NextPC(pc uint32, from uint64) (pos uint64, ok bool)
	// NextFetchPC restricts NextPC to fetch-head positions (redirect
	// targets): the only points where the trace cache is looked up, and
	// therefore the reuse signal the Belady trace-cache oracle ranks by.
	NextFetchPC(pc uint32, from uint64) (pos uint64, ok bool)
	NextBlock(block uint32, shift uint, from uint64) (pos uint64, ok bool)
}

// pcFuture adapts a FutureIndex to the trace-cache policy's key space
// (segment start PCs). Ranking blends the two per-PC views: a future
// fetch redirect to the key is a *guaranteed* trace-cache lookup, so
// when one exists its position is the reuse distance; otherwise the key
// can only be re-looked-up at a sequential continuation head, whose
// position depends on how the previous fetch group ends — NextPC (the
// key's next execution) is the tightest complete lower bound on that.
// Neither alone works: pure NextPC invents reuse for PCs that execute
// mid-segment but are never looked up (phantom-hot lines pin ways),
// and pure NextFetchPC declares sequentially re-entered lines dead
// (gcc loses several points of hit rate under capacity pressure).
type pcFuture struct{ f FutureIndex }

func (a pcFuture) Next(key uint32, from uint64) (uint64, bool) {
	if pos, ok := a.f.NextFetchPC(key, from); ok {
		return pos, true
	}
	return a.f.NextPC(key, from)
}

// blockFuture adapts a FutureIndex to a memory cache's key space (line
// numbers: addr >> shift).
type blockFuture struct {
	f     FutureIndex
	shift uint
}

func (a blockFuture) Next(key uint32, from uint64) (uint64, bool) {
	return a.f.NextBlock(key, a.shift, from)
}

// DefaultConfig returns the paper's baseline machine configuration (all
// fill-unit optimizations off).
func DefaultConfig() Config {
	return Config{
		Fill:          core.DefaultConfig(),
		Exec:          exec.DefaultConfig(),
		Cache:         cache.DefaultParams(),
		Pred:          bpred.DefaultConfig(),
		TCache:        trace.DefaultCacheConfig(),
		Checkpoints:   64,
		UseTraceCache: true,
		InactiveIssue: true,
		MaxCycles:     1 << 62,
	}
}

const (
	// FUs is every machine's functional-unit count. The model maps
	// fetch slot i to functional unit i (DESIGN §4), so it equals the
	// fetch width.
	FUs = trace.MaxInsts
	// FetchWidth is the instructions fetched per cycle (paper: 16).
	FetchWidth = FUs
	// RetireWidth is the instructions retired per cycle.
	RetireWidth = 16
)

// ValidateGeometry checks a cluster organization: clusters ×
// fusPerCluster must be exactly FUs. Each factor is checked against
// 1..FUs before multiplying, so an overflowing product cannot pass.
func ValidateGeometry(clusters, fusPerCluster int) error {
	if clusters < 1 || clusters > FUs || fusPerCluster < 1 || fusPerCluster > FUs ||
		clusters*fusPerCluster != FUs {
		return fmt.Errorf("clusters x fus_per_cluster must be %d functional units (one per fetch slot), got %d x %d",
			FUs, clusters, fusPerCluster)
	}
	return nil
}

func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.Checkpoints <= 0 {
		c.Checkpoints = d.Checkpoints
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = d.MaxCycles
	}
	return c
}

// MaxOracleLead bounds how far ahead of retirement the fetch stage can
// advance the oracle cursor: every in-flight instruction plus the
// fetch/issue latch plus one full fetch group probed past the latch. It
// sizes the live oracle's ring up front (no growth doubling on the hot
// path) and lower-bounds the slack a captured trace must carry past its
// retirement budget.
func MaxOracleLead(c Config) int {
	window := c.Exec.WindowSize
	if window <= 0 {
		window = exec.DefaultConfig().WindowSize
	}
	return window + 2*trace.MaxInsts + FetchWidth
}

// Stats is everything the experiment harness reads out of one run.
type Stats struct {
	Cycles  uint64
	Retired uint64
	IPC     float64

	// Front end.
	TCLookups       uint64
	TCHits          uint64
	TCHitRate       float64
	TCBypasses      uint64 // fills the replacement policy rejected (oracle only)
	FetchedInsts    uint64
	FetchedTC       uint64
	InactiveIssued  uint64
	InactiveKept    uint64 // inactive instructions activated and retired
	InactiveDropped uint64

	// Branches.
	CondBranches    uint64
	Mispredicts     uint64
	MispredictRate  float64
	PromotedRetired uint64
	PromotedMispred uint64
	IndirectRetired uint64
	IndirectMispred uint64

	// Fill-unit transformations observed at retirement (Table 2).
	RetiredMoves   uint64
	RetiredReassoc uint64
	RetiredScaled  uint64
	RetiredDead    uint64
	RetiredAnyOpt  uint64

	// Bypass network (Figure 7): retired instructions that executed on a
	// functional unit with at least one register operand, and the subset
	// whose last-arriving operand was delayed by cross-cluster bypass.
	BypassEligible uint64
	BypassDelayed  uint64

	// Memory.
	DL1Hits, DL1Misses uint64
	IL1Hits, IL1Misses uint64
	L2Hits, L2Misses   uint64

	// TCReuse holds the trace cache's reuse-decanting histograms: per
	// (instruction-mix × loop-back) class, how many demand hits each
	// line generation took before retiring. Includes lines still
	// resident at end of run.
	TCReuse trace.ReuseStats

	// Fill unit.
	Fill core.Stats
	// Passes holds the fill unit's per-pass counters in pipeline run
	// order (empty on the baseline, which runs no passes).
	Passes []core.PassStats

	// Sampled holds the sampled-timing estimate when Config.Sampling was
	// enabled; nil on exact runs so their Stats stay bit-for-bit
	// unchanged.
	Sampled *SampledStats
}

// BypassDelayRate returns the Figure 7 metric.
func (s Stats) BypassDelayRate() float64 {
	if s.BypassEligible == 0 {
		return 0
	}
	return float64(s.BypassDelayed) / float64(s.BypassEligible)
}

// OptimizedFraction returns Table 2's "total" column: the fraction of
// retired instructions with any transformation applied.
func (s Stats) OptimizedFraction() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.RetiredAnyOpt) / float64(s.Retired)
}
