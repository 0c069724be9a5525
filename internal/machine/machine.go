// Package machine holds the simulated machine's one configuration and
// its one run path. Config is the resolved machine that every front end
// shares: the library (tcsim.Config is an alias), tcserved's jobs and
// sweep cells, the cluster gateway's routing, tcsim's flags and the
// figure variants of internal/experiments. Canonical resolves a Config
// and returns its cache key; Run and RunProgram build the pipeline's
// configuration from it in one place and simulate it.
package machine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/pprof"

	"tcsim/internal/asm"
	"tcsim/internal/core"
	"tcsim/internal/obs"
	"tcsim/internal/pipeline"
	"tcsim/internal/replace"
	"tcsim/internal/tracestore"
	"tcsim/internal/workload"
)

// Config describes one simulated machine. Construct it with
// DefaultConfig and override fields: the zero value turns off the trace
// cache, trace packing, promotion and inactive issue.
//
// The JSON tags are the canonical cache key's field names, and the
// tagged fields are declared in the key's order: the key hashes the
// config's own JSON (see Canonical), and keys_golden.txt pins it byte
// for byte. Fields tagged "-" are not part of the key.
type Config struct {
	// Opt selects the fill-unit optimizations (all off = baseline). It
	// is shorthand for Passes: Canonical expands it when Passes is empty.
	Opt core.Optimizations `json:"-"`
	// MaxInsts stops the simulation after this many retired
	// instructions (0 = the workload's default budget, or until the
	// program halts).
	MaxInsts uint64 `json:"insts"`
	// Passes explicitly selects and orders the optimization pipeline by
	// registered pass name. Empty derives the paper's canonical order
	// from Opt; non-empty overrides Opt. Illegal orders are rejected,
	// never silently reordered.
	Passes []string `json:"passes"`
	// TimePasses collects per-pass wall time into the pass counters
	// (off by default: it adds two clock reads per pass per segment).
	TimePasses bool `json:"timed"`
	// FillLatency is the fill pipeline depth in cycles (paper: 1/5/10;
	// 0 = 1).
	FillLatency int `json:"fill_latency"`
	// TracePacking packs instructions across block boundaries (default on).
	TracePacking bool `json:"packing"`
	// Promotion embeds static predictions for strongly biased branches
	// (default on).
	Promotion bool `json:"promotion"`
	// InactiveIssue issues non-predicted trace-line blocks inactively
	// (default on).
	InactiveIssue bool `json:"inactive_issue"`
	// UseTraceCache enables the trace cache front end (default on;
	// disable for the instruction-cache-only ablation).
	UseTraceCache bool `json:"trace_cache"`
	// Clusters x FUsPerCluster organizes the 16 functional units
	// (paper: 4 x 4; 0 = 4). The product must be 16: the model maps
	// fetch slot i to functional unit i.
	Clusters      int `json:"clusters"`
	FUsPerCluster int `json:"fus_per_cluster"`
	// MaxCycles aborts a non-halting simulation (0 = a very large bound).
	MaxCycles uint64 `json:"max_cycles"`
	// Timeline records a cycle-level event timeline (fetch source,
	// segment finalization, per-pass rewrites, issue/retire occupancy).
	// Recording observes the run without touching timing: a run with
	// Timeline on is bit-for-bit identical to the same run with it off.
	// Off (the default) costs nothing — the cycle loop stays
	// allocation-free.
	Timeline bool `json:"timeline"`
	// TCPolicy selects the trace cache's replacement policy by registered
	// name ("" = the default, LRU). The "belady" oracle needs future
	// knowledge of the reference stream and therefore only runs over a
	// captured workload trace (Run); RunProgram rejects it.
	TCPolicy string `json:"tc_policy"`
	// ICPolicy selects the L1 instruction cache's replacement policy
	// ("" = LRU). Data-side caches always use LRU: the replacement lab
	// targets the fetch path.
	ICPolicy string `json:"ic_policy"`

	// Sampling enables SMARTS-style sampled timing: detailed
	// cycle-accurate windows at each Period boundary (a Warmup prefix is
	// timed but discarded), functional fast-forward — or, with Seek, a
	// checkpoint seek — in between, and a sampled-IPC estimate with a
	// 95% confidence interval. The zero value runs exact simulation.
	// The key inlines the plan's fields after ICPolicy, omitted when
	// zero: an exact run's key carries no sampling field.
	Sampling pipeline.SamplingConfig `json:"-"`
	// TimelineEvents bounds the timeline ring buffer; when full the
	// oldest events are dropped. 0 selects the default capacity (65536
	// events).
	TimelineEvents int `json:"-"`
}

// DefaultConfig returns the paper's baseline machine with no fill-unit
// optimizations enabled.
func DefaultConfig() Config {
	return Config{
		FillLatency:   1,
		TracePacking:  true,
		Promotion:     true,
		InactiveIssue: true,
		UseTraceCache: true,
		Clusters:      4,
		FUsPerCluster: 4,
	}
}

// Canonical resolves the config for a run of the named bundled workload
// ("" for a program that is not one) and returns it with its cache key.
// It applies every default — the workload's budget for a zero
// MaxInsts, Passes expanded from Opt, fill latency 1 and the 4×4
// geometry for zero fields, the registered name of a default policy —
// and rejects an unknown workload, an invalid pass spec, policy or
// sampling plan, negative values, and any geometry but 16 functional
// units. Configs that describe the same simulation resolve to the same
// config and key, and resolving a resolved config returns it unchanged.
//
// The key is the sha256 of the canonical JSON — the workload, then the
// config's tagged fields with the sampling plan's inlined — truncated to
// 16 hex digits. It keys tcserved's result cache, tcgate's routing and
// the figures' memo.
func (c Config) Canonical(workload string) (Config, string, error) {
	c, err := c.resolve(workload)
	if err != nil {
		return Config{}, "", err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Config
		pipeline.SamplingConfig
	}{workload, c, c.Sampling})
	if err != nil {
		// Config is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("machine: marshal config: %v", err))
	}
	sum := sha256.Sum256(b)
	return c, hex.EncodeToString(sum[:8]), nil
}

// resolve is Canonical without the key: the run path resolves every
// config it simulates, but only callers that cache or route pay for the
// hash.
func (c Config) resolve(name string) (Config, error) {
	if name != "" {
		w, err := lookup(name)
		if err != nil {
			return c, err
		}
		if c.MaxInsts == 0 {
			c.MaxInsts = w.DefaultInsts
		}
	}
	if len(c.Passes) == 0 {
		// Never nil: the key spells the baseline's pipeline as [].
		c.Passes = c.Opt.PassSpec()
	}
	if err := core.ValidateSpec(c.Passes); err != nil {
		return c, err
	}

	d := DefaultConfig()
	if c.FillLatency < 0 {
		return c, fmt.Errorf("fill_latency must be >= 1, got %d", c.FillLatency)
	}
	if c.FillLatency == 0 {
		c.FillLatency = d.FillLatency
	}
	if c.Clusters < 0 || c.FUsPerCluster < 0 {
		return c, errors.New("clusters and fus_per_cluster must be positive")
	}
	if c.Clusters == 0 {
		c.Clusters = d.Clusters
	}
	if c.FUsPerCluster == 0 {
		c.FUsPerCluster = d.FUsPerCluster
	}
	if err := pipeline.ValidateGeometry(c.Clusters, c.FUsPerCluster); err != nil {
		return c, err
	}

	for _, p := range []*string{&c.TCPolicy, &c.ICPolicy} {
		if err := replace.Validate(*p); err != nil {
			return c, err
		}
		if *p == "" {
			*p = replace.Default()
		}
	}

	sc := c.Sampling
	if !sc.Enabled() && (sc.WindowLen != 0 || sc.Warmup != 0 || sc.Seek) {
		return c, errors.New("sample_window/sample_warmup/sample_seek need sample_period > 0")
	}
	if err := sc.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

func lookup(name string) (workload.Workload, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return w, fmt.Errorf("unknown workload %q (have %v)", name, workload.Names())
	}
	return w, nil
}

// pipeline maps a resolved config onto the simulator's components: the
// one place a machine field reaches pipeline.Config.
func (c Config) pipeline() pipeline.Config {
	pc := pipeline.DefaultConfig()
	pc.Fill.Passes = c.Passes
	pc.Fill.TimePasses = c.TimePasses
	pc.Fill.FillLatency = c.FillLatency
	pc.Fill.TracePacking = c.TracePacking
	pc.Fill.Promotion = c.Promotion
	pc.InactiveIssue = c.InactiveIssue
	pc.UseTraceCache = c.UseTraceCache
	pc.TCache.Policy = c.TCPolicy
	pc.Cache.L1IPolicy = c.ICPolicy
	pc.Exec.Clusters, pc.Exec.FUsPerCluster = c.Clusters, c.FUsPerCluster
	pc.Fill.Clusters, pc.Fill.FUsPerCluster = c.Clusters, c.FUsPerCluster
	pc.MaxInsts = c.MaxInsts
	pc.MaxCycles = c.MaxCycles // 0 selects the pipeline's bound
	pc.Sampling = c.Sampling
	return pc
}

// Outcome is what one simulation produced: the pipeline's statistics,
// the program's OUT byte stream, and the recorded timeline (nil unless
// Config.Timeline).
type Outcome struct {
	Stats    pipeline.Stats
	Output   []byte
	Timeline *obs.Timeline
}

// Run resolves cfg for the named bundled workload and simulates it over
// the trace store st (nil = the process-wide store), which picks the
// instruction source: the first run of a (workload, budget) pair
// captures its correct-path stream and later runs replay it, bit-for-bit
// identical to live emulation; a seek plan above the full-capture limit
// runs over a checkpoint log. The library, tcserved's jobs and the
// figures all run through it; each call builds a new simulator.
func Run(ctx context.Context, cfg Config, name string, st *tracestore.Store) (Outcome, error) {
	return new(Slot).Run(ctx, cfg, name, st)
}

// Slot keeps one simulator between runs, so that the next run
// re-initializes it in place (pipeline.Simulator.Reset) instead of
// allocating a new machine; the result is bit-for-bit the same. The
// zero value is an empty slot, whose run builds a fresh simulator. A
// run that fails, is cancelled or panics leaves the slot empty. Nothing
// a run returns aliases the kept simulator. A Slot is not safe for
// concurrent use.
type Slot struct{ sim *pipeline.Simulator }

// Run is the package's Run over the slot's simulator.
func (sl *Slot) Run(ctx context.Context, cfg Config, name string, st *tracestore.Store) (Outcome, error) {
	w, err := lookup(name)
	if err != nil {
		return Outcome{}, err
	}
	if cfg, err = cfg.resolve(name); err != nil {
		return Outcome{}, err
	}
	if st == nil {
		st = tracestore.Shared()
	}
	pc := cfg.pipeline()
	prog, src, full, phase := st.Source(ctx, w, cfg.MaxInsts,
		cfg.Sampling.Enabled() && cfg.Sampling.Seek, pipeline.MaxOracleLead(pc))
	pc.Oracle = src
	if full != nil { // a typed nil would slip past the oracle-policy check
		pc.Future = full
	}
	return sl.run(ctx, cfg, pc, prog, full, phase)
}

// RunProgram resolves cfg and simulates prog under live emulation.
func RunProgram(ctx context.Context, cfg Config, prog *asm.Program) (Outcome, error) {
	cfg, err := cfg.resolve("")
	if err != nil {
		return Outcome{}, err
	}
	return new(Slot).run(ctx, cfg, cfg.pipeline(), prog, nil, "live")
}

// run re-initializes the slot's simulator (New, on an empty slot) and
// runs it under ctx, labelling the profile with the source's phase.
// Only a run that captured full records the capture event, so warm
// replays and live runs record identical timelines.
func (sl *Slot) run(ctx context.Context, cfg Config, pc pipeline.Config, prog *asm.Program, full *tracestore.Trace, phase string) (Outcome, error) {
	if ctx.Done() != nil {
		pc.Cancelled = func() bool { return ctx.Err() != nil }
	}
	if cfg.Timeline {
		pc.Recorder = obs.NewRecorder(cfg.TimelineEvents)
		if phase == tracestore.OutcomeCapture.String() && full != nil {
			pc.Recorder.Emit(0, obs.KCapture, full.Len(), cfg.MaxInsts, 0)
		}
	}
	// The slot stays empty until the run succeeds, so a run that fails,
	// is cancelled or panics leaves the next one a fresh simulator.
	sim := sl.sim
	sl.sim = nil
	if sim == nil {
		sim = new(pipeline.Simulator)
	}
	if err := sim.Reset(pc, prog); err != nil {
		return Outcome{}, err
	}
	var st pipeline.Stats
	var err error
	pprof.Do(ctx, pprof.Labels("phase", phase), func(context.Context) { st, err = sim.Run() })
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && err == pipeline.ErrCanceled {
			err = fmt.Errorf("%w: %w", pipeline.ErrCanceled, cerr)
		}
		return Outcome{}, err
	}
	out := Outcome{Stats: st, Output: sim.Output()}
	if pc.Recorder != nil {
		out.Timeline = pc.Recorder.Timeline()
	}
	sl.sim = sim
	return out, nil
}
