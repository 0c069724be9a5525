package tcsim

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"tcsim/internal/asm"
	"tcsim/internal/core"
	"tcsim/internal/experiments"
	"tcsim/internal/machine"
	"tcsim/internal/obs"
	"tcsim/internal/pipeline"
	"tcsim/internal/replace"
	"tcsim/internal/trace"
	"tcsim/internal/tracestore"
	"tcsim/internal/workload"
)

// ErrCanceled is returned by the *Context run functions when the
// simulation stops early because its context was cancelled or timed out.
// Callers should match it with errors.Is; the context's own error is
// attached as well.
var ErrCanceled = pipeline.ErrCanceled

// Options selects the fill unit's dynamic trace optimizations. It is an
// alias of the core type, not a copy: a pass added to the fill unit is
// automatically selectable here, and the two can never drift apart.
// Fields: Moves (paper §4.2), Reassoc (§4.3), ScaledAdds (§4.4),
// Placement (§4.5), and DeadWriteElim — the extension the paper's
// conclusion proposes, experimental and not part of AllOptions.
type Options = core.Optimizations

// AllOptions enables every optimization (the paper's combined
// configuration).
func AllOptions() Options { return core.AllOptimizations() }

// PassStat is one optimization pass's counters from a run: segments
// processed and touched, instructions rewritten, dependency edges
// removed, and (with Config.TimePasses) wall time spent in the pass.
type PassStat = core.PassStats

// PassDesc describes one registered fill-unit optimization pass.
type PassDesc struct {
	Name string // spec / -passes name
	Desc string // one-line description
	// Default marks passes in the paper's combined configuration (the
	// dead-write extension is registered but not Default).
	Default bool
}

// Passes lists every registered optimization pass in canonical order.
func Passes() []PassDesc {
	var out []PassDesc
	for _, pi := range core.RegisteredPasses() {
		out = append(out, PassDesc{Name: pi.Name, Desc: pi.Desc, Default: pi.Default})
	}
	return out
}

// DefaultPassSpec returns the paper's combined pipeline spec (every
// Default pass in canonical order) — what Opt = AllOptions() runs.
func DefaultPassSpec() []string { return core.DefaultPassSpec() }

// PolicyDesc describes one registered cache replacement policy
// (selectable via Config.TCPolicy / Config.ICPolicy).
type PolicyDesc struct {
	Name string // Config.TCPolicy / -tc-policy name
	Desc string // one-line description
	// Default marks the policy "" resolves to (LRU).
	Default bool
	// Oracle marks policies that consult future knowledge of the
	// reference stream (the Belady headroom bound). They only run over
	// captured workload traces (RunWorkload), never live programs.
	Oracle bool
}

// Policies lists every registered replacement policy in canonical order.
func Policies() []PolicyDesc {
	var out []PolicyDesc
	for _, pi := range replace.Registered() {
		out = append(out, PolicyDesc{Name: pi.Name, Desc: pi.Desc, Default: pi.Default, Oracle: pi.Oracle})
	}
	return out
}

// DefaultPolicy returns the name an empty policy field resolves to.
func DefaultPolicy() string { return replace.Default() }

// Config describes one simulated machine. It is an alias of the
// internal resolved config, so the library, tcserved's jobs, tcgate's
// routing and the figures share one type. Construct it with
// DefaultConfig and override fields: the zero value turns off the trace
// cache, trace packing, promotion and inactive issue. Config.Canonical
// resolves every default, validates, and returns the cache key tcserved
// would use for a run of a workload.
type Config = machine.Config

// DefaultConfig returns the paper's baseline machine with no fill-unit
// optimizations enabled.
func DefaultConfig() Config { return machine.DefaultConfig() }

// SamplingConfig selects sampled timing (see Config.Sampling). It is an
// alias of the pipeline type: Period (retired instructions per sampling
// period; 0 = exact), WindowLen (measured detailed window), Warmup
// (discarded detailed prefix per window), Seek (skip gaps via
// checkpoint seek instead of functional warming; needs a seekable
// source, i.e. a workload run).
type SamplingConfig = pipeline.SamplingConfig

// SampledStats is the sampled-timing estimate attached to Result when
// sampling ran: the window-mean IPC with its 95% confidence interval,
// per-window IPCs, and the instruction accounting across warm-up,
// measured, fast-forwarded and seek-skipped portions.
type SampledStats = pipeline.SampledStats

// DefaultSamplingFor returns the standard sampling plan for an
// instruction budget (10k windows, 20k warm-up, ~50 windows per run).
func DefaultSamplingFor(budget uint64) SamplingConfig {
	return pipeline.DefaultSamplingFor(budget)
}

// ParseSamplingSpec parses the -sample CLI flag shared by cmd/tcsim and
// cmd/tcexp into a sampling plan. The spec is a comma list: either
// "auto" (the DefaultSamplingFor plan at the given budget) or an
// explicit "period,window,warmup" triple, optionally followed by
// "seek" to skip gaps via checkpoint seek. "" and "off" disable
// sampling. The returned plan is validated.
func ParseSamplingSpec(spec string, budget uint64) (SamplingConfig, error) {
	var sc SamplingConfig
	var nums []uint64
	for _, f := range strings.Split(spec, ",") {
		switch f = strings.TrimSpace(f); f {
		case "", "off":
		case "auto":
			d := DefaultSamplingFor(budget)
			sc.Period, sc.WindowLen, sc.Warmup = d.Period, d.WindowLen, d.Warmup
		case "seek":
			sc.Seek = true
		default:
			n, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return sc, fmt.Errorf("tcsim: bad -sample element %q (want auto, seek, off, or a period,window,warmup triple)", f)
			}
			nums = append(nums, n)
		}
	}
	switch len(nums) {
	case 0:
	case 3:
		if sc.Period != 0 {
			return sc, errors.New("tcsim: -sample cannot mix auto with an explicit period,window,warmup triple")
		}
		sc.Period, sc.WindowLen, sc.Warmup = nums[0], nums[1], nums[2]
	default:
		return sc, fmt.Errorf("tcsim: -sample needs exactly three numbers (period,window,warmup), got %d", len(nums))
	}
	if sc.Seek && !sc.Enabled() {
		return sc, errors.New("tcsim: -sample seek needs a plan (auto or period,window,warmup)")
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// Program is a loadable TCR executable.
type Program struct {
	p *asm.Program
}

// Assemble builds a Program from TCR assembly text (see internal/asm for
// the syntax: MIPS-flavored, with .data/.text sections and label-based
// control flow).
func Assemble(source string) (*Program, error) {
	p, err := asm.AssembleText(source)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Listing disassembles the program with symbol annotations.
func (p *Program) Listing() string { return p.p.Listing() }

// Result is what one simulation run produced.
type Result struct {
	IPC     float64
	Cycles  uint64
	Retired uint64

	TraceCacheHitRate float64
	MispredictRate    float64
	BypassDelayRate   float64 // fraction of eligible instructions delayed by cross-cluster bypass (Fig 7)

	// Fill-unit transformation coverage at retirement (Table 2).
	MovesPct, ReassocPct, ScaledPct, OptimizedPct float64

	// PassStats holds the fill unit's per-pass counters in pipeline run
	// order (empty on the baseline, which runs no passes).
	PassStats []PassStat

	// SegLengths is the finalized-segment length distribution:
	// SegLengths[n] counts segments finalized with exactly n
	// instructions. Trailing zero counts are trimmed; nil when no
	// segment was finalized.
	SegLengths []uint64

	// TraceReuse decants trace-cache line reuse by segment shape: one row
	// per (instruction-mix, loop-back) class that retired at least one
	// line generation, in canonical class order. Lines still resident at
	// end of run are included.
	TraceReuse []TraceReuseRow
	// TCBypasses counts fills the replacement policy rejected outright
	// (always zero except under a bypass-capable policy like "belady").
	TCBypasses uint64

	// Sampled is the sampled-timing estimate (nil unless Config.Sampling
	// was enabled). When present, IPC above is the sampled estimate, not
	// retired/cycles — most retired instructions never passed through
	// the cycle-accurate core.
	Sampled *SampledStats

	// Timeline is the recorded event timeline (nil unless
	// Config.Timeline was set). Write it out with WriteChromeTrace for
	// chrome://tracing / Perfetto.
	Timeline *Timeline

	// Output is the program's OUT byte stream.
	Output []byte
}

// Timeline is a recorded cycle-level event timeline (Config.Timeline).
// It serializes to JSON directly, or to the Chrome trace-event format
// via WriteChromeTrace.
type Timeline = obs.Timeline

// TimelineEvent is one recorded event; see the obs package for the
// event kinds and field meanings.
type TimelineEvent = obs.Event

// TraceReuseRow is one reuse-decanting class: trace-cache line
// generations whose segments share an instruction-mix class and
// loop-back shape, histogrammed by the demand hits each generation took
// before eviction (or end of run).
type TraceReuseRow struct {
	// Mix is the segment's instruction-mix class: "alu", "mem" or
	// "branchy".
	Mix string
	// Loop marks segments containing a loop-back edge.
	Loop bool
	// Lines is the number of line generations in this class.
	Lines uint64
	// Hits[n] counts generations that took exactly n demand hits; the
	// last bucket (index trace.ReuseCap) aggregates n >= cap. Trailing
	// zeros are trimmed.
	Hits []uint64
}

func reuseRows(rs trace.ReuseStats) []TraceReuseRow {
	var rows []TraceReuseRow
	for class := 0; class < trace.NumReuseClasses; class++ {
		lines := rs.Lines(class)
		if lines == 0 {
			continue
		}
		mix, loop := trace.ReuseClassLabel(class)
		last := -1
		for i, n := range rs.Counts[class] {
			if n != 0 {
				last = i
			}
		}
		row := TraceReuseRow{Mix: mix.String(), Loop: loop, Lines: lines}
		row.Hits = append(row.Hits, rs.Counts[class][:last+1]...)
		rows = append(rows, row)
	}
	return rows
}

func resultFrom(st pipeline.Stats, out []byte) Result {
	pct := func(n uint64) float64 {
		if st.Retired == 0 {
			return 0
		}
		return 100 * float64(n) / float64(st.Retired)
	}
	var segLens []uint64
	last := -1
	for i, n := range st.Fill.SegLen {
		if n != 0 {
			last = i
		}
	}
	if last >= 0 {
		segLens = append(segLens, st.Fill.SegLen[:last+1]...)
	}
	return Result{
		IPC:               st.IPC,
		Cycles:            st.Cycles,
		Retired:           st.Retired,
		TraceCacheHitRate: st.TCHitRate,
		MispredictRate:    st.MispredictRate,
		BypassDelayRate:   st.BypassDelayRate(),
		MovesPct:          pct(st.RetiredMoves),
		ReassocPct:        pct(st.RetiredReassoc),
		ScaledPct:         pct(st.RetiredScaled),
		OptimizedPct:      pct(st.RetiredAnyOpt),
		PassStats:         st.Passes,
		SegLengths:        segLens,
		TraceReuse:        reuseRows(st.TCReuse),
		TCBypasses:        st.TCBypasses,
		Sampled:           st.Sampled,
		Output:            out,
	}
}

// Run simulates a program on the configured machine.
func Run(cfg Config, prog *Program) (Result, error) {
	return RunContext(context.Background(), cfg, prog)
}

// RunContext is Run with cancellation: the cycle loop polls ctx
// periodically and aborts with an error matching both ErrCanceled and
// the context's own error when it is cancelled or its deadline passes.
// A completed run is bit-for-bit identical to Run with the same Config.
func RunContext(ctx context.Context, cfg Config, prog *Program) (Result, error) {
	return resultOf(machine.RunProgram(ctx, cfg, prog.p))
}

func resultOf(o machine.Outcome, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	res := resultFrom(o.Stats, o.Output)
	res.Timeline = o.Timeline
	return res, nil
}

// Workloads lists the bundled benchmark names in the paper's Table 1
// order.
func Workloads() []string { return workload.Names() }

// BuildWorkload constructs one of the bundled benchmark programs.
func BuildWorkload(name string) (*Program, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("tcsim: unknown workload %q (have %v)", name, workload.Names())
	}
	return &Program{p: w.Build()}, nil
}

// RunWorkload builds and runs a bundled benchmark. When cfg.MaxInsts is
// zero the workload's default instruction budget applies.
func RunWorkload(cfg Config, name string) (Result, error) {
	return RunWorkloadContext(context.Background(), cfg, name)
}

// RunWorkloadContext is RunWorkload with cancellation (see RunContext).
// Runs go through the process-wide trace store: the first run of a
// (workload, budget) pair captures the correct-path stream, every later
// run replays it — bit-for-bit identical, minus the emulation cost.
func RunWorkloadContext(ctx context.Context, cfg Config, name string) (Result, error) {
	return RunWorkloadContextIn(ctx, cfg, name, tracestore.Shared())
}

// RunWorkloadContextIn is RunWorkloadContext against an explicit trace
// store instead of the process-wide one. Serving layers that host
// several isolated engines in one process (the cluster tests boot three
// nodes in-process) give each its own store so "captured once per node"
// stays observable; a nil store selects the shared one.
func RunWorkloadContextIn(ctx context.Context, cfg Config, name string, st *TraceStore) (Result, error) {
	return resultOf(machine.Run(ctx, cfg, name, st))
}

// Suite reproduces the paper's tables and figures while sharing one
// memoized simulation runner, so sweeps common to several figures (the
// baseline most of all) simulate exactly once per suite. Figures may be
// reproduced concurrently; duplicate work is collapsed by singleflight.
type Suite struct {
	r *experiments.Runner
}

// NewSuite returns a figure-reproduction suite. insts bounds each
// simulation (0 = the workloads' defaults).
func NewSuite(insts uint64) *Suite {
	return &Suite{r: experiments.NewRunner(insts)}
}

// Simulations reports how many simulations the suite has actually
// executed so far (memoized reuse excluded).
func (s *Suite) Simulations() uint64 { return s.r.SimCount() }

// ReproduceFigure regenerates one of the paper's tables or figures and
// returns it formatted. Valid ids: "table1", "fig3", "fig4", "fig5",
// "fig6", "fig7", "fig8", "table2", "ablations". insts bounds each
// simulation (0 = the workloads' defaults). Each call builds a fresh
// Suite; callers reproducing several figures should share one Suite so
// common sweeps are simulated only once.
func ReproduceFigure(id string, insts uint64) (string, error) {
	return NewSuite(insts).Reproduce(id)
}

// Reproduce regenerates one table or figure (ids as ReproduceFigure),
// reusing every simulation the suite has already run.
func (s *Suite) Reproduce(id string) (string, error) {
	r := s.r
	switch id {
	case "table1":
		return experiments.FormatTable1(r.Insts), nil
	case "fig3":
		return format(r.Figure3())
	case "fig4":
		return format(r.Figure4())
	case "fig5":
		return format(r.Figure5())
	case "fig6":
		return format(r.Figure6())
	case "fig7":
		return format(r.Figure7())
	case "fig8":
		return format(r.Figure8())
	case "table2":
		return format(r.Table2())
	case "ablations":
		a, err := r.Ablations()
		if err != nil {
			return "", err
		}
		return a.Format(r.WorkloadNames()), nil
	case PoliciesExperimentID:
		p, err := r.PolicyLab()
		if err != nil {
			return "", err
		}
		return p.Format(r.WorkloadNames()), nil
	case SamplingExperimentID:
		return s.Sampling(0, 0, SamplingConfig{})
	}
	return "", fmt.Errorf("tcsim: unknown experiment %q", id)
}

// format renders a reproduced figure, or passes its error on.
func format[F interface{ Format() string }](f F, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return f.Format(), nil
}

// Sampling reproduces the sampled-timing validation figure: sampled vs
// exact IPC per workload at valInsts (0 = 2M) with error and
// CI-coverage columns, then a headline sampled sweep at headInsts
// (0 = 50M) that detailed timing cannot reach. A disabled plan selects
// the per-budget default. Validation simulations are memoized like
// every other figure; headline runs are wall-timed and never cached.
func (s *Suite) Sampling(valInsts, headInsts uint64, plan SamplingConfig) (string, error) {
	return format(s.r.Sampling(valInsts, headInsts, plan))
}

// ExperimentIDs lists every table/figure id reproduced by the "all"
// sweep. The replacement-policy lab (PoliciesExperimentID) is reproduced
// on explicit request only — it is this simulator's extension, not one
// of the paper's figures, so "all" output stays stable.
func ExperimentIDs() []string {
	return []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "ablations"}
}

// PoliciesExperimentID reproduces the registry-generated replacement
// policy x workload figure (IPC and trace-cache hit rate under every
// registered policy, the Belady oracle as the upper-bound column).
const PoliciesExperimentID = "policies"

// SamplingExperimentID reproduces the sampled-timing validation figure
// (sampled vs exact IPC with CI coverage, plus a long-budget headline
// sweep). Like the policy lab it is this simulator's extension, not one
// of the paper's figures, and runs on explicit request only so the
// "all" sweep's output stays stable.
const SamplingExperimentID = "sampling"
