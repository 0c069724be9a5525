// Package experiments regenerates every table and figure of the paper's
// evaluation: per-optimization IPC improvements (Figures 3-6), the bypass
// delay reduction (Figure 7), the combined result across fill latencies
// (Figure 8), the transformation coverage table (Table 2), the benchmark
// roster (Table 1), and the ablations DESIGN.md calls out.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"tcsim/internal/asm"
	"tcsim/internal/bpred"
	"tcsim/internal/core"
	"tcsim/internal/emu"
	"tcsim/internal/machine"
	"tcsim/internal/memo"
	"tcsim/internal/pipeline"
	"tcsim/internal/tracestore"
	"tcsim/internal/workload"
)

// Runner executes simulations with singleflight memoization so the
// figures can share runs: the memo (internal/memo, unbounded) is keyed
// by the canonical key of the resolved machine (machine.Config.Canonical,
// the key tcserved caches by), so two variants that describe the same
// machine simulate once, and when two figures concurrently ask for it,
// one simulation runs and both wait on it. Simulations run in a pool of
// GOMAXPROCS worker slots, each a machine.Slot that keeps the simulator
// of its last run, so the next run in that slot re-initializes it
// instead of allocating a new machine. The Runner holds those
// simulators for its lifetime. Create one with NewRunner; it is safe
// for concurrent use.
type Runner struct {
	// Insts overrides every workload's instruction budget when non-zero.
	Insts uint64
	// Workloads restricts the set (nil = all 15).
	Workloads []string

	runs     *memo.Cache[string, pipeline.Stats]
	slots    chan *machine.Slot // idle worker slots
	simCount atomic.Uint64      // simulations actually executed (not memo hits)
}

// NewRunner returns a Runner with an instruction budget override
// (0 keeps each workload's default).
func NewRunner(insts uint64) *Runner { return newRunner(insts, runtime.GOMAXPROCS(0)) }

// newRunner returns a Runner with the given number of worker slots.
func newRunner(insts uint64, workers int) *Runner {
	r := &Runner{
		Insts: insts,
		runs:  memo.New[string, pipeline.Stats](0, nil),
		slots: make(chan *machine.Slot, workers),
	}
	for range workers {
		r.slots <- new(machine.Slot)
	}
	return r
}

func (r *Runner) workloads() []workload.Workload {
	if r.Workloads == nil {
		return workload.All()
	}
	var out []workload.Workload
	for _, n := range r.Workloads {
		if w, ok := workload.ByName(n); ok {
			out = append(out, w)
		}
	}
	return out
}

// ConfigVariant is one machine configuration of a figure. Name labels
// profiles and the ablation columns; the memo keys on Cfg alone. A zero
// Cfg.MaxInsts takes the Runner's budget.
type ConfigVariant struct {
	Name string
	Cfg  machine.Config
}

// variant is the baseline machine changed by edit.
func variant(name string, edit func(*machine.Config)) ConfigVariant {
	cfg := machine.DefaultConfig()
	edit(&cfg)
	return ConfigVariant{Name: name, Cfg: cfg}
}

// VariantFromPasses builds a variant that runs exactly the named passes
// in the given order (a core pass spec; illegal specs surface as errors
// from the run).
func VariantFromPasses(name string, passes []string) ConfigVariant {
	return variant(name, func(c *machine.Config) { c.Passes = passes })
}

// VariantForPass is the one-optimization-at-a-time variant for a single
// registered pass, named after it (Figures 3-7 sweep these). Unknown
// passes are a programmer error and panic.
func VariantForPass(pass string) ConfigVariant {
	if _, ok := core.LookupPass(pass); !ok {
		panic(fmt.Sprintf("experiments: unknown pass %q", pass))
	}
	return VariantFromPasses(pass, []string{pass})
}

// Standard variants, generated from the pass registry: each single-pass
// variant runs exactly that pass; AllOpts runs the paper's combined
// pipeline (every Default pass in canonical order).
var (
	Baseline    = ConfigVariant{Name: "baseline", Cfg: machine.DefaultConfig()}
	MovesOnly   = VariantForPass("moves")
	ReassocOnly = VariantForPass("reassoc")
	ScaledOnly  = VariantForPass("scadd")
	PlaceOnly   = VariantForPass("place")
	AllOpts     = VariantFromPasses("all", core.DefaultPassSpec())
)

// AllOptsLatency returns the combined configuration with a specific fill
// latency (Figure 8 sweeps 1, 5 and 10 cycles).
func AllOptsLatency(lat int) ConfigVariant {
	return variant(fmt.Sprintf("all@lat%d", lat), func(c *machine.Config) {
		c.Passes = core.DefaultPassSpec()
		c.FillLatency = lat
	})
}

// Run simulates one workload under one variant, memoized.
func (r *Runner) Run(w workload.Workload, v ConfigVariant) (pipeline.Stats, error) {
	return r.RunContext(context.Background(), w, v)
}

// RunContext is Run with cancellation: the simulation polls ctx and
// aborts early when it is cancelled. Completed results are memoized for
// the Runner's lifetime; a failed or cancelled run is forgotten, so a
// later caller runs the machine again.
func (r *Runner) RunContext(ctx context.Context, w workload.Workload, v ConfigVariant) (pipeline.Stats, error) {
	cfg := v.Cfg
	if cfg.MaxInsts == 0 {
		cfg.MaxInsts = r.Insts
	}
	cfg, key, err := cfg.Canonical(w.Name)
	if err != nil {
		return pipeline.Stats{}, fmt.Errorf("%s/%s: %w", w.Name, v.Name, err)
	}
	st, _, err := r.runs.Do(ctx, key, func() (pipeline.Stats, error) {
		out, err := r.simulate(ctx, w.Name, v.Name, cfg)
		return out.Stats, err
	})
	return st, err
}

func isCancel(err error) bool {
	return err != nil && (errors.Is(err, pipeline.ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// simulate runs one actual simulation of a resolved config in a worker
// slot, on the simulator that slot's last run left.
func (r *Runner) simulate(ctx context.Context, name, label string, cfg machine.Config) (machine.Outcome, error) {
	var slot *machine.Slot
	select {
	case slot = <-r.slots:
	case <-ctx.Done():
		return machine.Outcome{}, ctx.Err()
	}
	defer func() { r.slots <- slot }()
	if err := ctx.Err(); err != nil {
		return machine.Outcome{}, err
	}

	r.simCount.Add(1)
	// Every variant of a workload consumes the same correct-path stream:
	// the shared trace store captures it once and replays it here, so a
	// sweep pays emulation per workload, not per (workload × variant).
	// Label the simulation so profiles split sweep time by workload and
	// variant; the run adds its capture-vs-replay phase.
	var out machine.Outcome
	var err error
	pprof.Do(ctx, pprof.Labels("workload", name, "variant", label), func(ctx context.Context) {
		out, err = slot.Run(ctx, cfg, name, tracestore.Shared())
	})
	if err != nil {
		return machine.Outcome{}, fmt.Errorf("%s/%s: %w", name, label, err)
	}
	return out, nil
}

// SimCount reports how many simulations have actually executed (memo
// hits and singleflight waiters excluded) — a test and reporting hook.
func (r *Runner) SimCount() uint64 { return r.simCount.Load() }

// runAll executes the variant over every selected workload, in parallel.
// The worker pool inside simulate bounds concurrency, so one goroutine
// per workload is cheap; the first real error cancels the rest.
func (r *Runner) runAll(v ConfigVariant) (map[string]pipeline.Stats, error) {
	return r.runAllContext(context.Background(), v)
}

func (r *Runner) runAllContext(ctx context.Context, v ConfigVariant) (map[string]pipeline.Stats, error) {
	ws := r.workloads()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	out := make(map[string]pipeline.Stats, len(ws))
	var firstErr error
	for _, w := range ws {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := r.RunContext(ctx, w, v)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// Cancellation fallout from a sibling's failure is not
				// the root cause; record only real errors.
				if firstErr == nil && !isCancel(err) {
					firstErr = err
					cancel()
				}
				return
			}
			out[w.Name] = st
		}()
	}
	wg.Wait()
	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}
	return out, firstErr
}

// BenchRow is one benchmark's entry in a figure: baseline and optimized
// IPC, the improvement, and the paper's approximate reported improvement
// where the text quotes one (NaN-free: 0 means "not individually quoted").
type BenchRow struct {
	Name       string
	BaseIPC    float64
	OptIPC     float64
	ImprovePct float64
	PaperPct   float64
}

// FigureResult is a reproduced per-optimization figure.
type FigureResult struct {
	ID       string
	Title    string
	Rows     []BenchRow
	AvgPct   float64 // arithmetic mean of per-benchmark improvements
	PaperAvg float64
}

// improvementFigure runs baseline vs. variant over all workloads.
func (r *Runner) improvementFigure(id, title string, v ConfigVariant, paperAvg float64, paperPer map[string]float64) (*FigureResult, error) {
	base, err := r.runAll(Baseline)
	if err != nil {
		return nil, err
	}
	opt, err := r.runAll(v)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{ID: id, Title: title, PaperAvg: paperAvg}
	sum := 0.0
	for _, w := range r.workloads() {
		b, o := base[w.Name], opt[w.Name]
		imp := 0.0
		if b.IPC > 0 {
			imp = 100 * (o.IPC - b.IPC) / b.IPC
		}
		sum += imp
		res.Rows = append(res.Rows, BenchRow{
			Name: w.Name, BaseIPC: b.IPC, OptIPC: o.IPC,
			ImprovePct: imp, PaperPct: paperPer[w.Name],
		})
	}
	if len(res.Rows) > 0 {
		res.AvgPct = sum / float64(len(res.Rows))
	}
	return res, nil
}

// Figure3 reproduces the register-move figure (paper avg: ~5%).
func (r *Runner) Figure3() (*FigureResult, error) {
	return r.improvementFigure("fig3", "IPC improvement of register move handling", MovesOnly, 5,
		nil)
}

// Figure4 reproduces the reassociation figure (paper: 1-2% for ten of
// fifteen; m88ksim and chess 23%; ijpeg 6%; gs 8%).
func (r *Runner) Figure4() (*FigureResult, error) {
	return r.improvementFigure("fig4", "IPC improvement of fill unit reassociation", ReassocOnly, 5.5,
		map[string]float64{"m88ksim": 23, "chess": 23, "ijpeg": 6, "gs": 8})
}

// Figure5 reproduces the scaled-add figure (paper: 1%..8%, avg 3.7%).
func (r *Runner) Figure5() (*FigureResult, error) {
	return r.improvementFigure("fig5", "IPC improvement of scaled add instructions", ScaledOnly, 3.7,
		map[string]float64{"go": 8, "tex": 8, "li": 1, "vortex": 1, "pgp": 1, "plot": 1})
}

// Figure6 reproduces the instruction-placement figure (paper avg 5%;
// ijpeg 11%; tex 1%).
func (r *Runner) Figure6() (*FigureResult, error) {
	return r.improvementFigure("fig6", "IPC improvement of fill unit instruction placement", PlaceOnly, 5,
		map[string]float64{"ijpeg": 11, "tex": 1})
}

// BypassRow is one benchmark's Figure 7 entry: the percentage of on-path
// instructions whose last-arriving operand was delayed by the bypass
// network, baseline vs. placement.
type BypassRow struct {
	Name         string
	BaselinePct  float64
	PlacementPct float64
}

// Figure7Result reproduces the bypass-delay reduction figure.
type Figure7Result struct {
	Rows        []BypassRow
	BaseAvg     float64
	PlaceAvg    float64
	PaperBase   float64 // ~35%
	PaperPlaced float64 // ~29%
}

// Figure7 reproduces the bypass-delay figure.
func (r *Runner) Figure7() (*Figure7Result, error) {
	base, err := r.runAll(Baseline)
	if err != nil {
		return nil, err
	}
	place, err := r.runAll(PlaceOnly)
	if err != nil {
		return nil, err
	}
	res := &Figure7Result{PaperBase: 35, PaperPlaced: 29}
	var sb, sp float64
	for _, w := range r.workloads() {
		row := BypassRow{
			Name:         w.Name,
			BaselinePct:  100 * base[w.Name].BypassDelayRate(),
			PlacementPct: 100 * place[w.Name].BypassDelayRate(),
		}
		sb += row.BaselinePct
		sp += row.PlacementPct
		res.Rows = append(res.Rows, row)
	}
	if n := float64(len(res.Rows)); n > 0 {
		res.BaseAvg, res.PlaceAvg = sb/n, sp/n
	}
	return res, nil
}

// Figure8Row is one benchmark's combined result across fill latencies.
type Figure8Row struct {
	Name       string
	BaseIPC    float64
	IPCLat1    float64
	IPCLat5    float64
	IPCLat10   float64
	ImprovePct float64 // at the 5-cycle fill unit, as the paper reports
	PaperPct   float64
}

// Figure8Result reproduces the combined-optimizations figure.
type Figure8Result struct {
	Rows     []Figure8Row
	AvgPct   float64
	PaperAvg float64 // ~18%
}

// Figure8 reproduces the combined figure with 1-, 5- and 10-cycle fill
// units (paper: ~18% average, m88ksim 44%, chess 38%, compress/gcc/go/
// plot 13-14%, latency impact negligible).
func (r *Runner) Figure8() (*Figure8Result, error) {
	base, err := r.runAll(Baseline)
	if err != nil {
		return nil, err
	}
	lat1, err := r.runAll(AllOptsLatency(1))
	if err != nil {
		return nil, err
	}
	lat5, err := r.runAll(AllOptsLatency(5))
	if err != nil {
		return nil, err
	}
	lat10, err := r.runAll(AllOptsLatency(10))
	if err != nil {
		return nil, err
	}
	paper := map[string]float64{"m88ksim": 44, "chess": 38, "compress": 13.5,
		"gcc": 13.5, "go": 13.5, "plot": 13.5}
	res := &Figure8Result{PaperAvg: 18}
	sum := 0.0
	for _, w := range r.workloads() {
		b := base[w.Name]
		row := Figure8Row{
			Name:     w.Name,
			BaseIPC:  b.IPC,
			IPCLat1:  lat1[w.Name].IPC,
			IPCLat5:  lat5[w.Name].IPC,
			IPCLat10: lat10[w.Name].IPC,
			PaperPct: paper[w.Name],
		}
		if b.IPC > 0 {
			row.ImprovePct = 100 * (row.IPCLat5 - b.IPC) / b.IPC
		}
		sum += row.ImprovePct
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) > 0 {
		res.AvgPct = sum / float64(len(res.Rows))
	}
	return res, nil
}

// Table2Row is one benchmark's transformation coverage.
type Table2Row struct {
	Name                                  string
	MovesPct, ReassocPct, ScaledPct       float64
	TotalPct                              float64
	PaperMoves, PaperReassoc, PaperScaled float64
	PaperTotal                            float64
}

// Table2Result reproduces the percentage-of-instructions-transformed
// table.
type Table2Result struct {
	Rows          []Table2Row
	AvgTotal      float64
	PaperAvgTotal float64 // "slightly more than 13%"
}

// Table2 measures, under the combined configuration, the percentage of
// retired instructions carrying each transformation.
func (r *Runner) Table2() (*Table2Result, error) {
	all, err := r.runAll(AllOpts)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{PaperAvgTotal: 13.3}
	sum := 0.0
	for _, w := range r.workloads() {
		st := all[w.Name]
		ret := float64(st.Retired)
		if ret == 0 {
			ret = 1
		}
		row := Table2Row{
			Name:         w.Name,
			MovesPct:     100 * float64(st.RetiredMoves) / ret,
			ReassocPct:   100 * float64(st.RetiredReassoc) / ret,
			ScaledPct:    100 * float64(st.RetiredScaled) / ret,
			TotalPct:     100 * float64(st.RetiredAnyOpt) / ret,
			PaperMoves:   w.Table2[0],
			PaperReassoc: w.Table2[1],
			PaperScaled:  w.Table2[2],
			PaperTotal:   w.Table2[0] + w.Table2[1] + w.Table2[2],
		}
		sum += row.TotalPct
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) > 0 {
		res.AvgTotal = sum / float64(len(res.Rows))
	}
	return res, nil
}

// AblationResult compares design-choice ablations beyond the paper's
// figures: promotion, trace packing, inactive issue, the trace cache
// itself, and the cluster organization.
type AblationResult struct {
	Variants []string
	// IPC[workload][variant index]
	IPC map[string][]float64
}

// Ablations runs the ablation matrix.
func (r *Runner) Ablations() (*AblationResult, error) {
	variants := []ConfigVariant{
		Baseline,
		variant("no-promotion", func(c *machine.Config) { c.Promotion = false }),
		variant("no-packing", func(c *machine.Config) { c.TracePacking = false }),
		variant("no-inactive", func(c *machine.Config) { c.InactiveIssue = false }),
		variant("no-tcache", func(c *machine.Config) { c.UseTraceCache = false }),
		// Every registered pass in canonical order: the combined
		// configuration plus the dead-write extension — and any custom
		// pass the embedding program registers, with no edits here.
		VariantFromPasses("all+dwe", core.AllPassSpec()),
		variant("1x16", func(c *machine.Config) { c.Clusters, c.FUsPerCluster = 1, 16 }),
		variant("8x2", func(c *machine.Config) { c.Clusters, c.FUsPerCluster = 8, 2 }),
	}
	res := &AblationResult{IPC: make(map[string][]float64)}
	for _, v := range variants {
		res.Variants = append(res.Variants, v.Name)
		stats, err := r.runAll(v)
		if err != nil {
			return nil, err
		}
		for _, w := range r.workloads() {
			res.IPC[w.Name] = append(res.IPC[w.Name], stats[w.Name].IPC)
		}
	}
	return res, nil
}

// WorkloadNames returns the selected workload names in order.
func (r *Runner) WorkloadNames() []string {
	var ns []string
	for _, w := range r.workloads() {
		ns = append(ns, w.Name)
	}
	return ns
}

// FillOnly drives the fill unit (with every optimization enabled)
// directly from the functional emulator's retire stream, bypassing the
// timing pipeline — a pure benchmark of segment construction and the
// four optimization passes.
func FillOnly(prog *asm.Program, insts uint64) error {
	m := emu.New(prog)
	cfg := core.DefaultConfig()
	cfg.Opt = core.AllOptimizations()
	f, err := core.New(cfg, bpred.NewBiasTable(8<<10, 64))
	if err != nil {
		return err
	}
	for i := uint64(0); i < insts; i++ {
		rec, err := m.Step()
		if err != nil {
			return err
		}
		f.Collect(rec, i)
		f.Drain(i)
	}
	f.Flush(insts)
	return nil
}
