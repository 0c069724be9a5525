package tcsim_test

import (
	"runtime"
	"testing"

	"tcsim"
	"tcsim/internal/asm"
	"tcsim/internal/experiments"
	"tcsim/internal/pipeline"
	"tcsim/internal/replace"
	"tcsim/internal/tracestore"
	"tcsim/internal/workload"
)

// benchInsts bounds each simulation inside the benchmark harness. The
// figures stabilize by ~50k retired instructions per run; cmd/tcexp
// defaults to 200k for reported numbers.
const benchInsts = 50_000

// BenchmarkTable1Workloads measures raw simulation throughput over every
// bundled benchmark on the baseline machine — the roster of paper
// Table 1. The reported metric is simulated instructions per wall
// second, plus each workload's IPC.
func BenchmarkTable1Workloads(b *testing.B) {
	for _, name := range tcsim.Workloads() {
		b.Run(name, func(b *testing.B) {
			cfg := tcsim.DefaultConfig()
			cfg.MaxInsts = benchInsts
			var lastIPC float64
			var insts uint64
			for i := 0; i < b.N; i++ {
				r, err := tcsim.RunWorkload(cfg, name)
				if err != nil {
					b.Fatal(err)
				}
				lastIPC = r.IPC
				insts += r.Retired
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-inst/s")
			b.ReportMetric(lastIPC, "IPC")
		})
	}
}

// benchImprovement runs baseline vs. one optimization over the full
// suite and reports the mean IPC improvement — the figure's headline
// number.
func benchImprovement(b *testing.B, fig func(r *experiments.Runner) (*experiments.FigureResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInsts)
		res, err := fig(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgPct, "avg-improvement-%")
		b.ReportMetric(res.PaperAvg, "paper-%")
	}
}

// BenchmarkFig3RegisterMoves regenerates Figure 3: the IPC improvement
// from executing marked register moves in rename (paper average ~5%).
func BenchmarkFig3RegisterMoves(b *testing.B) {
	benchImprovement(b, (*experiments.Runner).Figure3)
}

// BenchmarkFig4Reassociation regenerates Figure 4: the IPC improvement
// from cross-block reassociation (paper: 1-2% for most, 23% for m88ksim
// and chess).
func BenchmarkFig4Reassociation(b *testing.B) {
	benchImprovement(b, (*experiments.Runner).Figure4)
}

// BenchmarkFig5ScaledAdds regenerates Figure 5: the IPC improvement from
// collapsing shift+add pairs (paper average 3.7%).
func BenchmarkFig5ScaledAdds(b *testing.B) {
	benchImprovement(b, (*experiments.Runner).Figure5)
}

// BenchmarkFig6Placement regenerates Figure 6: the IPC improvement from
// cluster-aware instruction placement (paper average 5%).
func BenchmarkFig6Placement(b *testing.B) {
	benchImprovement(b, (*experiments.Runner).Figure6)
}

// BenchmarkFig7BypassDelays regenerates Figure 7: the fraction of
// instructions whose last-arriving operand crossed clusters, baseline
// vs. placement (paper: 35% -> 29%).
func BenchmarkFig7BypassDelays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInsts)
		res, err := r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BaseAvg, "baseline-delayed-%")
		b.ReportMetric(res.PlaceAvg, "placement-delayed-%")
	}
}

// BenchmarkFig8Combined regenerates Figure 8: all four optimizations
// together across 1/5/10-cycle fill units (paper: ~18% average, and
// latency-insensitive).
func BenchmarkFig8Combined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInsts)
		res, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgPct, "avg-improvement-%")
	}
}

// BenchmarkTable2Coverage regenerates Table 2: the percentage of retired
// instructions the fill unit transformed (paper average ~13%).
func BenchmarkTable2Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInsts)
		res, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgTotal, "avg-transformed-%")
	}
}

// BenchmarkAblations measures the design-choice ablations DESIGN.md
// calls out (promotion, packing, inactive issue, the trace cache itself,
// cluster organization) on a three-benchmark subset.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInsts)
		r.Workloads = []string{"compress", "m88ksim", "ijpeg"}
		if _, err := r.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}

// cycleLoopBudget bounds the captured compress trace the cycle-loop
// benchmarks and allocation guards replay.
const cycleLoopBudget = 300_000

// captureCompress captures the compress trace the cycle-loop benchmarks
// replay.
func captureCompress(tb testing.TB) (*tracestore.Trace, *asm.Program) {
	tb.Helper()
	w, _ := workload.ByName("compress")
	prog := w.Build()
	tr, err := tracestore.Capture("compress", prog, cycleLoopBudget)
	if err != nil {
		tb.Fatal(err)
	}
	return tr, prog
}

// warmReplaySim returns a simulator replaying tr, advanced 30k cycles so
// the trace cache, uop pool and ring buffers are warm. A non-empty pol
// selects that replacement policy for the trace cache and L1I and binds
// the trace as the future index oracle policies need.
func warmReplaySim(tb testing.TB, tr *tracestore.Trace, prog *asm.Program, pol string) *pipeline.Simulator {
	tb.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.MaxInsts = cycleLoopBudget
	if pol != "" {
		cfg.TCache.Policy = pol
		cfg.Cache.L1IPolicy = pol
		cfg.Future = tr
	}
	cfg.Oracle = tr.NewReplay()
	sim, err := pipeline.New(cfg, prog)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 30_000; i++ {
		sim.Step()
	}
	if sim.Done() {
		tb.Fatal("replay finished during warmup")
	}
	return sim
}

// benchSteps advances sim one cycle per iteration, re-warming a fresh
// simulator (off the clock) when the replay runs out.
func benchSteps(b *testing.B, sim *pipeline.Simulator, rewarm func() *pipeline.Simulator) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sim.Done() {
			b.StopTimer()
			sim = rewarm()
			b.StartTimer()
		}
		sim.Step()
	}
}

// stepMallocs advances sim n cycles and returns the exact number of heap
// allocations made meanwhile, read from runtime.MemStats.Mallocs with
// GOMAXPROCS pinned to 1. BenchmarkResult.AllocsPerOp would round
// mallocs/op down to an integer, hiding up to b.N-1 allocations.
func stepMallocs(sim *pipeline.Simulator, n int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sim.Step()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkCycleLoop measures the steady-state per-cycle path in
// isolation: one warm simulator advanced one cycle per iteration, one
// sub-benchmark per registered replacement policy. All variants replay a
// captured trace so oracle policies have their future index; the
// default policy's live-emulation path is covered by
// BenchmarkCycleLoop/lru plus BenchmarkReplayCycleLoop's counterpart.
// TestCycleLoopStaysAllocationFree pins the same loop at zero heap
// allocations (uop pool, reused fetch latch, recycled checkpoints and
// trace lines, and the policy's victim path — including the belady
// oracle's future-index binary searches).
func BenchmarkCycleLoop(b *testing.B) {
	tr, prog := captureCompress(b)
	for _, pol := range replace.Names() {
		b.Run(pol, func(b *testing.B) {
			rewarm := func() *pipeline.Simulator { return warmReplaySim(b, tr, prog, pol) }
			benchSteps(b, rewarm(), rewarm)
		})
	}
}

// BenchmarkReplayCycleLoop is BenchmarkCycleLoop with the oracle served
// from a captured trace instead of live emulation: the steady-state
// cycle loop of a replayed run. TestReplayStaysAllocationFree pins it at
// zero heap allocations.
func BenchmarkReplayCycleLoop(b *testing.B) {
	tr, prog := captureCompress(b)
	rewarm := func() *pipeline.Simulator { return warmReplaySim(b, tr, prog, "") }
	benchSteps(b, rewarm(), rewarm)
}

// BenchmarkFastForward measures the sampled-mode functional warm-up
// path per workload: records streamed from a captured trace, caches and
// predictors warmed, no cycle-accurate scheduling. sim-inst/s here over
// the same metric from BenchmarkCycleLoop (or BenchmarkTable1Workloads)
// is the fast-forward speedup; the acceptance floor is 20x. allocs/op
// pins the hot path's zero-allocation invariant after the first warm
// sweep (predictor tables grow once per static branch PC).
func BenchmarkFastForward(b *testing.B) {
	const budget = 1_000_000
	const warmEnd, chunk = budget / 2, uint64(10_000)
	for _, name := range tcsim.Workloads() {
		b.Run(name, func(b *testing.B) {
			w, _ := workload.ByName(name)
			prog := w.Build()
			tr, err := tracestore.Capture(name, prog, budget)
			if err != nil {
				b.Fatal(err)
			}
			warm := func() *pipeline.Simulator {
				cfg := pipeline.DefaultConfig()
				cfg.Oracle = tr.NewReplay()
				cfg.Future = tr
				sim, err := pipeline.New(cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.FastForward(warmEnd); err != nil {
					b.Fatal(err)
				}
				return sim
			}
			sim := warm()
			pos := uint64(warmEnd)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pos+chunk > budget {
					b.StopTimer()
					sim = warm()
					pos = warmEnd
					b.StartTimer()
				}
				pos += chunk
				if err := sim.FastForward(pos); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(chunk)/b.Elapsed().Seconds(), "sim-inst/s")
		})
	}
}

// BenchmarkFillUnitOnly isolates the fill unit itself (no pipeline): how
// fast segment construction plus all four optimization passes run over a
// retired instruction stream.
func BenchmarkFillUnitOnly(b *testing.B) {
	w, _ := workload.ByName("m88ksim")
	prog := w.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.FillOnly(prog, 50_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*50_000/b.Elapsed().Seconds(), "fill-inst/s")
}
