package core

import (
	"testing"

	"tcsim/internal/bpred"
	"tcsim/internal/emu"
	"tcsim/internal/workload"
)

// TestFillSteadyStateAllocs pins the fill unit's allocation discipline:
// with segment storage recycled (as the pipeline does for evicted trace
// lines), the Collect/Drain loop — segment construction plus all four
// optimization passes — allocates nothing in steady state.
func TestFillSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("no workload compress")
	}
	m := emu.New(w.Build())
	cfg := DefaultConfig()
	cfg.Opt = AllOptimizations()
	f := MustNew(cfg, bpred.NewBiasTable(8<<10, 64))

	seq := uint64(0)
	step := func() {
		rec, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		f.Collect(rec, seq)
		for _, seg := range f.Drain(seq) {
			f.RecycleSegment(seg)
		}
		seq++
	}
	for i := 0; i < 30_000; i++ {
		step()
	}
	avg := testing.AllocsPerRun(5000, step)
	if avg > 0.01 {
		t.Errorf("steady-state Collect/Drain allocates %.4f allocs/inst, want ~0", avg)
	}
}

// TestFinalizeAllocsPassManager pins the pass manager's allocation
// discipline: under an explicit five-pass spec (with per-pass timing
// enabled, the most work the pipeline can do per segment), finalize and
// the pass pipeline allocate nothing in steady state.
func TestFinalizeAllocsPassManager(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("no workload gcc")
	}
	m := emu.New(w.Build())
	cfg := DefaultConfig()
	cfg.Passes = []string{"reassoc", "moves", "scadd", "deadwrite", "place"}
	cfg.TimePasses = true
	f, err := New(cfg, bpred.NewBiasTable(8<<10, 64))
	if err != nil {
		t.Fatal(err)
	}

	seq := uint64(0)
	step := func() {
		rec, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		f.Collect(rec, seq)
		for _, seg := range f.Drain(seq) {
			f.RecycleSegment(seg)
		}
		seq++
	}
	for i := 0; i < 30_000; i++ {
		step()
	}
	avg := testing.AllocsPerRun(5000, step)
	if avg > 0.01 {
		t.Errorf("pass-manager finalize allocates %.4f allocs/inst, want 0", avg)
	}
}

// TestPassSpecAllocs pins the spec builders at one allocation each,
// the result: the registry is kept in canonical order as passes
// register, so building a spec never copies or sorts it. Every
// machine.Config.Canonical, and so every job request, builds one.
func TestPassSpecAllocs(t *testing.T) {
	for name, spec := range map[string]func() []string{
		"AllOptimizations().PassSpec": func() []string { return AllOptimizations().PassSpec() },
		"Optimizations{}.PassSpec":    func() []string { return Optimizations{}.PassSpec() },
		"DefaultPassSpec":             DefaultPassSpec,
		"PassNames":                   PassNames,
	} {
		if n := testing.AllocsPerRun(100, func() { _ = spec() }); n != 1 {
			t.Errorf("%s: %.0f allocations, want 1", name, n)
		}
	}
}
