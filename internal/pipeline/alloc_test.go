package pipeline

import (
	"runtime"
	"testing"

	"tcsim/internal/emu"
	"tcsim/internal/obs"
	"tcsim/internal/replace"
	"tcsim/internal/tracestore"
	"tcsim/internal/workload"
)

// stepMallocs advances sim n cycles and returns the exact number of heap
// allocations made meanwhile.
func stepMallocs(sim *Simulator, n int) uint64 {
	return mallocs(func() {
		for i := 0; i < n; i++ {
			sim.Step()
		}
	})
}

// mallocs runs f and returns the exact number of heap allocations it
// made. testing.AllocsPerRun reports mallocs/n rounded down to an
// integer, so it hides up to n-1 allocations per measurement; this
// reads runtime.MemStats.Mallocs directly. GOMAXPROCS is pinned to 1,
// as AllocsPerRun does, so no other goroutine allocates in parallel
// with f.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStepSteadyStateAllocs pins the allocation-free cycle loop: once
// the machine is warm (trace cache populated, uop pool filled, ring
// buffers grown), advancing the pipeline allocates nothing. Every uop
// comes from the deferred-reclamation pool, the fetch latch and issue
// scratch are reused, checkpoint snapshots are recycled, and evicted
// trace lines feed segment construction.
//
// Step drives the live functional emulator too (the oracle steps the
// machine from inside At), so this budget covers the emulation side as
// well: the oracle ring is pre-sized to the pipeline's maximum
// fetch-ahead and emu.Memory's pages are warm after warmup. gcc is in
// the roster because it historically carried the worst emulation-side
// allocation rate (136 allocs/1k-insts before the ring was pre-sized).
func TestStepSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"compress", "gcc", "li", "m88ksim"} {
		t.Run(name, func(t *testing.T) {
			w, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("no workload %s", name)
			}
			cfg := DefaultConfig()
			cfg.MaxInsts = 0 // run past the measurement window
			sim, err := New(cfg, w.Build())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30_000; i++ {
				sim.Step()
			}
			if sim.Done() {
				t.Fatal("workload halted during warmup; cannot measure steady state")
			}
			n := stepMallocs(sim, 2000)
			if sim.Done() {
				t.Fatal("workload halted during measurement")
			}
			if n != 0 {
				t.Errorf("steady-state Step made %d heap allocations in 2000 cycles, want 0", n)
			}
		})
	}
}

// TestStepSteadyStateAllocsPerPolicy pins the allocation-free cycle
// loop under every registered replacement policy: the policy seam's
// touch/insert/victim hooks — including the belady oracle's
// future-index binary searches — must not put allocations on the hot
// path. Runs replay a captured trace so oracle policies have their
// future index bound.
func TestStepSteadyStateAllocsPerPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("no workload compress")
	}
	prog := w.Build()
	const budget = 200_000
	tr, err := tracestore.Capture("compress", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range replace.Names() {
		t.Run(pol, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxInsts = budget
			cfg.TCache.Policy = pol
			cfg.Cache.L1IPolicy = pol
			cfg.Oracle = tr.NewReplay()
			cfg.Future = tr
			sim, err := New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30_000; i++ {
				sim.Step()
			}
			if sim.Done() {
				t.Fatal("workload halted during warmup; cannot measure steady state")
			}
			n := stepMallocs(sim, 2000)
			if sim.Done() {
				t.Fatal("workload halted during measurement")
			}
			if n != 0 {
				t.Errorf("policy %s: steady-state Step made %d heap allocations in 2000 cycles, want 0", pol, n)
			}
		})
	}
}

// TestLiveOracleRingPreSized pins the satellite fix for the live-capture
// path: the simulator builds its oracle with the ring already sized to
// MaxOracleLead, so the start-at-1024-and-double growth copies are gone
// and the ring never grows during a run.
func TestLiveOracleRingPreSized(t *testing.T) {
	cfg := DefaultConfig()
	lead := MaxOracleLead(cfg)
	if lead <= 0 {
		t.Fatalf("MaxOracleLead = %d", lead)
	}
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("no workload compress")
	}
	cfg.MaxInsts = 50_000
	sim, err := New(cfg, w.Build())
	if err != nil {
		t.Fatal(err)
	}
	o, ok := sim.oracle.(*emu.Oracle)
	if !ok {
		t.Fatalf("default simulator oracle is %T, want *emu.Oracle", sim.oracle)
	}
	capBefore := o.RingCap()
	if capBefore < lead {
		t.Fatalf("oracle ring pre-sized to %d, want >= MaxOracleLead %d", capBefore, lead)
	}
	for !sim.Done() {
		sim.Step()
	}
	if o.RingCap() != capBefore {
		t.Errorf("oracle ring grew during the run: %d -> %d", capBefore, o.RingCap())
	}
}

// TestStepSteadyStateAllocsWithRecorder pins the same property with the
// event recorder attached: Emit writes into a preallocated ring, so a
// traced run stays allocation-free too (events past capacity are
// dropped, never grown).
func TestStepSteadyStateAllocsWithRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w, ok := workload.ByName("m88ksim")
	if !ok {
		t.Fatal("no workload m88ksim")
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = 0
	cfg.Recorder = obs.NewRecorder(1 << 12)
	sim, err := New(cfg, w.Build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30_000; i++ {
		sim.Step()
	}
	if sim.Done() {
		t.Fatal("workload halted during warmup; cannot measure steady state")
	}
	if n := stepMallocs(sim, 2000); n != 0 {
		t.Errorf("recorder-enabled Step made %d heap allocations in 2000 cycles, want 0", n)
	}
}
