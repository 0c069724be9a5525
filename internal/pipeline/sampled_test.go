package pipeline

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"tcsim/internal/emu"
	"tcsim/internal/tracestore"
	"tcsim/internal/workload"
)

func buildWorkload(t testing.TB, name string) *Simulator {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000
	sim, err := New(cfg, w.Build())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestSampledRunEstimatesIPC checks the sampled-mode contract on a live
// run: the estimate lands near the exact IPC, inside its own confidence
// interval, with the budget's instructions fully accounted for across
// warm-up, measured windows and fast-forward.
func TestSampledRunEstimatesIPC(t *testing.T) {
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("no workload compress")
	}
	const budget = 300_000
	cfg := DefaultConfig()
	cfg.MaxInsts = budget
	cfg.Sampling = SamplingConfig{Period: 60_000, WindowLen: 10_000, Warmup: 5_000}
	sim, err := New(cfg, w.Build())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	ss := stats.Sampled
	if ss == nil {
		t.Fatal("sampled run returned nil Stats.Sampled")
	}
	if ss.Windows != 5 || len(ss.WindowIPC) != 5 {
		t.Fatalf("expected 5 measured windows, got %d (ipc %v)", ss.Windows, ss.WindowIPC)
	}
	if stats.IPC != ss.IPC {
		t.Errorf("Stats.IPC %v != sampled estimate %v", stats.IPC, ss.IPC)
	}
	if !(ss.CILow <= ss.IPC && ss.IPC <= ss.CIHigh) {
		t.Errorf("estimate %v outside its own CI [%v, %v]", ss.IPC, ss.CILow, ss.CIHigh)
	}
	if stats.Retired != budget {
		t.Errorf("retired %d, want the full budget %d", stats.Retired, budget)
	}
	if ss.InstsFFwd == 0 || ss.InstsSkipped != 0 || ss.Seeks != 0 {
		t.Errorf("warm mode should fast-forward, never seek: ffwd=%d skipped=%d seeks=%d",
			ss.InstsFFwd, ss.InstsSkipped, ss.Seeks)
	}
	acct := ss.InstsWarmup + ss.InstsDetailed + ss.InstsFFwd + ss.InstsSkipped
	// Drained instructions between window end and gap start are retired
	// under detailed timing but tallied nowhere; allow that slack.
	if acct > budget || budget-acct > 5_000 {
		t.Errorf("instruction accounting off: %d warmup + %d detailed + %d ffwd + %d skipped = %d, budget %d",
			ss.InstsWarmup, ss.InstsDetailed, ss.InstsFFwd, ss.InstsSkipped, acct, budget)
	}

	// Compare against the exact run: not an acceptance-grade bound (that
	// is tcexp -exp sampling at 2M), just a sanity corridor.
	exact, err := buildWorkload(t, "compress").Run()
	if err != nil {
		t.Fatal(err)
	}
	if exact.Sampled != nil {
		t.Error("exact run attached Stats.Sampled")
	}
	if relerr := math.Abs(ss.IPC-exact.IPC) / exact.IPC; relerr > 0.15 {
		t.Errorf("sampled IPC %v vs exact %v: relative error %.3f > 0.15", ss.IPC, exact.IPC, relerr)
	}
}

// TestSampledRunDeterminism: the same config yields byte-identical
// sampled results — no wall-clock or map-order dependence anywhere in
// the estimate.
func TestSampledRunDeterminism(t *testing.T) {
	run := func() Stats {
		w, _ := workload.ByName("li")
		cfg := DefaultConfig()
		cfg.MaxInsts = 250_000
		cfg.Sampling = SamplingConfig{Period: 50_000, WindowLen: 8_000, Warmup: 4_000}
		sim, err := New(cfg, w.Build())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSampledSeekMode runs seek-mode sampling over a checkpoint log:
// gaps are skipped via checkpoint restores rather than functionally
// warmed, and the counters say so.
func TestSampledSeekMode(t *testing.T) {
	w, _ := workload.ByName("compress")
	prog := w.Build()
	const budget = 300_000
	cfg := DefaultConfig()
	cfg.MaxInsts = budget
	cfg.Sampling = SamplingConfig{Period: 60_000, WindowLen: 10_000, Warmup: 5_000, Seek: true}

	run := func() Stats {
		log, err := tracestore.CaptureCheckpointLog("compress", prog, budget)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Oracle = tracestore.NewCkptSource(prog, log, MaxOracleLead(cfg))
		sim, err := New(c, prog)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	stats := run()
	ss := stats.Sampled
	if ss == nil {
		t.Fatal("nil Stats.Sampled")
	}
	if ss.Seeks == 0 || ss.InstsSkipped == 0 {
		t.Errorf("seek mode never seeked: seeks=%d skipped=%d", ss.Seeks, ss.InstsSkipped)
	}
	if ss.InstsFFwd != 0 {
		t.Errorf("seek mode fast-forwarded %d insts", ss.InstsFFwd)
	}
	if ss.CheckpointRestores == 0 {
		t.Error("no checkpoint restore despite 32k-interval checkpoints and 45k gaps")
	}
	if stats.Retired != budget {
		t.Errorf("retired %d, want %d", stats.Retired, budget)
	}
	if !reflect.DeepEqual(stats, run()) {
		t.Error("seek-mode sampled run is not deterministic")
	}
}

// TestSampledSeekOverReplay: a full captured trace is seekable too
// (Replay implements emu.Seeker by advancing its cursor).
func TestSampledSeekOverReplay(t *testing.T) {
	w, _ := workload.ByName("li")
	prog := w.Build()
	const budget = 250_000
	tr, err := tracestore.Capture("li", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = budget
	cfg.Sampling = SamplingConfig{Period: 50_000, WindowLen: 8_000, Warmup: 4_000, Seek: true}
	cfg.Oracle = tr.NewReplay()
	cfg.Future = tr
	sim, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sampled == nil || stats.Sampled.Seeks == 0 {
		t.Fatalf("expected seeks over replay, got %+v", stats.Sampled)
	}
	if stats.Retired != budget {
		t.Errorf("retired %d, want %d", stats.Retired, budget)
	}
}

// TestSamplingConfigRejected pins construction-time validation.
func TestSamplingConfigRejected(t *testing.T) {
	w, _ := workload.ByName("compress")
	prog := w.Build()
	cases := []struct {
		name string
		sc   SamplingConfig
		want string
	}{
		{"zero window", SamplingConfig{Period: 100_000, Warmup: 5_000}, "window length"},
		{"period too small", SamplingConfig{Period: 10_000, WindowLen: 8_000, Warmup: 4_000}, "must exceed"},
		{"seek without seekable oracle", SamplingConfig{Period: 100_000, WindowLen: 8_000, Seek: true}, "seekable oracle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Sampling = tc.sc
			if _, err := New(cfg, prog); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestDefaultSamplingFor pins the plan shape the CLIs rely on.
func TestDefaultSamplingFor(t *testing.T) {
	small := DefaultSamplingFor(1_000_000)
	if small.Period != 50_000 || small.WindowLen != 10_000 || small.Warmup != 20_000 {
		t.Errorf("1M plan = %+v", small)
	}
	big := DefaultSamplingFor(50_000_000)
	if big.Period != 1_000_000 {
		t.Errorf("50M plan period = %d, want 1000000", big.Period)
	}
	if err := small.Validate(); err != nil {
		t.Error(err)
	}
	if err := big.Validate(); err != nil {
		t.Error(err)
	}
	if (SamplingConfig{}).Enabled() {
		t.Error("zero config reports enabled")
	}
}

// TestFastForwardStaysAllocationFree pins the fast-forward hot path at
// exactly zero heap allocations, the analogue of TestStepSteadyStateAllocs
// for sampled mode, over both sources a sampled run fast-forwards:
//
//   - replay: a captured trace (every sampled run at or below
//     tracestore.FullCaptureLimit);
//   - live: an emu.Oracle over a live emu.Machine, which pipeline.New
//     builds when no oracle is supplied (warm mode above the limit).
//     This is the functional emulator's own hot path: fetch from the
//     decoded text table, execute, push into the pre-sized ring.
//
// The first sweep over a region charges one-time growth: predictor
// tables for new branch PCs and, on the live source, emu.Memory's first
// touch of each data page. The warm half covers the loop bodies and
// data pages the measured half reuses, so every remaining allocation
// would be a per-instruction cost. Mallocs are counted exactly (see
// mallocs), not through allocs/op, which rounds down.
func TestFastForwardStaysAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w, _ := workload.ByName("compress")
	prog := w.Build()
	const budget = 1_000_000
	tr, err := tracestore.Capture("compress", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	const warmEnd, end, chunk = budget / 2, uint64(budget), uint64(1_000)
	sources := []struct {
		name   string
		oracle emu.Source // nil: pipeline.New's live emulator
	}{
		{"replay", tr.NewReplay()},
		{"live", nil},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Oracle = src.oracle
			sim, err := New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.FastForward(warmEnd); err != nil {
				t.Fatal(err)
			}
			var ffErr error
			n := mallocs(func() {
				for pos := warmEnd + chunk; pos <= end && ffErr == nil; pos += chunk {
					ffErr = sim.FastForward(pos)
				}
			})
			if ffErr != nil {
				t.Fatal(ffErr)
			}
			if n != 0 {
				t.Errorf("FastForward over %d warm instructions made %d heap allocations, want 0", end-warmEnd, n)
			}
		})
	}
}
