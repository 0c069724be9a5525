package tcsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"tcsim/internal/tracestore"
)

// TestSampledWorkloadDeterminism: the public workload path (store-backed
// replay) yields byte-identical sampled Results across runs — the
// property the serving layer's cache and the direct-vs-gateway
// round-trip check depend on.
func TestSampledWorkloadDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000
	cfg.Sampling = SamplingConfig{Period: 60_000, WindowLen: 10_000, Warmup: 5_000}
	a, err := RunWorkload(cfg, "compress")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(cfg, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled workload runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Sampled == nil || a.Sampled.Windows == 0 {
		t.Fatalf("no sampled estimate: %+v", a.Sampled)
	}
	if a.IPC != a.Sampled.IPC {
		t.Errorf("Result.IPC %v != sampled estimate %v", a.IPC, a.Sampled.IPC)
	}
}

// TestSampledMatchesExactWorkload: a quick corridor check at the public
// API (the acceptance-grade 2M validation lives in tcexp -exp sampling).
func TestSampledMatchesExactWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000
	exact, err := RunWorkload(cfg, "li")
	if err != nil {
		t.Fatal(err)
	}
	if exact.Sampled != nil {
		t.Error("exact run attached Result.Sampled")
	}
	cfg.Sampling = SamplingConfig{Period: 60_000, WindowLen: 10_000, Warmup: 5_000}
	sampled, err := RunWorkload(cfg, "li")
	if err != nil {
		t.Fatal(err)
	}
	if relerr := math.Abs(sampled.IPC-exact.IPC) / exact.IPC; relerr > 0.15 {
		t.Errorf("sampled IPC %v vs exact %v: relative error %.3f", sampled.IPC, exact.IPC, relerr)
	}
}

// TestSampledBigBudgetPaths: budgets past the full-capture limit cannot
// hold a per-instruction trace; warm mode must run live and seek mode
// must run over a store-served checkpoint log, both deterministically.
func TestSampledBigBudgetPaths(t *testing.T) {
	defer func(old uint64) { tracestore.FullCaptureLimit = old }(tracestore.FullCaptureLimit)
	tracestore.FullCaptureLimit = 200_000 // make 300k a "big" budget cheaply

	st := NewTraceStore(0)
	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000
	cfg.Sampling = SamplingConfig{Period: 60_000, WindowLen: 10_000, Warmup: 5_000}

	warm, err := RunWorkloadContextIn(t.Context(), cfg, "compress", st)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Sampled == nil || warm.Sampled.InstsFFwd == 0 || warm.Sampled.Seeks != 0 {
		t.Fatalf("warm big-budget run should fast-forward: %+v", warm.Sampled)
	}
	if st.Stats().Captures != 0 {
		t.Errorf("warm big-budget run touched the store (%d captures); it must emulate live", st.Stats().Captures)
	}
	// A live run has no full capture, so no future index: an oracle
	// policy must be rejected, not handed a nil trace.
	cfg.TCPolicy = "belady"
	if _, err := RunWorkloadContextIn(t.Context(), cfg, "compress", st); err == nil || !strings.Contains(err.Error(), "needs future knowledge") {
		t.Errorf("warm big-budget belady run: err = %v, want the needs-future-knowledge rejection", err)
	}
	cfg.TCPolicy = ""

	cfg.Sampling.Seek = true
	seek, err := RunWorkloadContextIn(t.Context(), cfg, "compress", st)
	if err != nil {
		t.Fatal(err)
	}
	if seek.Sampled == nil || seek.Sampled.Seeks == 0 || seek.Sampled.CheckpointRestores == 0 {
		t.Fatalf("seek big-budget run should restore checkpoints: %+v", seek.Sampled)
	}
	if st.Stats().Captures != 1 {
		t.Errorf("seek big-budget run captures = %d, want 1 checkpoint-log capture", st.Stats().Captures)
	}
	seek2, err := RunWorkloadContextIn(t.Context(), cfg, "compress", st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seek, seek2) {
		t.Fatal("seek-mode results differ between cold (capture) and warm (replayed checkpoint log) runs")
	}
	if st.Stats().Captures != 1 {
		t.Errorf("second seek run re-captured (captures=%d); the checkpoint log must be reused", st.Stats().Captures)
	}

	// Both modes estimate the same machine; they may differ slightly but
	// must agree loosely with each other.
	if relerr := math.Abs(seek.IPC-warm.IPC) / warm.IPC; relerr > 0.15 {
		t.Errorf("seek IPC %v vs warm IPC %v: relative error %.3f", seek.IPC, warm.IPC, relerr)
	}
}
