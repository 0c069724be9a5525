package tcsim_test

import (
	"encoding/json"
	"strings"
	"testing"

	"tcsim"
	"tcsim/internal/replace"
)

// TestTimelineDoesNotPerturbSimulation: enabling the event recorder is
// pure observation — the traced run must be bit-for-bit identical to
// the untraced one, and the recorded timeline must render to valid
// Chrome trace-event JSON.
func TestTimelineDoesNotPerturbSimulation(t *testing.T) {
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = 50_000
	cfg.Passes = tcsim.DefaultPassSpec()

	plain, err := tcsim.RunWorkload(cfg, "m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timeline != nil {
		t.Error("untraced run returned a timeline")
	}

	cfg.Timeline = true
	traced, err := tcsim.RunWorkload(cfg, "m88ksim")
	if err != nil {
		t.Fatal(err)
	}

	if plain.IPC != traced.IPC || plain.Cycles != traced.Cycles || plain.Retired != traced.Retired {
		t.Errorf("recording changed the run: IPC %v/%v cycles %d/%d retired %d/%d",
			plain.IPC, traced.IPC, plain.Cycles, traced.Cycles, plain.Retired, traced.Retired)
	}
	if len(plain.SegLengths) != len(traced.SegLengths) {
		t.Errorf("segment-length histograms differ: %v vs %v", plain.SegLengths, traced.SegLengths)
	} else {
		for i := range plain.SegLengths {
			if plain.SegLengths[i] != traced.SegLengths[i] {
				t.Errorf("SegLengths[%d] = %d untraced, %d traced", i, plain.SegLengths[i], traced.SegLengths[i])
			}
		}
	}

	tl := traced.Timeline
	if tl == nil || len(tl.Events) == 0 {
		t.Fatal("traced run returned no timeline events")
	}
	var sb strings.Builder
	if err := tl.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Error("WriteChromeTrace produced invalid JSON")
	}
}

// TestCycleLoopStaysAllocationFree is the benchmark guard: with the
// recorder disabled, 2000 steady-state cycles make no heap allocation
// under any replacement policy. (The recorder is a nil pointer in this
// configuration; a regression here means an emission site stopped being
// zero-cost.)
func TestCycleLoopStaysAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	tr, prog := captureCompress(t)
	for _, pol := range replace.Names() {
		sim := warmReplaySim(t, tr, prog, pol)
		if n := stepMallocs(sim, 2000); n != 0 {
			t.Errorf("policy %s: steady-state cycle loop made %d heap allocations in 2000 cycles, want 0", pol, n)
		}
	}
}
