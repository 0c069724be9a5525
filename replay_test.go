package tcsim_test

import (
	"reflect"
	"testing"

	"tcsim"
)

// TestReplayStaysAllocationFree is the CI benchmark guard for the trace
// store's replay path, the sibling of TestCycleLoopStaysAllocationFree:
// 2000 steady-state cycles of a replayed run make no heap allocation.
func TestReplayStaysAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	tr, prog := captureCompress(t)
	sim := warmReplaySim(t, tr, prog, "")
	if n := stepMallocs(sim, 2000); n != 0 {
		t.Errorf("replayed cycle loop made %d heap allocations in 2000 cycles, want 0", n)
	}
}

// TestWorkloadRunsAreCaptureThenReplay: the first RunWorkload of a
// (workload, budget) pair captures into the shared store, later runs
// replay — observable only through the store counters, because the
// results themselves are bit-for-bit identical (to each other AND to a
// live-emulated run that bypasses the store entirely).
func TestWorkloadRunsAreCaptureThenReplay(t *testing.T) {
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = 7321 // budget unlikely to be resident from other tests

	before := tcsim.TraceStats()
	first, err := tcsim.RunWorkload(cfg, "li")
	if err != nil {
		t.Fatal(err)
	}
	mid := tcsim.TraceStats()
	second, err := tcsim.RunWorkload(cfg, "li")
	if err != nil {
		t.Fatal(err)
	}
	after := tcsim.TraceStats()

	if got := mid.Captures - before.Captures; got != 1 {
		t.Errorf("first run captured %d times, want 1", got)
	}
	if got := after.Captures - mid.Captures; got != 0 {
		t.Errorf("second run captured %d times, want 0", got)
	}
	if got := after.ReplayHits - mid.ReplayHits; got != 1 {
		t.Errorf("second run had %d replay hits, want 1", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("capture-run and replay-run results differ")
	}

	// The live path, bypassing the store: still identical.
	prog, err := tcsim.BuildWorkload("li")
	if err != nil {
		t.Fatal(err)
	}
	live, err := tcsim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, live) {
		t.Error("store-served run differs from live-emulated run")
	}
	if tcsim.TraceStats().Captures != after.Captures {
		t.Error("Run(prog) went through the trace store; it must emulate live")
	}
}

// TestCaptureTimelineEvent: a traced cold run carries the capture-phase
// timeline event; the traced warm replay does not (its timeline matches
// a live run's exactly — the equivalence suite pins that).
func TestCaptureTimelineEvent(t *testing.T) {
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = 6733
	cfg.Timeline = true

	countCaptureEvents := func(r tcsim.Result) int {
		n := 0
		for _, e := range r.Timeline.Events {
			if e.Kind.String() == "capture" {
				n++
			}
		}
		return n
	}

	cold, err := tcsim.RunWorkload(cfg, "perl")
	if err != nil {
		t.Fatal(err)
	}
	if got := countCaptureEvents(cold); got != 1 {
		t.Errorf("cold run has %d capture events, want 1", got)
	}
	ev := cold.Timeline.Events[0]
	if ev.Kind.String() != "capture" || ev.Cycle != 0 || ev.A == 0 || ev.B != cfg.MaxInsts {
		t.Errorf("capture event = %+v, want cycle-0 event with records and budget %d", ev, cfg.MaxInsts)
	}

	warm, err := tcsim.RunWorkload(cfg, "perl")
	if err != nil {
		t.Fatal(err)
	}
	if got := countCaptureEvents(warm); got != 0 {
		t.Errorf("warm run has %d capture events, want 0", got)
	}
}
