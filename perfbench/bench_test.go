package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"tcsim/internal/tracestore"
)

// tinySizes runs every workload and layer timing in well under a
// second of work each. The sampled budget still exceeds the full-capture
// limit, which the test lowers.
var tinySizes = sizes{
	figInsts:     2_000,
	sampInsts:    200_000,
	serveInsts:   2_000,
	serveRound:   50,
	hopPairs:     10,
	probeSeconds: 0.3,
	layerDiv:     100,
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyBench(t *testing.T, gold *golden) *bench {
	t.Helper()
	return &bench{sz: tinySizes, seed: 7, out: t.TempDir(), stdout: io.Discard, t: &tally{}, gold: gold}
}

func lowerCaptureLimit(t *testing.T) {
	t.Helper()
	old := tracestore.FullCaptureLimit
	tracestore.FullCaptureLimit = 100_000
	t.Cleanup(func() { tracestore.FullCaptureLimit = old })
}

// recordGolden runs a workload once in record mode and returns the
// digests it observed, for later runs to check against.
func recordGolden(t *testing.T, name string) *golden {
	t.Helper()
	gold := &golden{record: true, Figures: map[string]string{}, Sampled: map[string][3]float64{}}
	if _, err := tinyBench(t, gold).run(name, 0.1, false); err != nil {
		t.Fatalf("%s (recording): %v", name, err)
	}
	gold.record = false
	return gold
}

func TestEveryMetricEmitted(t *testing.T) {
	lowerCaptureLimit(t)
	decl := loadDeclared(t)
	for _, name := range []string{"figures", "sampled", "serve"} {
		gold := recordGolden(t, name)
		for _, traced := range []bool{false, true} {
			rep, err := tinyBench(t, gold).run(name, 0.2, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", name, traced, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value == math.MaxFloat64:
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, d.Name, m.Value)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", name, traced, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	gold := recordGolden(t, "figures")
	for k := range gold.Figures {
		gold.Figures[k] = "corrupted"
		break
	}
	rep, err := tinyBench(t, gold).run("figures", 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 || float64(rep.Failed)/float64(rep.Attempted) <= 0 {
		t.Fatalf("corrupted digest: correct=%v attempted=%d failed=%d, want a failure", rep.Correct, rep.Attempted, rep.Failed)
	}
}

func TestTailLatency(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		want       float64
		wantBeyond int
	}{
		{0, 0, 0},
		{4, 4, 0},        // too few jobs: the slowest
		{11, 1, 10},      // the lowest value leaves 10 beyond
		{100, 90, 10},    // p90, not p99
		{2000, 1980, 20}, // a true p99
	} {
		got, beyond := tailLatency(seq(tc.n))
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("n=%d: tail %v with %d beyond, want %v with %d", tc.n, got, beyond, tc.want, tc.wantBeyond)
		}
	}
}
