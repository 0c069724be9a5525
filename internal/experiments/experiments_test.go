package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"tcsim/internal/workload"
)

// The experiment tests run tiny budgets on a workload subset: they check
// plumbing and formatting, not the reproduced magnitudes (cmd/tcexp and
// the root benchmarks do that at real budgets).
func smallRunner() *Runner {
	r := NewRunner(8_000)
	r.Workloads = []string{"compress", "m88ksim", "ijpeg"}
	return r
}

func TestRunnerMemoizes(t *testing.T) {
	r := smallRunner()
	w, _ := workload.ByName("compress")
	a, err := r.Run(w, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(w, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC {
		t.Error("memoized run differs")
	}
	if n := r.runs.Stats().Entries; n != 1 {
		t.Errorf("%d memoized runs, want 1", n)
	}
}

// TestSingleflightCountsSimulations runs figures that share sweeps from
// several goroutines at once and asserts — by counting simulations that
// actually executed, not memo lookups — that each workload/variant pair
// simulated exactly once.
func TestSingleflightCountsSimulations(t *testing.T) {
	r := smallRunner()
	var wg sync.WaitGroup
	for _, fig := range []func() (*FigureResult, error){
		r.Figure3, r.Figure4, r.Figure3, r.Figure4,
	} {
		fig := fig
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := fig(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// 3 workloads x {baseline, moves, reassoc} = 9 unique simulations.
	if got := r.SimCount(); got != 9 {
		t.Errorf("SimCount = %d, want 9 (singleflight must dedupe concurrent figures)", got)
	}
	if got := r.runs.Stats().Entries; got != 9 {
		t.Errorf("%d memoized runs, want 9", got)
	}
}

func TestRunContextCancel(t *testing.T) {
	r := smallRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, _ := workload.ByName("compress")
	if _, err := r.RunContext(ctx, w, Baseline); err == nil {
		t.Fatal("want error from cancelled context")
	}
	if n := r.SimCount(); n != 0 {
		t.Errorf("cancelled before start, yet SimCount = %d", n)
	}
	// A cancelled flight must not be memoized: a fresh Run succeeds and
	// performs the real simulation.
	if _, err := r.Run(w, Baseline); err != nil {
		t.Fatal(err)
	}
	if n := r.SimCount(); n != 1 {
		t.Errorf("SimCount = %d, want 1", n)
	}
}

func TestImprovementFigures(t *testing.T) {
	r := smallRunner()
	for _, fig := range []func() (*FigureResult, error){
		r.Figure3, r.Figure4, r.Figure5, r.Figure6,
	} {
		res, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("%s: %d rows", res.ID, len(res.Rows))
		}
		for _, row := range res.Rows {
			if row.BaseIPC <= 0 || row.OptIPC <= 0 {
				t.Errorf("%s/%s: non-positive IPC", res.ID, row.Name)
			}
		}
		text := res.Format()
		if !strings.Contains(text, "m88ksim") || !strings.Contains(text, "average") {
			t.Errorf("%s format incomplete:\n%s", res.ID, text)
		}
	}
	// Reassociation must visibly help m88ksim even at tiny budgets.
	f4, _ := r.Figure4()
	for _, row := range f4.Rows {
		if row.Name == "m88ksim" && row.ImprovePct < 3 {
			t.Errorf("m88ksim reassociation improvement = %.2f%%, want >3%%", row.ImprovePct)
		}
	}
}

func TestFigure7(t *testing.T) {
	r := smallRunner()
	res, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseAvg <= 0 || res.BaseAvg >= 100 {
		t.Errorf("baseline bypass rate = %f", res.BaseAvg)
	}
	if !strings.Contains(res.Format(), "paper: 35%") {
		t.Error("format missing paper reference")
	}
}

func TestFigure8AndTable2(t *testing.T) {
	r := smallRunner()
	f8, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) != 3 {
		t.Fatalf("fig8 rows = %d", len(f8.Rows))
	}
	for _, row := range f8.Rows {
		if row.IPCLat1 <= 0 || row.IPCLat5 <= 0 || row.IPCLat10 <= 0 {
			t.Errorf("%s: missing latency point", row.Name)
		}
	}
	t2, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t2.Rows {
		if row.TotalPct < row.MovesPct {
			t.Errorf("%s: total < moves", row.Name)
		}
		if row.Name == "m88ksim" && row.ReassocPct < 5 {
			t.Errorf("m88ksim reassociated = %.1f%%, want >5%%", row.ReassocPct)
		}
	}
	if !strings.Contains(t2.Format(), "TABLE2") {
		t.Error("table2 format broken")
	}
	// Table 2's machine is Figure 8's all@lat1: the memo keys on the
	// resolved machine, not the variant name, so it simulates once.
	if got := r.SimCount(); got != 12 {
		t.Errorf("SimCount = %d, want 12 (3 workloads x 4 machines)", got)
	}
}

func TestAblations(t *testing.T) {
	r := smallRunner()
	res, err := r.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 8 {
		t.Fatalf("variants = %v", res.Variants)
	}
	for _, n := range r.WorkloadNames() {
		if len(res.IPC[n]) != 8 {
			t.Errorf("%s: %d points", n, len(res.IPC[n]))
		}
	}
	out := res.Format(r.WorkloadNames())
	if !strings.Contains(out, "no-tcache") {
		t.Error("ablation format incomplete")
	}
}

func TestFormatTable1(t *testing.T) {
	out := FormatTable1(0)
	for _, w := range workload.All() {
		if !strings.Contains(out, w.Name) {
			t.Errorf("table1 missing %s", w.Name)
		}
	}
	if !strings.Contains(FormatTable1(1_500_000), "1.5M") {
		t.Error("instruction budget formatting wrong")
	}
}

func TestFillOnly(t *testing.T) {
	w, _ := workload.ByName("compress")
	if err := FillOnly(w.Build(), 5_000); err != nil {
		t.Fatal(err)
	}
}
