package experiments

import (
	"strings"
	"testing"

	"tcsim/internal/pipeline"
	"tcsim/internal/workload"
)

// TestSamplingFigure runs the estimator-validation figure at a small
// budget over a workload subset: the exact reference must fall inside
// the sampled CI corridor loosely (small-n CIs are wide), the headline
// half must actually sample, and the formatted output must carry the
// error and coverage columns the figure exists for.
func TestSamplingFigure(t *testing.T) {
	r := NewRunner(0)
	r.Workloads = []string{"compress", "li"}
	res, err := r.Sampling(300_000, 600_000, pipeline.SamplingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Headline) != 2 {
		t.Fatalf("rows = %d, headline = %d, want 2 each", len(res.Rows), len(res.Headline))
	}
	for _, row := range res.Rows {
		if row.Windows == 0 {
			t.Errorf("%s: no measured windows", row.Name)
		}
		if relerr := row.ErrPct; relerr > 15 || relerr < -15 {
			t.Errorf("%s: sampled %v vs exact %v (%.1f%% error)", row.Name, row.SampledIPC, row.ExactIPC, row.ErrPct)
		}
	}
	for _, row := range res.Headline {
		if row.Windows == 0 || row.IPC == 0 {
			t.Errorf("headline %s: %+v", row.Name, row)
		}
		if row.InstsFFwd == 0 {
			t.Errorf("headline %s fast-forwarded nothing", row.Name)
		}
	}
	out := res.Format()
	for _, want := range []string{"err%", "in-ci", "geomean |err|", "HEADLINE", "Minst/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted figure missing %q:\n%s", want, out)
		}
	}
}

// TestSamplingFigureMemoizes: reproducing the figure twice on one
// runner must not redo the validation simulations (the headline half is
// deliberately uncached, so only compare the validation delta).
func TestSamplingFigureMemoizes(t *testing.T) {
	r := NewRunner(0)
	r.Workloads = []string{"compress"}
	if _, err := r.Sampling(300_000, 600_000, pipeline.SamplingConfig{}); err != nil {
		t.Fatal(err)
	}
	n := r.SimCount()
	if _, err := r.Sampling(300_000, 600_000, pipeline.SamplingConfig{}); err != nil {
		t.Fatal(err)
	}
	// Second reproduction reruns only the (uncached) headline row.
	if got := r.SimCount() - n; got != 1 {
		t.Errorf("second reproduction ran %d simulations, want 1 (headline only)", got)
	}
}

// TestSampledPlansMemoizeApart: a warm and a seek plan of one budget are
// different machines, so the memo runs both, and the seek plan seeks.
func TestSampledPlansMemoizeApart(t *testing.T) {
	r := NewRunner(0)
	w, _ := workload.ByName("compress")
	plan := pipeline.SamplingConfig{Period: 20_000, WindowLen: 2_000, Warmup: 2_000}
	if _, err := r.Run(w, SampledVariant(200_000, plan)); err != nil {
		t.Fatal(err)
	}
	plan.Seek = true
	st, err := r.Run(w, SampledVariant(200_000, plan))
	if err != nil {
		t.Fatal(err)
	}
	if n := r.SimCount(); n != 2 || st.Sampled == nil || st.Sampled.Seeks == 0 {
		t.Errorf("warm then seek plan: %d simulations, seek estimate %+v; want 2 and seeks > 0", n, st.Sampled)
	}
}

// TestSamplingFigureSeekPlan: the headline runs through the shared run
// path, whose trace store gives a seek plan a source it can seek.
func TestSamplingFigureSeekPlan(t *testing.T) {
	r := NewRunner(0)
	r.Workloads = []string{"compress"}
	plan := pipeline.SamplingConfig{Period: 20_000, WindowLen: 2_000, Warmup: 2_000, Seek: true}
	if _, err := r.Sampling(200_000, 200_000, plan); err != nil {
		t.Fatal(err)
	}
}
