package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"tcsim/internal/machine"
	"tcsim/internal/pipeline"
	"tcsim/internal/tracestore"
)

// The sampling experiment validates the SMARTS estimator against full
// detailed runs at a budget where both are affordable, then shows what
// the estimator buys: a headline sweep at a budget detailed timing
// cannot reach (50M instructions in seconds per workload).

// DefaultSamplingValidateInsts is the budget the validation half runs
// at: large enough that sampling has ~50 windows to aggregate, small
// enough that the exact reference runs finish in seconds.
const DefaultSamplingValidateInsts = 2_000_000

// DefaultSamplingHeadlineInsts is the headline sweep's budget — the
// paper's smallest SPEC run length, unreachable under detailed timing.
const DefaultSamplingHeadlineInsts = 50_000_000

// SamplingRow is one workload's estimator-validation entry.
type SamplingRow struct {
	Name       string
	ExactIPC   float64
	SampledIPC float64
	CILow      float64
	CIHigh     float64
	ErrPct     float64 // 100*(sampled-exact)/exact
	InCI       bool    // exact IPC inside the sampled 95% CI
	Windows    int
}

// SamplingHeadlineRow is one workload's long-budget sampled result.
type SamplingHeadlineRow struct {
	Name        string
	IPC         float64
	CILow       float64
	CIHigh      float64
	Windows     int
	InstsFFwd   uint64
	WallSec     float64 // wall time of the whole sampled run
	MInstPerSec float64 // budget / wall, in millions
}

// SamplingResult is the reproduced sampling-validation figure.
type SamplingResult struct {
	ValidateInsts uint64
	Plan          pipeline.SamplingConfig
	Rows          []SamplingRow
	GeomeanAbsErr float64 // geomean of |ErrPct|
	AllInCI       bool

	HeadlineInsts uint64
	Headline      []SamplingHeadlineRow
}

// SampledVariant is the baseline machine with sampling enabled under
// the given plan at the given budget.
func SampledVariant(insts uint64, plan pipeline.SamplingConfig) ConfigVariant {
	return variant(fmt.Sprintf("sampled@%d/p%d-w%d-u%d", insts, plan.Period, plan.WindowLen, plan.Warmup),
		func(c *machine.Config) {
			c.MaxInsts = insts
			c.Sampling = plan
		})
}

// ExactVariant is the baseline machine pinned to a specific budget.
func ExactVariant(insts uint64) ConfigVariant {
	return variant(fmt.Sprintf("exact@%d", insts), func(c *machine.Config) { c.MaxInsts = insts })
}

// Sampling reproduces the estimator-validation figure: sampled vs exact
// IPC per workload at valInsts (0 = 2M), then the headline sampled
// sweep at headInsts (0 = 50M). A disabled plan selects the per-budget
// default (each half gets its own). Validation runs are memoized like
// every figure; headline runs are timed sequentially (so the wall
// column means something) and never cached.
func (r *Runner) Sampling(valInsts, headInsts uint64, plan pipeline.SamplingConfig) (*SamplingResult, error) {
	if valInsts == 0 {
		valInsts = DefaultSamplingValidateInsts
	}
	if headInsts == 0 {
		headInsts = DefaultSamplingHeadlineInsts
	}
	valPlan, headPlan := plan, plan
	if !plan.Enabled() {
		valPlan = pipeline.DefaultSamplingFor(valInsts)
		headPlan = pipeline.DefaultSamplingFor(headInsts)
	}
	exact, err := r.runAll(ExactVariant(valInsts))
	if err != nil {
		return nil, err
	}
	sampled, err := r.runAll(SampledVariant(valInsts, valPlan))
	if err != nil {
		return nil, err
	}
	res := &SamplingResult{
		ValidateInsts: valInsts,
		Plan:          valPlan,
		AllInCI:       true,
		HeadlineInsts: headInsts,
	}
	logSum, n := 0.0, 0
	for _, w := range r.workloads() {
		e, s := exact[w.Name], sampled[w.Name]
		if s.Sampled == nil {
			return nil, fmt.Errorf("sampling: %s produced no sampled estimate", w.Name)
		}
		row := SamplingRow{
			Name:       w.Name,
			ExactIPC:   e.IPC,
			SampledIPC: s.Sampled.IPC,
			CILow:      s.Sampled.CILow,
			CIHigh:     s.Sampled.CIHigh,
			InCI:       s.Sampled.CILow <= e.IPC && e.IPC <= s.Sampled.CIHigh,
			Windows:    s.Sampled.Windows,
		}
		if e.IPC > 0 {
			row.ErrPct = 100 * (row.SampledIPC - e.IPC) / e.IPC
		}
		res.AllInCI = res.AllInCI && row.InCI
		logSum += math.Log(math.Max(math.Abs(row.ErrPct), 1e-6))
		n++
		res.Rows = append(res.Rows, row)
	}
	if n > 0 {
		res.GeomeanAbsErr = math.Exp(logSum / float64(n))
	}

	head := SampledVariant(headInsts, headPlan).Cfg
	for _, w := range r.workloads() {
		t0 := time.Now()
		out, err := machine.Run(context.Background(), head, w.Name, tracestore.Shared())
		if err != nil {
			return nil, fmt.Errorf("sampling headline %s: %w", w.Name, err)
		}
		wall := time.Since(t0).Seconds()
		r.simCount.Add(1)
		st := out.Stats
		row := SamplingHeadlineRow{
			Name:      w.Name,
			IPC:       st.Sampled.IPC,
			CILow:     st.Sampled.CILow,
			CIHigh:    st.Sampled.CIHigh,
			Windows:   st.Sampled.Windows,
			InstsFFwd: st.Sampled.InstsFFwd,
			WallSec:   wall,
		}
		if wall > 0 {
			row.MInstPerSec = float64(headInsts) / wall / 1e6
		}
		res.Headline = append(res.Headline, row)
	}
	return res, nil
}

// Format renders the sampling figure: the validation table with error
// and CI-coverage columns, then the headline long-budget sweep.
func (s *SamplingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SAMPLING: sampled IPC vs full detailed runs @ %d insts\n", s.ValidateInsts)
	fmt.Fprintf(&b, "plan: period=%d window=%d warmup=%d (t-dist 95%% CI over window means)\n",
		s.Plan.Period, s.Plan.WindowLen, s.Plan.Warmup)
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %8s %6s %8s\n",
		"bench", "exact", "sampled", "ci-low", "ci-high", "err%", "in-ci", "windows")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-10s %9.3f %9.3f %9.3f %9.3f %+8.2f %6v %8d\n",
			r.Name, r.ExactIPC, r.SampledIPC, r.CILow, r.CIHigh, r.ErrPct, r.InCI, r.Windows)
	}
	fmt.Fprintf(&b, "geomean |err| = %.2f%% (acceptance <= 3%%), every workload in CI: %v\n",
		s.GeomeanAbsErr, s.AllInCI)
	if len(s.Headline) > 0 {
		fmt.Fprintf(&b, "\nHEADLINE: sampled sweep @ %d insts (functional fast-forward between windows)\n",
			s.HeadlineInsts)
		fmt.Fprintf(&b, "%-10s %9s %9s %9s %8s %12s %8s %9s\n",
			"bench", "ipc", "ci-low", "ci-high", "windows", "ffwd-insts", "wall-s", "Minst/s")
		for _, r := range s.Headline {
			fmt.Fprintf(&b, "%-10s %9.3f %9.3f %9.3f %8d %12d %8.2f %9.1f\n",
				r.Name, r.IPC, r.CILow, r.CIHigh, r.Windows, r.InstsFFwd, r.WallSec, r.MInstPerSec)
		}
	}
	return b.String()
}
