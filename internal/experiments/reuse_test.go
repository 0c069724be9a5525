package experiments

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"tcsim/internal/machine"
	"tcsim/internal/pipeline"
	"tcsim/internal/tracestore"
	"tcsim/internal/workload"
)

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on, so a run under it starts and then stops at a later
// cancellation poll, in the middle of the simulation.
type cancelAfter struct {
	context.Context
	n     int32
	calls atomic.Int32
}

func (c *cancelAfter) Done() <-chan struct{} { return make(chan struct{}) }

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// reuseJob is one simulation of TestRunnerSlotReuseMatchesFresh.
type reuseJob struct {
	label    string
	workload string
	cfg      machine.Config
	ctx      context.Context // nil: context.Background()
	wantErr  func(error) bool
}

// TestRunnerSlotReuseMatchesFresh runs, on a Runner with one worker slot
// and in shuffled order, every workload under seven machines (baseline,
// all, all@lat10, no-tcache, 1x16, 8x2 and the srrip trace-cache policy),
// a timeline run and warm- and seek-mode sampled runs, with a cancelled
// and a failing run in the middle. One simulator, re-initialized in
// place, serves every run that follows a successful one; each result's
// Stats, Output and Timeline must equal a fresh machine.Run of the same
// config, and must still equal it once every later run has reused the
// slot (nothing a run returns aliases what the slot keeps).
func TestRunnerSlotReuseMatchesFresh(t *testing.T) {
	const insts = 4_000
	variants := []ConfigVariant{
		Baseline,
		AllOpts,
		AllOptsLatency(10),
		variant("no-tcache", func(c *machine.Config) { c.UseTraceCache = false }),
		variant("1x16", func(c *machine.Config) { c.Clusters, c.FUsPerCluster = 1, 16 }),
		variant("8x2", func(c *machine.Config) { c.Clusters, c.FUsPerCluster = 8, 2 }),
		variant("srrip", func(c *machine.Config) { c.TCPolicy = "srrip" }),
	}
	var jobs []reuseJob
	for _, w := range workload.All() {
		for _, v := range variants {
			jobs = append(jobs, reuseJob{label: v.Name, workload: w.Name, cfg: v.Cfg})
		}
	}
	timeline := AllOpts.Cfg
	timeline.Timeline = true
	plan := pipeline.SamplingConfig{Period: 20_000, WindowLen: 2_000, Warmup: 2_000}
	warm := SampledVariant(200_000, plan)
	plan.Seek = true
	seek := SampledVariant(200_000, plan)
	jobs = append(jobs,
		reuseJob{label: "timeline", workload: "m88ksim", cfg: timeline},
		reuseJob{label: warm.Name, workload: "compress", cfg: warm.Cfg},
		reuseJob{label: seek.Name, workload: "gcc", cfg: seek.Cfg},
	)
	rand.New(rand.NewSource(27)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	long := AllOpts.Cfg
	long.MaxInsts = 40_000
	failing := long
	failing.MaxCycles = 2_000
	mid := len(jobs) / 2
	jobs = append(jobs[:mid], append([]reuseJob{
		{label: "cancelled", workload: "li", cfg: long, ctx: &cancelAfter{Context: context.Background(), n: 3},
			wantErr: func(err error) bool { return errors.Is(err, pipeline.ErrCanceled) }},
		{label: "failing", workload: "go", cfg: failing,
			wantErr: func(err error) bool { return err != nil && !errors.Is(err, pipeline.ErrCanceled) }},
	}, jobs[mid:]...)...)

	r := newRunner(insts, 1)
	type result struct {
		job       reuseJob
		got, want machine.Outcome
	}
	var results []result
	for _, j := range jobs {
		cfg := j.cfg
		if cfg.MaxInsts == 0 {
			cfg.MaxInsts = insts
		}
		ctx := j.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		got, err := r.simulate(ctx, j.workload, j.label, cfg)
		if j.wantErr != nil {
			if !j.wantErr(err) {
				t.Fatalf("%s/%s: error %v, not the failure the job was built for", j.workload, j.label, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s/%s: %v", j.workload, j.label, err)
		}
		want, err := machine.Run(context.Background(), cfg, j.workload, tracestore.Shared())
		if err != nil {
			t.Fatalf("%s/%s fresh: %v", j.workload, j.label, err)
		}
		if (want.Timeline != nil) != cfg.Timeline || (want.Stats.Sampled != nil) != cfg.Sampling.Enabled() {
			t.Fatalf("%s/%s: fresh run lacks the timeline or sampled estimate it was configured for", j.workload, j.label)
		}
		results = append(results, result{j, got, want})
	}
	for _, res := range results {
		if !reflect.DeepEqual(res.got.Stats, res.want.Stats) || !bytes.Equal(res.got.Output, res.want.Output) ||
			!reflect.DeepEqual(res.got.Timeline, res.want.Timeline) {
			t.Errorf("%s/%s: a run in a reused slot differs from a fresh one:\n got %+v\nwant %+v",
				res.job.workload, res.job.label, res.got.Stats, res.want.Stats)
		}
	}
}

// TestRunnerSlotReuseAllocations: a simulation repeated in a Runner's
// worker slot re-initializes the simulator its last run left instead of
// allocating a new machine, so it makes under a tenth of the mallocs of
// the same simulation on a fresh simulator.
func TestRunnerSlotReuseAllocations(t *testing.T) {
	const insts = 10_000
	r := newRunner(insts, 1)
	cfg := AllOpts.Cfg
	cfg.MaxInsts = insts
	mallocs := func(run func() (machine.Outcome, error)) uint64 {
		t.Helper()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&b)
		return b.Mallocs - a.Mallocs
	}
	inSlot := func() (machine.Outcome, error) { return r.simulate(context.Background(), "compress", "all", cfg) }
	mallocs(inSlot) // captures the trace and leaves the slot a simulator
	fresh := mallocs(func() (machine.Outcome, error) {
		return machine.Run(context.Background(), cfg, "compress", tracestore.Shared())
	})
	reused := mallocs(inSlot)
	t.Logf("compress at %d insts: %d mallocs on a fresh simulator, %d repeated in a slot", insts, fresh, reused)
	if reused*10 >= fresh {
		t.Errorf("a repeated run in a slot made %d mallocs, not under a tenth of a fresh run's %d", reused, fresh)
	}
}
