package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcsim"
)

// sweepInFlight bounds the jobs one Sweep keeps in flight. A node admits
// Workers+Queue jobs, at least 1+4 with its default queue, so a sweep on
// its own never meets a 429.
const sweepInFlight = 4

// Sweep runs every (workload, config) cell of req as an ordinary job,
// through SubmitJob so the client's retry policy applies, with at most
// sweepInFlight jobs in flight. Rows come back in cell order, configs
// outer. The first failing cell cancels the rest, and its error (an
// *APIError for a daemon's answer) is the sweep's.
func (c *Client) Sweep(ctx context.Context, req *SweepRequest) (*SweepResponse, error) {
	cells, err := req.cells()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	rows := make([]SweepRow, len(cells))
	var sims atomic.Uint64
	sem := make(chan struct{}, sweepInFlight)
	var wg sync.WaitGroup
	for i := range cells {
		sem <- struct{}{}
		// A failing cell cancels ctx before it gives its slot back, so
		// no cell starts after a failure.
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			job, err := c.SubmitJob(ctx, &cells[i])
			if err == nil && job.Result == nil {
				err = fmt.Errorf("client: job %s for %s ended %q without a result", job.ID, cells[i].Workload, job.State)
			}
			if err != nil {
				cancel(err) // only the first cause sticks
				return
			}
			if !job.Cached {
				sims.Add(1)
			}
			r := job.Result
			rows[i] = SweepRow{Workload: cells[i].Workload, Key: job.Key, IPC: r.IPC, Cycles: r.Cycles,
				Retired: r.Retired, TCHitRate: r.TraceCacheHitRate, MispredictRate: r.MispredictRate}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return &SweepResponse{
		Rows:        rows,
		Cells:       len(cells),
		Simulations: sims.Load(),
		WallMS:      float64(time.Since(t0).Microseconds()) / 1000,
	}, nil
}

// cells expands a sweep into its jobs, configs outer: no workloads means
// every bundled workload, no configs means the baseline, and a config's
// Insts overrides the sweep's.
func (req *SweepRequest) cells() ([]JobRequest, error) {
	workloads := req.Workloads
	if len(workloads) == 0 {
		workloads = tcsim.Workloads()
	}
	configs := req.Configs
	if len(configs) == 0 {
		configs = []JobRequest{{}}
	}
	cells := make([]JobRequest, 0, len(workloads)*len(configs))
	for _, cfg := range configs {
		if cfg.Workload != "" {
			return nil, fmt.Errorf("client: sweep configs must not name a workload (got %q); use the workloads list", cfg.Workload)
		}
		if cfg.Insts == 0 {
			cfg.Insts = req.Insts
		}
		for _, w := range workloads {
			cfg.Workload = w
			cells = append(cells, cfg)
		}
	}
	return cells, nil
}
