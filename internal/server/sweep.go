package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/obs"
)

// maxSweepCells bounds one sweep request's fan-out so a single POST
// cannot queue unbounded work.
const maxSweepCells = 4096

// sweepCell is one (workload, config) pair of the cross product. req is
// the single-cell JobRequest the cell was resolved from (workload and
// insts inlined), kept so the cluster gateway can re-issue the cell to
// a backend node verbatim.
type sweepCell struct {
	resolved
	req client.JobRequest
}

// SweepCell is one resolved cell of a sweep's cross product, exported
// for the cluster gateway: the gateway expands a SweepRequest exactly
// as a node would, routes each cell by its canonical config key, and
// forwards it as a single-cell sweep.
type SweepCell struct {
	// Workload is the cell's bundled benchmark name.
	Workload string
	// Key is the canonical config hash — the cluster routing key, and
	// identical to the key the serving node computes.
	Key string
	// Req reproduces the cell as a standalone single-cell request
	// (workload cleared: it travels in SweepRequest.Workloads).
	Req client.JobRequest
}

// ResolveSweepCells expands a SweepRequest into routed cells using the
// same resolution and validation the sweep handler runs, including the
// maxSweepCells bound. lim bounds per-cell insts/timeout; the zero
// Limits imposes only the daemon's universal checks (each backend
// re-validates against its own limits anyway).
func ResolveSweepCells(req *client.SweepRequest, lim Limits) ([]SweepCell, error) {
	cells, err := resolveSweep(req, lim)
	if err != nil {
		return nil, err
	}
	out := make([]SweepCell, len(cells))
	for i, c := range cells {
		r := c.req
		r.Workload = ""
		out[i] = SweepCell{Workload: c.workload, Key: c.key, Req: r}
	}
	return out, nil
}

// resolveSweep expands a SweepRequest into resolved cells.
func resolveSweep(req *client.SweepRequest, lim Limits) ([]sweepCell, error) {
	workloads := req.Workloads
	if len(workloads) == 0 {
		workloads = tcsim.Workloads()
	}
	configs := req.Configs
	if len(configs) == 0 {
		configs = []client.JobRequest{{}}
	}
	if n := len(workloads) * len(configs); n > maxSweepCells {
		return nil, badRequestf("sweep of %d cells exceeds the per-request limit %d", n, maxSweepCells)
	}
	cells := make([]sweepCell, 0, len(workloads)*len(configs))
	for _, cfg := range configs {
		if cfg.Workload != "" {
			return nil, badRequestf("sweep configs must not name a workload (got %q); use the workloads list", cfg.Workload)
		}
		for _, w := range workloads {
			jr := cfg
			jr.Workload = w
			if jr.Insts == 0 {
				jr.Insts = req.Insts
			}
			r, err := resolveSpec(&jr, lim)
			if err != nil {
				return nil, err
			}
			cells = append(cells, sweepCell{resolved: r, req: jr})
		}
	}
	return cells, nil
}

// runSweep runs every cell as an engine job: each goes through the
// job path's result cache, singleflight and worker slots, under its own
// timeout. The caller holds the sweep's admission token. The first
// failing cell cancels the rest and is the sweep's error.
func (e *Engine) runSweep(ctx context.Context, cells []sweepCell) (*client.SweepResponse, error) {
	t0 := time.Now()
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	rows := make([]client.SweepRow, len(cells))
	var sims atomic.Uint64
	var wg sync.WaitGroup
	for i, cell := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each cell runs under its own span, which groups the cell's
			// cache-lookup, queue-wait and run spans: the request's span
			// must not be written from many goroutines at once.
			ctx, sp := obs.StartSpan(ctx, "sweep-cell")
			sp.SetAttr("workload", cell.workload)
			sp.SetAttr("key", shortKey(cell.key))
			defer sp.Finish()
			ent, cached, err := e.Run(ctx, cell.resolved)
			if err != nil {
				sp.SetError(err)
				cancel(err) // only the first cause sticks
				return
			}
			if !cached {
				sims.Add(1)
			}
			res := &ent.res
			rows[i] = client.SweepRow{
				Workload:       cell.workload,
				Key:            cell.key,
				IPC:            res.IPC,
				Cycles:         res.Cycles,
				Retired:        res.Retired,
				TCHitRate:      res.TraceCacheHitRate,
				MispredictRate: res.MispredictRate,
			}
		}()
	}
	wg.Wait()
	e.met.sweepSims.Add(sims.Load())
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return &client.SweepResponse{
		Rows:        rows,
		Cells:       len(cells),
		Simulations: sims.Load(),
		WallMS:      float64(time.Since(t0).Microseconds()) / 1000,
	}, nil
}
