package server

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/experiments"
	"tcsim/internal/obs"
	"tcsim/internal/pipeline"
)

// maxSweepCells bounds one sweep request's fan-out so a single POST
// cannot queue unbounded work.
const maxSweepCells = 4096

// sweepVariant adapts a resolved jobSpec to the experiments runner's
// variant model. The variant name is the canonical config hash, so the
// runner's singleflight memoization deduplicates identical cells within
// a sweep, across concurrent sweeps, and across requests for the
// daemon's lifetime.
func sweepVariant(spec jobSpec) experiments.ConfigVariant {
	return experiments.ConfigVariant{
		Name: spec.Key(),
		Mut: func(c *pipeline.Config) {
			c.MaxInsts = spec.Insts
			if spec.MaxCyc > 0 {
				c.MaxCycles = spec.MaxCyc
			}
			c.Fill.Passes = spec.Passes
			c.Fill.TimePasses = spec.Timed
			c.Fill.FillLatency = spec.FillLat
			c.Fill.TracePacking = spec.Packing
			c.Fill.Promotion = spec.Promote
			c.InactiveIssue = spec.Inactive
			c.UseTraceCache = spec.TCache
			c.Exec.Clusters, c.Fill.Clusters = spec.Clusters, spec.Clusters
			c.Exec.FUsPerCluster, c.Fill.FUsPerCluster = spec.FUs, spec.FUs
		},
	}
}

// sweepCell is one (workload, config) pair of the cross product. req is
// the single-cell JobRequest the spec was resolved from (workload and
// insts inlined), kept so the cluster gateway can re-issue the cell to
// a backend node verbatim.
type sweepCell struct {
	spec jobSpec
	req  client.JobRequest
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
		out[i] = SweepCell{Workload: c.spec.Workload, Key: c.spec.Key(), Req: r}
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
			spec, err := resolveSpec(&jr, lim)
			if err != nil {
				return nil, err
			}
			cells = append(cells, sweepCell{spec: spec, req: jr})
		}
	}
	return cells, nil
}

// runSweep fans the cells out over the shared experiments runner, which
// bounds concurrency with its own GOMAXPROCS pool and deduplicates
// identical cells by config hash. The first real error cancels the
// remaining cells.
func runSweep(ctx context.Context, r *experiments.Runner, cells []sweepCell) (*client.SweepResponse, error) {
	t0 := time.Now()
	sims0 := r.SimCount()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rows := make([]client.SweepRow, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, cell := range cells {
		i, cell := i, cell
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each cell runs under its own span: the layers below annotate
			// the active span (the trace store records whether the cell
			// captured or replayed), and the request's span must not be
			// written from many goroutines at once.
			ctx, sp := obs.StartSpan(ctx, "sweep-cell")
			sp.SetAttr("workload", cell.spec.Workload)
			sp.SetAttr("key", shortKey(cell.spec.Key()))
			defer sp.Finish()
			// Label the fan-out goroutine so a CPU profile attributes each
			// cell's time to its workload and config instead of pooling
			// every sweep into one anonymous stack.
			var st pipeline.Stats
			var err error
			pprof.Do(ctx, pprof.Labels("sweep_workload", cell.spec.Workload, "sweep_key", shortKey(cell.spec.Key())),
				func(ctx context.Context) {
					st, err = r.RunByName(ctx, cell.spec.Workload, sweepVariant(cell.spec))
				})
			if err != nil {
				sp.SetError(err)
				errs[i] = err
				cancel()
				return
			}
			rows[i] = client.SweepRow{
				Workload:       cell.spec.Workload,
				Key:            cell.spec.Key(),
				IPC:            st.IPC,
				Cycles:         st.Cycles,
				Retired:        st.Retired,
				TCHitRate:      st.TCHitRate,
				MispredictRate: st.MispredictRate,
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !isCancel(err) {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &client.SweepResponse{
		Rows:        rows,
		Cells:       len(cells),
		Simulations: r.SimCount() - sims0,
		WallMS:      float64(time.Since(t0).Microseconds()) / 1000,
	}, nil
}
