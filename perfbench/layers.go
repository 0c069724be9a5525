package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tcsim"
	"tcsim/internal/asm"
	"tcsim/internal/bpred"
	"tcsim/internal/core"
	"tcsim/internal/emu"
	"tcsim/internal/pipeline"
	"tcsim/internal/tracestore"
	"tcsim/internal/workload"
)

// Layer timings: each is a call, made in isolation, into one package's
// exported functions on a fixed input — the same on every workload.
// They re-implement the repository's BenchmarkFillUnitOnly,
// BenchmarkReplayCycleLoop and BenchmarkFastForward and add capture and
// decode timings. Every row carries its allocations per operation.

// sink keeps the replay timing's reads from being optimized away.
var sink uint32

// minLayerTime is how long the cheap timings repeat their operation.
const minLayerTime = 200 * time.Millisecond

// timed repeats prepare (untimed) and the operation it returns (timed)
// until the operations have run for minTime, at least once. It returns
// the operations run, their wall time and their heap allocations per
// operation.
func timed(minTime time.Duration, prepare func() (func() error, error)) (int, time.Duration, float64, error) {
	runtime.GC()
	var n int
	var d time.Duration
	var mallocs uint64
	for n == 0 || d < minTime {
		op, err := prepare()
		if err != nil {
			return 0, 0, 0, err
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		err = op()
		d += time.Since(t0)
		runtime.ReadMemStats(&b)
		if err != nil {
			return 0, 0, 0, err
		}
		mallocs += b.Mallocs - a.Mallocs
		n++
	}
	return n, d, float64(mallocs) / float64(n), nil
}

// now wraps an operation that needs no untimed preparation.
func now(op func() error) func() (func() error, error) {
	return func() (func() error, error) { return op, nil }
}

func perSec(units float64, d time.Duration) float64 { return units / d.Seconds() }

func build(name string) (*asm.Program, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return w.Build(), nil
}

func layerTimings(sz sizes, m metrics) error {
	div := sz.layerDiv
	prog, err := build("compress")
	if err != nil {
		return err
	}

	// emu: the functional emulator, the capture and warm-mode engine.
	emuInsts := 20_000_000 / div
	var ran uint64
	_, d, allocs, err := timed(0, func() (func() error, error) {
		mc := emu.New(prog)
		return func() error {
			steps, err := mc.Run(emuInsts)
			if err != nil && steps < emuInsts && !mc.Halted {
				return fmt.Errorf("emu: %w", err)
			}
			ran += steps
			return nil
		}, nil
	})
	if err != nil {
		return err
	}
	m.set("emu.inst_per_s", perSec(float64(ran), d), "1/s")
	m.set("emu.allocs_per_op", allocs, "count")

	// tracestore: full capture, checkpoint-log capture, replay, decode.
	capInsts := 2_000_000 / div
	var tr *tracestore.Trace
	_, d, allocs, err = timed(0, now(func() error {
		var err error
		tr, err = tracestore.Capture("compress", prog, capInsts)
		return err
	}))
	if err != nil {
		return err
	}
	m.set("tracestore.capture_inst_per_s", perSec(float64(tr.Len()), d), "1/s")
	m.set("tracestore.capture_allocs_per_op", allocs, "count")

	ckptInsts := 20_000_000 / div
	_, d, allocs, err = timed(0, now(func() error {
		_, err := tracestore.CaptureCheckpointLog("compress", prog, ckptInsts)
		return err
	}))
	if err != nil {
		return err
	}
	m.set("tracestore.ckptlog_inst_per_s", perSec(float64(ckptInsts), d), "1/s")
	m.set("tracestore.ckptlog_allocs_per_op", allocs, "count")

	n, d, allocs, err := timed(minLayerTime, func() (func() error, error) {
		r := tr.NewReplay()
		return func() error {
			for i := uint64(0); i < tr.Len(); i++ {
				rec, ok := r.At(i)
				if !ok {
					return fmt.Errorf("replay ended at record %d of %d", i, tr.Len())
				}
				sink += rec.PC
				r.Release(i)
			}
			return nil
		}, nil
	})
	if err != nil {
		return err
	}
	m.set("tracestore.replay_rec_per_s", perSec(float64(n)*float64(tr.Len()), d), "1/s")
	m.set("tracestore.replay_allocs_per_op", allocs, "count")

	decInsts := 200_000 / div
	store := tracestore.NewStore(0)
	if _, _, err := store.Get("compress", decInsts); err != nil {
		return err
	}
	raw, err := store.ExportBytes("compress", decInsts, false)
	if err != nil {
		return err
	}
	n, d, allocs, err = timed(minLayerTime, now(func() error { return tracestore.Validate(raw, "compress", decInsts) }))
	if err != nil {
		return err
	}
	m.set("tracestore.decode_mb_per_s", perSec(float64(n)*float64(len(raw))/1e6, d), "MB/s")
	m.set("tracestore.decode_allocs_per_op", allocs, "count")

	if err := fillTimings(div, m); err != nil {
		return err
	}
	if err := pipelineTimings(prog, tr, div, m); err != nil {
		return err
	}
	return fullRun(div, m)
}

// fillTimings drives the fill unit alone (every paper optimization on)
// over replayed m88ksim records, then again with Config.TimePasses for
// the per-pass cost.
func fillTimings(div uint64, m metrics) error {
	prog, err := build("m88ksim")
	if err != nil {
		return err
	}
	insts := 200_000 / div
	tr, err := tracestore.Capture("m88ksim", prog, insts)
	if err != nil {
		return err
	}
	var passes []core.PassStats
	fill := func(timePasses bool) func() (func() error, error) {
		return func() (func() error, error) {
			cfg := core.DefaultConfig()
			cfg.Opt = core.AllOptimizations()
			cfg.TimePasses = timePasses
			f, err := core.New(cfg, bpred.NewBiasTable(8<<10, 64))
			if err != nil {
				return nil, err
			}
			r := tr.NewReplay()
			return func() error {
				for i := uint64(0); i < insts; i++ {
					rec, ok := r.At(i)
					if !ok {
						return fmt.Errorf("fill: replay ended at record %d", i)
					}
					f.Collect(rec, i)
					f.Drain(i)
					r.Release(i)
				}
				f.Flush(insts)
				passes = f.PassStats()
				return nil
			}, nil
		}
	}
	n, d, allocs, err := timed(minLayerTime, fill(false))
	if err != nil {
		return err
	}
	m.set("core.fill_inst_per_s", perSec(float64(n)*float64(insts), d), "1/s")
	m.set("core.fill_allocs_per_op", allocs, "count")

	if _, _, _, err := timed(minLayerTime, fill(true)); err != nil {
		return err
	}
	for _, name := range core.DefaultPassSpec() {
		ns := 0.0
		for _, ps := range passes {
			if ps.Name == name && ps.Segments > 0 {
				ns = float64(ps.Nanos) / float64(ps.Segments)
			}
		}
		m.set("core.pass."+name+".ns_per_seg", ns, "ns")
	}
	return nil
}

// pipelineTimings times the warm detailed cycle loop over a replay and
// the functional fast-forward.
func pipelineTimings(prog *asm.Program, tr *tracestore.Trace, div uint64, m metrics) error {
	const warmSteps = 30_000
	budget := 300_000 / div
	var retired uint64
	_, d, allocs, err := timed(minLayerTime, func() (func() error, error) {
		cfg := pipeline.DefaultConfig()
		cfg.MaxInsts = budget
		cfg.Oracle = tr.NewReplay()
		sim, err := pipeline.New(cfg, prog)
		if err != nil {
			return nil, err
		}
		for i := 0; i < warmSteps/int(div); i++ {
			sim.Step()
		}
		r0 := sim.Stats().Retired
		return func() error {
			for !sim.Done() {
				sim.Step()
			}
			retired += sim.Stats().Retired - r0
			return nil
		}, nil
	})
	if err != nil {
		return err
	}
	m.set("pipeline.step_inst_per_s", perSec(float64(retired), d), "1/s")
	m.set("pipeline.step_allocs_per_op", allocs, "count")

	warmEnd, end := tr.Len()/4, tr.Len()*3/4
	var ffwd uint64
	_, d, allocs, err = timed(minLayerTime, func() (func() error, error) {
		cfg := pipeline.DefaultConfig()
		cfg.Oracle = tr.NewReplay()
		cfg.Future = tr
		sim, err := pipeline.New(cfg, prog)
		if err != nil {
			return nil, err
		}
		if err := sim.FastForward(warmEnd); err != nil {
			return nil, err
		}
		return func() error {
			ffwd += end - warmEnd
			return sim.FastForward(end)
		}, nil
	})
	if err != nil {
		return err
	}
	m.set("pipeline.ffwd_inst_per_s", perSec(float64(ffwd), d), "1/s")
	m.set("pipeline.ffwd_allocs_per_op", allocs, "count")
	return nil
}

// fullRun measures the allocations of a whole replayed RunWorkload
// (compress, every paper optimization) per 1k retired instructions, and
// takes the simulated model rates from it: they must not move under a
// change that only speeds the simulator up.
func fullRun(div uint64, m metrics) error {
	cfg := tcsim.DefaultConfig()
	cfg.Opt = tcsim.AllOptions()
	cfg.MaxInsts = 200_000 / div
	store := tcsim.NewTraceStore(0)
	ctx := context.Background()
	if _, err := tcsim.RunWorkloadContextIn(ctx, cfg, "compress", store); err != nil {
		return err
	}
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	res, err := tcsim.RunWorkloadContextIn(ctx, cfg, "compress", store)
	runtime.ReadMemStats(&b)
	if err != nil {
		return err
	}
	k := float64(res.Retired) / 1000
	m.set("pipeline.allocs_per_kinst", float64(b.Mallocs-a.Mallocs)/k, "count")
	m.set("pipeline.bytes_per_kinst", float64(b.TotalAlloc-a.TotalAlloc)/k, "B")
	m.set("model.tc_hit_rate", res.TraceCacheHitRate, "ratio")
	m.set("model.mispredict_rate", res.MispredictRate, "ratio")
	m.set("model.bypass_delay_rate", res.BypassDelayRate, "ratio")
	m.set("model.optimized_pct", res.OptimizedPct, "%")
	return nil
}
