package main

import (
	"time"

	"tcsim"
	"tcsim/internal/tracestore"
)

// figuresBench is `tcexp -exp all` in process: every repetition builds a
// fresh suite over an empty trace store and reproduces each figure in
// tcsim.ExperimentIDs order, with the runner's parallelism at GOMAXPROCS.
// A job is one figure. The work set is fixed, so the seed has no effect.
type figuresBench struct {
	b        *bench
	sims     uint64 // simulations of the last repetition
	captures uint64 // trace captures of the last repetition
}

// setup builds every workload program: the registry cost a figures
// process pays before its first simulation.
func (f *figuresBench) setup() error {
	for _, name := range tcsim.Workloads() {
		if _, err := tcsim.BuildWorkload(name); err != nil {
			return err
		}
	}
	return nil
}

func (f *figuresBench) teardown() {}

func (f *figuresBench) check() {}

func (f *figuresBench) measure(d time.Duration, _ bool) *phase {
	ph := &phase{}
	insts := f.b.sz.figInsts
	start := time.Now()
	for len(ph.repWall) == 0 || time.Since(start) < d {
		store := tracestore.Shared()
		store.Reset()
		c0 := store.Stats().Captures
		s := tcsim.NewSuite(insts)
		r0 := time.Now()
		for _, id := range tcsim.ExperimentIDs() {
			j0 := time.Now()
			text, err := s.Reproduce(id)
			lat := time.Since(j0)
			if err == nil {
				err = f.b.gold.checkFigure(insts, id, text)
			}
			ph.add(f.b.t, start, lat, err)
		}
		ph.repWall = append(ph.repWall, time.Since(r0).Seconds())
		f.sims = s.Simulations()
		f.captures = store.Stats().Captures - c0
		ph.simInsts += float64(f.sims * insts)
	}
	ph.elapsed = time.Since(start).Seconds()
	return ph
}

func (f *figuresBench) layers(m metrics) error {
	storeLayers(m, f.sims, f.captures)
	return nil
}

// storeLayers reports the process-wide trace store the figures and
// sampled workloads run through.
func storeLayers(m metrics, sims, captures uint64) {
	st := tracestore.Shared().Stats()
	m.set("experiments.simulations", float64(sims), "count")
	m.set("tracestore.captures", float64(captures), "count")
	m.set("tracestore.cdn_fetches", float64(st.CDNFetches), "count")
	m.set("tracestore.resident_mb", float64(st.ResidentBytes)/1e6, "MB")
}
