package main

import (
	"fmt"
	"sync"
	"time"

	"tcsim"
	"tcsim/internal/tracestore"
)

// sampledBench runs tcsim.RunWorkload under DefaultSamplingFor at a
// budget above tracestore.FullCaptureLimit, in warm mode (live emulation
// plus functional fast-forward) and in seek mode (a checkpoint log and
// seeks), side by side, from an empty trace store each repetition. A job
// is one run. The work set is fixed, so the seed has no effect.
type sampledBench struct {
	b        *bench
	captures uint64 // trace captures of the last repetition
}

// sampWorkload is the program every sampled run simulates.
const sampWorkload = "compress"

func (s *sampledBench) setup() error {
	_, err := tcsim.BuildWorkload(sampWorkload)
	return err
}

func (s *sampledBench) teardown() {}

func (s *sampledBench) check() {}

func (s *sampledBench) measure(d time.Duration, _ bool) *phase {
	insts := s.b.sz.sampInsts
	ph := &phase{}
	start := time.Now()
	for len(ph.repWall) == 0 || time.Since(start) < d {
		store := tracestore.Shared()
		store.Reset()
		c0 := store.Stats().Captures
		r0 := time.Now()
		var wg sync.WaitGroup
		for _, seek := range []bool{false, true} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := tcsim.DefaultConfig()
				cfg.Opt = tcsim.AllOptions()
				cfg.MaxInsts = insts
				cfg.Sampling = tcsim.DefaultSamplingFor(insts)
				cfg.Sampling.Seek = seek
				mode := "warm"
				if seek {
					mode = "seek"
				}
				j0 := time.Now()
				res, err := tcsim.RunWorkload(cfg, sampWorkload)
				lat := time.Since(j0)
				if err == nil && res.Sampled == nil {
					err = fmt.Errorf("sampled %s/%s: result carries no estimate", sampWorkload, mode)
				}
				if err == nil {
					err = s.b.gold.checkSampled(insts, sampWorkload, mode,
						[3]float64{res.Sampled.IPC, res.Sampled.CILow, res.Sampled.CIHigh})
					ph.mu.Lock()
					ph.simInsts += float64(res.Retired)
					ph.mu.Unlock()
				}
				ph.add(s.b.t, start, lat, err)
			}()
		}
		wg.Wait()
		ph.repWall = append(ph.repWall, time.Since(r0).Seconds())
		s.captures = store.Stats().Captures - c0
	}
	ph.elapsed = time.Since(start).Seconds()
	return ph
}

func (s *sampledBench) layers(m metrics) error {
	storeLayers(m, 0, s.captures)
	return nil
}
