package server

import (
	"sync"
	"sync/atomic"
	"time"

	"tcsim"
	"tcsim/internal/obs"
)

// Histogram bucket bounds for the daemon's latency and distribution
// histograms (Prometheus-style cumulative buckets, upper bounds in the
// metric's unit).
var (
	// durationBuckets covers sub-millisecond cache hits through
	// half-minute simulations, in seconds.
	durationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	// cacheAgeBuckets covers result staleness at hit time, in seconds.
	cacheAgeBuckets = []float64{1, 5, 15, 60, 300, 900, 3600}
	// segLenBuckets covers finalized segment lengths (1..trace.MaxInsts
	// instructions).
	segLenBuckets = []float64{1, 2, 4, 6, 8, 10, 12, 14, 16}
	// reuseBuckets covers demand hits per trace-cache line generation
	// (the per-line counts are capped at 32 in core).
	reuseBuckets = []float64{0, 1, 2, 4, 8, 16, 32}
)

// metrics holds the daemon's expvar-style counters: monotonic atomics
// for events, gauges derived from them, latency/distribution
// histograms, and a mutex-guarded per-pass aggregate (PassStats arrive
// as a slice per completed run, too wide for an atomic).
type metrics struct {
	start time.Time

	accepted  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	joins     atomic.Uint64

	waiting  atomic.Int64 // waiting for a worker slot right now
	inflight atomic.Int64 // simulating right now

	simInsts     atomic.Uint64
	simBusyNanos atomic.Int64

	tcBypasses atomic.Uint64 // trace-cache fills the policy rejected

	// Sampled-timing aggregates across executed jobs (zero until a job
	// enables Config.Sampling).
	sampWindows  atomic.Uint64 // measured detailed windows run
	sampFFwd     atomic.Uint64 // instructions functionally fast-forwarded
	sampSkipped  atomic.Uint64 // instructions seeked past without observation
	sampSeeks    atomic.Uint64 // oracle seeks performed
	sampRestores atomic.Uint64 // seeks that restored a capture-time checkpoint

	// Histograms (exposed on GET /metrics).
	jobDur    *obs.Hist // executed-job wall time, seconds
	queueWait *obs.Hist // admission-to-worker-slot wait, seconds
	cacheAge  *obs.Hist // result age at cache-hit time, seconds
	segLen    *obs.Hist // finalized-segment instruction counts
	reuseHist *obs.Hist // demand hits per trace-cache line generation

	mu     sync.Mutex
	passes map[string]*tcsim.PassStat
	order  []string // first-seen order of pass names (canonical run order)
	// reuse decants line generations and their demand hits by segment
	// shape ("alu", "mem+loop", ...), aggregated across executed jobs.
	reuse      map[string]*reuseAgg
	reuseOrder []string
}

// reuseAgg is one reuse class's aggregate across executed jobs.
type reuseAgg struct {
	class string
	lines uint64
	hits  uint64
}

func newMetrics() *metrics {
	return &metrics{
		start:  time.Now(),
		passes: make(map[string]*tcsim.PassStat),
		reuse:  make(map[string]*reuseAgg),
		jobDur: obs.NewHist("tcserved_job_duration_seconds",
			"Wall time of executed (non-cached) simulation jobs.", durationBuckets),
		queueWait: obs.NewHist("tcserved_queue_wait_seconds",
			"Time admitted jobs waited for a worker slot.", durationBuckets),
		cacheAge: obs.NewHist("tcserved_cache_hit_age_seconds",
			"Age of cached results at hit time.", cacheAgeBuckets),
		segLen: obs.NewHist("tcserved_segment_length_insts",
			"Instruction counts of trace segments finalized by served simulations.", segLenBuckets),
		reuseHist: obs.NewHist("tcserved_trace_reuse_hits",
			"Demand hits taken by each trace-cache line generation before eviction (capped at 32).", reuseBuckets),
	}
}

// recordRun accumulates one executed (non-cached) simulation's
// contribution: throughput, the segment-length distribution, and the
// per-pass fill-unit counters.
func (m *metrics) recordRun(res *tcsim.Result, wall time.Duration) {
	m.simInsts.Add(res.Retired)
	m.simBusyNanos.Add(wall.Nanoseconds())
	m.jobDur.Observe(wall.Seconds())
	for n, count := range res.SegLengths {
		if count > 0 {
			m.segLen.ObserveN(float64(n), count)
		}
	}
	m.tcBypasses.Add(res.TCBypasses)
	if s := res.Sampled; s != nil {
		m.sampWindows.Add(uint64(s.Windows))
		m.sampFFwd.Add(s.InstsFFwd)
		m.sampSkipped.Add(s.InstsSkipped)
		m.sampSeeks.Add(s.Seeks)
		m.sampRestores.Add(s.CheckpointRestores)
	}
	for _, row := range res.TraceReuse {
		for h, count := range row.Hits {
			if count > 0 {
				m.reuseHist.ObserveN(float64(h), count)
			}
		}
	}
	if len(res.PassStats) == 0 && len(res.TraceReuse) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, row := range res.TraceReuse {
		label := row.Mix
		if row.Loop {
			label += "+loop"
		}
		agg, ok := m.reuse[label]
		if !ok {
			agg = &reuseAgg{class: label}
			m.reuse[label] = agg
			m.reuseOrder = append(m.reuseOrder, label)
		}
		agg.lines += row.Lines
		for h, count := range row.Hits {
			agg.hits += uint64(h) * count
		}
	}
	for _, ps := range res.PassStats {
		agg, ok := m.passes[ps.Name]
		if !ok {
			agg = &tcsim.PassStat{Name: ps.Name}
			m.passes[ps.Name] = agg
			m.order = append(m.order, ps.Name)
		}
		agg.Segments += ps.Segments
		agg.Touched += ps.Touched
		agg.Rewritten += ps.Rewritten
		agg.EdgesRemoved += ps.EdgesRemoved
		agg.Nanos += ps.Nanos
	}
}

// passSnapshot copies the per-pass aggregates in first-seen order
// (jobs run passes in canonical order, so first-seen matches it).
func (m *metrics) passSnapshot() []tcsim.PassStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]tcsim.PassStat, 0, len(m.order))
	for _, n := range m.order {
		out = append(out, *m.passes[n])
	}
	return out
}

// reuseSnapshot copies the per-class reuse aggregates in first-seen
// order (results list classes in canonical order, so first-seen matches
// it).
func (m *metrics) reuseSnapshot() []reuseAgg {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]reuseAgg, 0, len(m.reuseOrder))
	for _, label := range m.reuseOrder {
		out = append(out, *m.reuse[label])
	}
	return out
}
