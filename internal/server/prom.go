package server

import (
	"net/http"
	"time"

	"tcsim/internal/obs"
)

// handlePrometheus implements GET /metrics in the Prometheus text
// exposition format (version 0.0.4), the daemon's only metrics view.
// The exposition is written through the dependency-free obs.Expo
// writer; obs.ParseExposition, which client.Client.Metrics applies for
// the tests and examples, validates exactly this output.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ExpoContentType)
	m := s.engine.met

	e := obs.NewExpo(w)
	e.Gauge("tcserved_uptime_seconds",
		"Seconds since the daemon started.", time.Since(m.start).Seconds())

	e.CounterVec("tcserved_jobs_total",
		"Job lifecycle events by terminal disposition.", []obs.LabeledValue{
			{Labels: [][2]string{{"event", "accepted"}}, Value: float64(m.accepted.Load())},
			{Labels: [][2]string{{"event", "completed"}}, Value: float64(m.completed.Load())},
			{Labels: [][2]string{{"event", "failed"}}, Value: float64(m.failed.Load())},
			{Labels: [][2]string{{"event", "rejected"}}, Value: float64(m.rejected.Load())},
		})

	hits, misses := m.hits.Load(), m.misses.Load()
	e.CounterVec("tcserved_cache_requests_total",
		"Result-cache lookups by outcome (join = deduplicated onto a concurrent identical run).",
		[]obs.LabeledValue{
			{Labels: [][2]string{{"result", "hit"}}, Value: float64(hits)},
			{Labels: [][2]string{{"result", "miss"}}, Value: float64(misses)},
			{Labels: [][2]string{{"result", "join"}}, Value: float64(m.joins.Load())},
		})
	e.Gauge("tcserved_cache_entries",
		"Results currently held in the cache.", float64(s.engine.CacheLen()))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	e.Gauge("tcserved_cache_hit_ratio",
		"Cache hits over all lookups since start (0 before any lookup).", ratio)

	e.Gauge("tcserved_queue_depth",
		"Simulations waiting for a worker slot.",
		float64(m.waiting.Load()))
	e.Gauge("tcserved_jobs_in_flight",
		"Simulations running right now.", float64(m.inflight.Load()))

	e.Counter("tcserved_sim_insts_total",
		"Retired instructions simulated by executed jobs.", float64(m.simInsts.Load()))
	e.Counter("tcserved_sim_busy_seconds_total",
		"Cumulative wall time of executed simulations.",
		time.Duration(m.simBusyNanos.Load()).Seconds())

	passes := m.passSnapshot()
	if len(passes) > 0 {
		seg := make([]obs.LabeledValue, 0, len(passes))
		tch := make([]obs.LabeledValue, 0, len(passes))
		rew := make([]obs.LabeledValue, 0, len(passes))
		edg := make([]obs.LabeledValue, 0, len(passes))
		sec := make([]obs.LabeledValue, 0, len(passes))
		for _, ps := range passes {
			l := [][2]string{{"pass", ps.Name}}
			seg = append(seg, obs.LabeledValue{Labels: l, Value: float64(ps.Segments)})
			tch = append(tch, obs.LabeledValue{Labels: l, Value: float64(ps.Touched)})
			rew = append(rew, obs.LabeledValue{Labels: l, Value: float64(ps.Rewritten)})
			edg = append(edg, obs.LabeledValue{Labels: l, Value: float64(ps.EdgesRemoved)})
			sec = append(sec, obs.LabeledValue{Labels: l, Value: time.Duration(ps.Nanos).Seconds()})
		}
		e.CounterVec("tcserved_pass_segments_total",
			"Segments processed per optimization pass across executed jobs.", seg)
		e.CounterVec("tcserved_pass_touched_total",
			"Segments changed per optimization pass.", tch)
		e.CounterVec("tcserved_pass_rewritten_total",
			"Instructions rewritten or annotated per optimization pass.", rew)
		e.CounterVec("tcserved_pass_edges_removed_total",
			"Dependency edges removed per optimization pass.", edg)
		e.CounterVec("tcserved_pass_seconds_total",
			"Fill-unit wall time per optimization pass (only jobs with time_passes contribute).", sec)
	}

	reuse := m.reuseSnapshot()
	if len(reuse) > 0 {
		lines := make([]obs.LabeledValue, 0, len(reuse))
		hits := make([]obs.LabeledValue, 0, len(reuse))
		for _, rc := range reuse {
			l := [][2]string{{"class", rc.class}}
			lines = append(lines, obs.LabeledValue{Labels: l, Value: float64(rc.lines)})
			hits = append(hits, obs.LabeledValue{Labels: l, Value: float64(rc.hits)})
		}
		e.CounterVec("tcserved_trace_reuse_lines_total",
			"Trace-cache line generations retired, decanted by segment shape (mix x loop-back).", lines)
		e.CounterVec("tcserved_trace_reuse_line_hits_total",
			"Demand hits taken by retired trace-cache line generations, decanted by segment shape.", hits)
	}
	e.Counter("tcserved_tc_fill_bypasses_total",
		"Trace-cache fills rejected by the replacement policy (bypass-capable policies only).",
		float64(m.tcBypasses.Load()))

	e.Counter("tcserved_sampling_windows_total",
		"Detailed measurement windows run by sampled-timing jobs.",
		float64(m.sampWindows.Load()))
	e.CounterVec("tcserved_sampling_insts_total",
		"Instructions sampled-timing jobs advanced without cycle-accurate timing: ffwd = functionally fast-forwarded, skipped = seeked past without observation.",
		[]obs.LabeledValue{
			{Labels: [][2]string{{"mode", "ffwd"}}, Value: float64(m.sampFFwd.Load())},
			{Labels: [][2]string{{"mode", "skipped"}}, Value: float64(m.sampSkipped.Load())},
		})
	e.Counter("tcserved_sampling_seeks_total",
		"Oracle seeks performed by seek-mode sampled jobs.",
		float64(m.sampSeeks.Load()))
	e.Counter("tcserved_sampling_checkpoint_restores_total",
		"Seeks that restored architectural state from a capture-time checkpoint.",
		float64(m.sampRestores.Load()))

	ts := s.traceStore().Stats()
	e.Counter("tcserved_tracestore_captures_total",
		"Correct-path streams captured into the trace store (emulated or disk-loaded).",
		float64(ts.Captures))
	e.Counter("tcserved_tracestore_replay_hits_total",
		"Simulations served by replaying a resident captured stream.",
		float64(ts.ReplayHits))
	e.Counter("tcserved_tracestore_evictions_total",
		"Captured streams evicted by the store's byte bound.",
		float64(ts.Evictions))
	e.Gauge("tcserved_tracestore_resident_bytes",
		"Bytes of captured streams resident right now.", float64(ts.ResidentBytes))
	e.Gauge("tcserved_tracestore_resident_traces",
		"Captured streams resident right now.", float64(ts.ResidentTraces))
	e.Counter("tcserved_tracestore_capture_seconds_total",
		"Cumulative wall time spent emulating captures.", time.Duration(ts.CaptureNanos).Seconds())
	e.CounterVec("tcserved_tracestore_disk_total",
		"On-disk trace directory traffic by outcome (zero without -tracedir).",
		[]obs.LabeledValue{
			{Labels: [][2]string{{"outcome", "load"}}, Value: float64(ts.DiskLoads)},
			{Labels: [][2]string{{"outcome", "save"}}, Value: float64(ts.DiskSaves)},
			{Labels: [][2]string{{"outcome", "reject"}}, Value: float64(ts.DiskRejects)},
		})
	e.CounterVec("tcserved_tracestore_cdn_total",
		"Trace CDN traffic by outcome (zero outside a cluster): serve = trace exported to a peer, fetch = capture satisfied from a peer, reject = fetched body failed validation.",
		[]obs.LabeledValue{
			{Labels: [][2]string{{"outcome", "serve"}}, Value: float64(ts.CDNServes)},
			{Labels: [][2]string{{"outcome", "fetch"}}, Value: float64(ts.CDNFetches)},
			{Labels: [][2]string{{"outcome", "reject"}}, Value: float64(ts.CDNRejects)},
		})

	e.Hist(m.jobDur)
	e.Hist(m.queueWait)
	e.Hist(m.cacheAge)
	e.Hist(m.segLen)
	e.Hist(m.reuseHist)
	// Write errors mean the client went away mid-scrape; nothing to do.
	_ = e.Err()
}
