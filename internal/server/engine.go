package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"tcsim"
	"tcsim/internal/memo"
	"tcsim/internal/obs"
)

// Errors the HTTP layer maps to backpressure responses.
var (
	// ErrQueueFull means every worker is busy and the wait queue is at
	// capacity; the request was rejected without queueing (429).
	ErrQueueFull = errors.New("server: queue full")
	// ErrDraining means the engine is shutting down and admits no new
	// work (503).
	ErrDraining = errors.New("server: draining")
)

// EngineConfig sizes the simulation engine.
type EngineConfig struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Queue bounds jobs admitted beyond the running ones — the wait
	// line. Admission past Workers+Queue fails with ErrQueueFull.
	// 0 = 4*Workers; negative = no wait line (reject unless a worker
	// is free).
	Queue int
	// CacheEntries caps the result cache (0 = 4096). The cache evicts
	// the least recently used entry first.
	CacheEntries int
	// Limits bounds individual jobs.
	Limits Limits
	// Store selects the trace store jobs capture and replay through (nil
	// = the process-wide shared store). Hosts embedding several engines
	// in one process — the cluster tests boot three nodes in-process —
	// give each its own so per-node capture counters stay meaningful.
	Store *tcsim.TraceStore
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue == 0 {
		c.Queue = 4 * c.Workers
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.Limits.DefaultTimeout <= 0 {
		c.Limits.DefaultTimeout = 60 * time.Second
	}
	return c
}

// cacheEntry is one completed simulation in the result cache. It is
// immutable once made: finished job records point at it, and outlive
// its eviction.
type cacheEntry struct {
	res tcsim.Result
	// json is res's compact JSON encoding, made once when the result
	// enters the cache; every response carrying the result writes these
	// bytes.
	json json.RawMessage
	at   time.Time // insertion time, for the cache-age histogram
}

// Engine runs simulations behind a canonical-config-hash result cache
// with singleflight deduplication, a bounded worker pool, and a bounded
// admission queue. It is safe for concurrent use.
type Engine struct {
	cfg     EngineConfig
	met     *metrics
	spans   *obs.Spanner  // nil outside a Server: every span call no-ops
	tickets chan struct{} // admission tokens: Workers+Queue
	slots   chan struct{} // worker slots: Workers

	cache *memo.Cache[string, *cacheEntry] // by canonical key, CacheEntries at cost 1

	mu     sync.Mutex
	closed bool

	wg sync.WaitGroup // admitted jobs, for graceful drain

	// runSim executes one resolved simulation. Tests substitute a
	// controllable double; production is tcsim.RunWorkloadContext.
	runSim func(ctx context.Context, cfg tcsim.Config, workload string) (tcsim.Result, error)

	// avgWallMS is a crude EWMA of executed-job wall time, feeding the
	// Retry-After estimate. Guarded by mu.
	avgWallMS float64
}

// NewEngine builds an engine; Close (or Drain) releases it.
func NewEngine(cfg EngineConfig) *Engine {
	cfg = cfg.withDefaults()
	st := cfg.Store
	return &Engine{
		cfg:     cfg,
		met:     newMetrics(),
		tickets: make(chan struct{}, cfg.Workers+cfg.Queue),
		slots:   make(chan struct{}, cfg.Workers),
		cache:   memo.New[string, *cacheEntry](int64(cfg.CacheEntries), nil),
		runSim: func(ctx context.Context, cfg tcsim.Config, workload string) (tcsim.Result, error) {
			return tcsim.RunWorkloadContextIn(ctx, cfg, workload, st)
		},
	}
}

// Store returns the trace store this engine's jobs run through (nil
// means the process-wide shared store).
func (e *Engine) Store() *tcsim.TraceStore { return e.cfg.Store }

// Limits returns the engine's per-job bounds for request resolution.
func (e *Engine) Limits() Limits { return e.cfg.Limits }

// cached is the admission-free result-cache lookup the submit handler
// makes before Admit: it returns key's entry, if present, as a hit.
func (e *Engine) cached(ctx context.Context, key string) (*cacheEntry, bool) {
	ent, ok := e.cache.Get(key)
	if ok {
		e.hit(ctx, key, ent)
	}
	return ent, ok
}

// hit counts a cache hit and marks it on ctx's span.
func (e *Engine) hit(ctx context.Context, key string, ent *cacheEntry) {
	e.met.hits.Add(1)
	e.met.cacheAge.Observe(time.Since(ent.at).Seconds())
	e.spans.Event(ctx, "cache-lookup", "outcome", "hit", "key", shortKey(key))
}

// Admit reserves an admission token, the engine's backpressure unit: at
// most Workers+Queue jobs hold one. The returned release function must
// be called exactly once. Fails fast with ErrQueueFull or ErrDraining —
// admission never blocks, so a saturated daemon answers 429 immediately
// instead of accumulating requests.
func (e *Engine) Admit() (release func(), err error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, ErrDraining
	}
	select {
	case e.tickets <- struct{}{}:
	default:
		e.met.rejected.Add(1)
		return nil, ErrQueueFull
	}
	e.wg.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-e.tickets
			e.wg.Done()
		})
	}, nil
}

// RetryAfter estimates how long a rejected client should back off:
// the simulations waiting for a worker slot (plus this one) times
// average job wall time over the worker count, clamped to [1s, 30s].
func (e *Engine) RetryAfter() time.Duration {
	e.mu.Lock()
	avg := e.avgWallMS
	e.mu.Unlock()
	if avg <= 0 {
		avg = 250
	}
	waiting := float64(e.met.waiting.Load()) + 1
	secs := waiting * avg / float64(cap(e.slots)) / 1000
	switch {
	case secs < 1:
		secs = 1
	case secs > 30:
		secs = 30
	}
	return time.Duration(secs * float64(time.Second))
}

// Run executes one admitted job: cache lookup, singleflight join, or an
// actual simulation in a worker slot under the job's timeout. The
// caller must hold an admission token from Admit for the duration.
// It returns the result's cache entry; the returned cached flag covers
// both cache hits and dedup joins.
func (e *Engine) Run(ctx context.Context, r resolved) (*cacheEntry, bool, error) {
	key := r.key
	wait0 := time.Now()
	ent, how, err := e.cache.Do(ctx, key, func() (*cacheEntry, error) {
		e.met.misses.Add(1)
		e.spans.Event(ctx, "cache-lookup", "outcome", "miss", "key", shortKey(key))
		res, err := e.simulate(ctx, r)
		if err != nil {
			return nil, err
		}
		return newCacheEntry(res)
	})
	switch how {
	case memo.Hit:
		e.hit(ctx, key, ent)
	case memo.Joined:
		// The wait is over; its span starts when the wait began.
		_, wsp := e.spans.Start(ctx, "singleflight-wait")
		if wsp != nil {
			wsp.Start = wait0
		}
		wsp.SetAttr("key", shortKey(key))
		if err != nil && err == ctx.Err() {
			wsp.SetError(err) // this caller's own context ended the wait
		} else {
			e.met.joins.Add(1)
		}
		wsp.Finish()
	}
	return ent, how != memo.Ran && err == nil, err
}

// isCancel reports errors that carry no information about the config
// itself — the run was merely interrupted.
func isCancel(err error) bool {
	return err != nil && (errors.Is(err, tcsim.ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// newCacheEntry encodes a completed result, once for every response that
// will carry it. A result that cannot be encoded is the run's error.
func newCacheEntry(res tcsim.Result) (*cacheEntry, error) {
	raw, err := json.Marshal(&res)
	if err != nil {
		return nil, fmt.Errorf("server: encode result: %w", err)
	}
	return &cacheEntry{res: res, json: raw, at: time.Now()}, nil
}

// simulate waits for a worker slot (a visible queue-wait span), then
// runs the simulation under the job's timeout in a "run" span carrying
// the workload, the capture/replay phase the trace store stamps on it,
// and a per-pass summary folded from the run's counters. A panicking
// simulation becomes the run's error, so its slot, gauges and flight
// are released like any failure's. The worker goroutine carries pprof
// labels so CPU profiles attribute simulation time per job instead of
// one anonymous blob.
func (e *Engine) simulate(ctx context.Context, r resolved) (tcsim.Result, error) {
	wait0 := time.Now()
	_, qsp := e.spans.Start(ctx, "queue-wait")
	e.met.waiting.Add(1)
	select {
	case e.slots <- struct{}{}:
		e.met.waiting.Add(-1)
	case <-ctx.Done():
		e.met.waiting.Add(-1)
		qsp.SetError(ctx.Err())
		qsp.Finish()
		return tcsim.Result{}, ctx.Err()
	}
	qsp.Finish()
	e.met.queueWait.Observe(time.Since(wait0).Seconds())
	defer func() { <-e.slots }()
	if err := ctx.Err(); err != nil {
		return tcsim.Result{}, err
	}

	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	rctx, rsp := e.spans.Start(ctx, "run")
	rsp.SetAttr("workload", r.workload)
	rsp.SetAttr("insts", fmt.Sprintf("%d", r.cfg.MaxInsts))
	if sc := r.cfg.Sampling; sc.Enabled() {
		rsp.SetAttr("sampling", fmt.Sprintf("period=%d window=%d warmup=%d seek=%v",
			sc.Period, sc.WindowLen, sc.Warmup, sc.Seek))
	}
	e.met.inflight.Add(1)
	t0 := time.Now()
	var res tcsim.Result
	var err error
	pprof.Do(rctx, pprof.Labels("workload", r.workload, "job_key", shortKey(r.key)),
		func(ctx context.Context) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("server: simulation panicked: %v", p)
				}
			}()
			res, err = e.runSim(ctx, r.cfg, r.workload)
		})
	wall := time.Since(t0)
	e.met.inflight.Add(-1)
	if err != nil {
		rsp.SetError(err)
		rsp.Finish()
		if isCancel(err) {
			return tcsim.Result{}, fmt.Errorf("job canceled after %v: %w", wall.Round(time.Millisecond), err)
		}
		return tcsim.Result{}, err
	}
	for _, ps := range res.PassStats {
		if ps.Segments > 0 {
			rsp.SetAttr("pass."+ps.Name, fmt.Sprintf("segments=%d touched=%d rewritten=%d",
				ps.Segments, ps.Touched, ps.Rewritten))
		}
	}
	if s := res.Sampled; s != nil {
		rsp.SetAttr("sampled", fmt.Sprintf("windows=%d ffwd=%d skipped=%d seeks=%d restores=%d",
			s.Windows, s.InstsFFwd, s.InstsSkipped, s.Seeks, s.CheckpointRestores))
	}
	rsp.Finish()
	e.met.recordRun(&res, wall)
	e.mu.Lock()
	ms := float64(wall.Milliseconds())
	if e.avgWallMS == 0 {
		e.avgWallMS = ms
	} else {
		e.avgWallMS = 0.8*e.avgWallMS + 0.2*ms
	}
	e.mu.Unlock()
	return res, nil
}

// Drain stops admitting new work and waits for every admitted job to
// finish, or for ctx to expire. Safe to call more than once.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// shortKey truncates a canonical cache key for span attrs and pprof
// labels, where the 12-hex prefix is plenty to correlate.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// CacheLen reports the number of cached results.
func (e *Engine) CacheLen() int { return e.cache.Stats().Entries }
