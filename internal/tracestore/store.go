package tracestore

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"tcsim/internal/asm"
	"tcsim/internal/emu"
	"tcsim/internal/memo"
	"tcsim/internal/obs"
	"tcsim/internal/workload"
)

// DefaultMaxBytes bounds the shared store's resident trace bytes. All
// fifteen bundled workloads at the default 300k-instruction budget fit
// comfortably (~42 MiB); the LRU evicts least-recently-replayed traces
// beyond the cap.
const DefaultMaxBytes = 256 << 20

// Entry is one resident capture: the built program image and its
// correct-path stream. Both are immutable and shared by every replaying
// simulation.
type Entry struct {
	Prog  *asm.Program
	Trace *Trace
}

// Outcome reports how a Get was served, for metrics and the benchmark
// harness's capture-vs-replay labeling.
type Outcome int

const (
	// OutcomeReplay: the trace was already resident (or another caller's
	// concurrent capture was joined); the run replays.
	OutcomeReplay Outcome = iota
	// OutcomeCapture: this call captured the trace (possibly loading it
	// from the on-disk store instead of emulating).
	OutcomeCapture
)

func (o Outcome) String() string {
	if o == OutcomeCapture {
		return "capture"
	}
	return "replay"
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Captures       uint64 // streams captured by emulation
	ReplayHits     uint64 // Gets served from a resident trace
	Evictions      uint64 // traces evicted by the LRU byte bound
	ResidentBytes  int64  // bytes held right now
	ResidentTraces int    // traces held right now
	CaptureNanos   int64  // cumulative wall time spent capturing
	DiskLoads      uint64 // captures satisfied by a valid on-disk trace
	DiskSaves      uint64 // captures persisted to the trace directory
	DiskRejects    uint64 // on-disk traces rejected (corrupt/stale/version)
	CDNServes      uint64 // trace bodies exported to cluster peers
	CDNFetches     uint64 // captures satisfied by a valid peer-fetched trace
	CDNRejects     uint64 // peer-fetched traces rejected (corrupt/stale/version)
}

type key struct {
	name   string
	budget uint64
	ckpt   bool // checkpoint-only log, not a full trace
}

// Store is a bounded, process-wide LRU of captured traces with
// singleflight capture: concurrent Gets for the same (workload, budget)
// run one capture and share it. The cache is an internal/memo cache
// priced in trace bytes. Safe for concurrent use.
type Store struct {
	traces *memo.Cache[key, *Entry]

	mu      sync.Mutex // guards dir and fetcher
	dir     string     // on-disk trace directory ("" = memory only)
	fetcher Fetcher    // peer-fetch hook for the trace CDN (nil = disabled)

	captures     atomic.Uint64
	replayHits   atomic.Uint64
	captureNanos atomic.Int64
	diskLoads    atomic.Uint64
	diskSaves    atomic.Uint64
	diskRejects  atomic.Uint64
	cdnServes    atomic.Uint64
	cdnFetches   atomic.Uint64
	cdnRejects   atomic.Uint64

	// rejectLog receives one line per rejected on-disk trace so the
	// fail-closed path is loud even without a logger wired in. Nil
	// discards. Set before serving.
	RejectLog func(file string, err error)
}

// NewStore returns a store bounded to maxBytes of resident trace data
// (<= 0 selects DefaultMaxBytes).
func NewStore(maxBytes int64) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{traces: memo.New[key](maxBytes, func(e *Entry) int64 { return e.Trace.Bytes() })}
}

var shared = NewStore(0)

// Shared returns the process-wide store every workload run goes
// through: tcsim.RunWorkload, the experiments sweep runner, and tcserved
// jobs all capture once and replay many here.
func Shared() *Store { return shared }

// SetDir points the store at an on-disk trace directory: Gets that miss
// in memory try to load a persisted trace before capturing, and fresh
// captures are persisted for warm restarts. Validation is strict —
// magic, version, payload checksum, workload name, budget, and the
// program's content hash must all match, or the file is rejected
// (counted, reported via RejectLog) and the store falls back to live
// capture. An empty dir disables persistence.
func (s *Store) SetDir(dir string) {
	s.mu.Lock()
	s.dir = dir
	s.mu.Unlock()
}

// Dir returns the configured trace directory.
func (s *Store) Dir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dir
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	held := s.traces.Stats()
	return Stats{
		Captures:       s.captures.Load(),
		ReplayHits:     s.replayHits.Load(),
		Evictions:      held.Evictions,
		ResidentBytes:  held.Cost,
		ResidentTraces: held.Entries,
		CaptureNanos:   s.captureNanos.Load(),
		DiskLoads:      s.diskLoads.Load(),
		DiskSaves:      s.diskSaves.Load(),
		DiskRejects:    s.diskRejects.Load(),
		CDNServes:      s.cdnServes.Load(),
		CDNFetches:     s.cdnFetches.Load(),
		CDNRejects:     s.cdnRejects.Load(),
	}
}

// Get returns the capture for (name, budget), capturing it on first use.
// budget must be the fully resolved retirement bound (non-zero). The
// returned Entry is immutable and shared; run a simulation off it with
// Entry.Trace.NewReplay().
func (s *Store) Get(name string, budget uint64) (*Entry, Outcome, error) {
	return s.GetCtx(context.Background(), name, budget)
}

// GetCtx is Get with request context: when ctx carries an active span
// (a traced tcserved job), the outcome lands on it as a phase attr
// ("capture" or "replay"), a capture opens a child span naming the
// source it was satisfied from, and the capture goroutine carries pprof
// labels. The context does not cancel the capture — a joined flight
// would hand the cancellation to an innocent concurrent caller.
func (s *Store) GetCtx(ctx context.Context, name string, budget uint64) (*Entry, Outcome, error) {
	return s.get(ctx, key{name: name, budget: budget})
}

// GetCheckpointLog returns the checkpoint-only log for (name, budget):
// a Trace carrying periodic architectural snapshots and the OUT stream
// but no record columns, served through a CkptSource. It lives under
// its own store key (and .tcckpt file), so it never collides with the
// full trace at the same (name, budget). Seek-mode sampled runs use it
// when the full trace would not fit the store.
func (s *Store) GetCheckpointLog(ctx context.Context, name string, budget uint64) (*Entry, Outcome, error) {
	return s.get(ctx, key{name: name, budget: budget, ckpt: true})
}

// Source picks where a run of w at budget takes its instructions from;
// every workload run goes through it. Up to FullCaptureLimit the run
// replays the full capture, also returned as full: the future index
// oracle replacement policies read. Above it, a seek-mode sampled run
// (seek) re-emulates over a checkpoint log with an oracle ring of
// window records; every other run, and any run the store fails,
// emulates prog live (src == nil). phase labels the outcome for
// profiles: "capture", "replay" or "live".
func (s *Store) Source(ctx context.Context, w workload.Workload, budget uint64, seek bool, window int) (prog *asm.Program, src emu.Source, full *Trace, phase string) {
	switch {
	case budget > FullCaptureLimit:
		if seek {
			if ent, outcome, err := s.GetCheckpointLog(ctx, w.Name, budget); err == nil {
				return ent.Prog, NewCkptSource(ent.Prog, ent.Trace, window), nil, outcome.String()
			}
		}
	case budget > 0:
		if ent, outcome, err := s.GetCtx(ctx, w.Name, budget); err == nil {
			return ent.Prog, ent.Trace.NewReplay(), ent.Trace, outcome.String()
		}
	}
	return w.Build(), nil, nil, "live"
}

// get serves k from the cache, by joining a concurrent capture, or by
// capturing it. It waits under context.WithoutCancel: a capture is shared,
// so no caller's context may cancel it (see GetCtx).
func (s *Store) get(ctx context.Context, k key) (*Entry, Outcome, error) {
	if k.budget == 0 {
		return nil, OutcomeReplay, fmt.Errorf("tracestore: budget must be resolved (non-zero) for %q", k.name)
	}
	ent, how, err := s.traces.Do(context.WithoutCancel(ctx), k, func() (*Entry, error) {
		return s.capture(ctx, k)
	})
	if how == memo.Ran {
		obs.SpanFrom(ctx).SetAttr("phase", OutcomeCapture.String())
		return ent, OutcomeCapture, err
	}
	if err != nil {
		return nil, OutcomeReplay, err
	}
	// A joined capture is a replay too: for this caller the work was not
	// repeated.
	s.replayHits.Add(1)
	obs.SpanFrom(ctx).SetAttr("phase", OutcomeReplay.String())
	return ent, OutcomeReplay, nil
}

// capture builds the program and captures its stream, preferring the
// cheap sources first: a valid on-disk trace, then a peer fetch over the
// trace CDN, then live emulation. Disk and CDN bodies go through the
// same fail-closed validation; a reject is counted, logged, and falls
// through to the next source. ctx only carries tracing identity — a
// "trace-capture" span recording which source satisfied the capture —
// never cancellation (see GetCtx).
func (s *Store) capture(ctx context.Context, k key) (*Entry, error) {
	ctx, csp := obs.StartSpan(ctx, "trace-capture")
	csp.SetAttr("workload", k.name)
	defer csp.Finish()
	w, ok := workload.ByName(k.name)
	if !ok {
		err := fmt.Errorf("tracestore: unknown workload %q", k.name)
		csp.SetError(err)
		return nil, err
	}
	prog := w.Build()

	if k.ckpt {
		csp.SetAttr("kind", "ckpt-log")
	}
	s.mu.Lock()
	dir, fetch := s.dir, s.fetcher
	s.mu.Unlock()

	if dir != "" {
		tr, file, err := loadTrace(dir, k.name, k.budget, prog, k.ckpt)
		switch {
		case err == nil && tr != nil:
			s.captures.Add(1)
			s.diskLoads.Add(1)
			csp.SetAttr("source", "disk")
			return &Entry{Prog: prog, Trace: tr}, nil
		case err != nil:
			// Fail closed to live capture, loudly.
			s.diskRejects.Add(1)
			if s.RejectLog != nil {
				s.RejectLog(file, err)
			}
		}
	}

	// Checkpoint logs are not served over the trace CDN: they are cheap
	// to regenerate (one functional pass) and budget-specific, so the
	// peer-fetch protocol stays a single-kind exchange.
	if fetch != nil && !k.ckpt {
		hash := programHash(prog)
		_, fsp := obs.StartSpan(ctx, "cdn-fetch")
		fsp.SetAttr("workload", k.name)
		raw, err := fetch(hexHash(hash), k.name, k.budget)
		fsp.SetError(err)
		fsp.Finish()
		if err == nil && raw != nil {
			tr, derr := decodeTrace(raw, k.name, k.budget, prog)
			if derr == nil {
				s.captures.Add(1)
				s.cdnFetches.Add(1)
				csp.SetAttr("source", "cdn")
				if dir != "" {
					if serr := saveTrace(dir, tr, prog, false); serr == nil {
						s.diskSaves.Add(1)
					} else if s.RejectLog != nil {
						s.RejectLog(traceFileName(dir, k.name, k.budget), serr)
					}
				}
				return &Entry{Prog: prog, Trace: tr}, nil
			}
			// A peer served bytes that fail validation: reject loudly and
			// re-capture live rather than trust them.
			s.cdnRejects.Add(1)
			if s.RejectLog != nil {
				s.RejectLog("cdn:"+k.name, derr)
			}
		}
		// Fetch-transport errors (peer down, 404) are not rejects; live
		// capture is the designed fallback.
	}

	t0 := time.Now()
	var tr *Trace
	var err error
	// Label the emulation so profiles attribute capture time per
	// workload; it is the one expensive leg of the chain.
	pprof.Do(ctx, pprof.Labels("phase", "capture", "workload", k.name),
		func(context.Context) {
			if k.ckpt {
				tr, err = CaptureCheckpointLog(k.name, prog, k.budget)
			} else {
				tr, err = Capture(k.name, prog, k.budget)
			}
		})
	if err != nil {
		csp.SetError(err)
		return nil, err
	}
	s.captureNanos.Add(time.Since(t0).Nanoseconds())
	s.captures.Add(1)
	csp.SetAttr("source", "emulate")

	if dir != "" && tr.stepErr == nil {
		file := traceFileName(dir, k.name, k.budget)
		if k.ckpt {
			file = ckptFileName(dir, k.name, k.budget)
		}
		if err := saveTrace(dir, tr, prog, k.ckpt); err == nil {
			s.diskSaves.Add(1)
		} else if s.RejectLog != nil {
			s.RejectLog(file, err)
		}
	}
	return &Entry{Prog: prog, Trace: tr}, nil
}

// Reset drops every resident trace and zeroes nothing else (counters
// keep accumulating). Test hook.
func (s *Store) Reset() { s.traces.Clear() }
