package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/workload"
)

// fakeSim installs a controllable simulation double on the engine and
// returns a handle to gate and count it.
type fakeSim struct {
	mu      sync.Mutex
	started int
	release chan struct{} // nil = return immediately
	err     error         // non-nil: every run fails with it
	panics  bool          // every run panics
}

func (f *fakeSim) install(e *Engine) {
	e.runSim = func(ctx context.Context, cfg tcsim.Config, w string) (tcsim.Result, error) {
		f.mu.Lock()
		f.started++
		f.mu.Unlock()
		if f.release != nil {
			select {
			case <-f.release:
			case <-ctx.Done():
				return tcsim.Result{}, ctx.Err()
			}
		}
		if f.panics {
			panic("fake simulator fault")
		}
		if f.err != nil {
			return tcsim.Result{}, f.err
		}
		// A result derived from the inputs so distinct configs are
		// distinguishable in assertions.
		return tcsim.Result{Retired: cfg.MaxInsts, Cycles: cfg.MaxInsts / 2, IPC: 2}, nil
	}
}

func (f *fakeSim) startedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.started
}

func testJob(t *testing.T, workload string, insts uint64) resolved {
	t.Helper()
	rj, err := resolveSpec(&client.JobRequest{Workload: workload, Insts: insts}, Limits{DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatalf("resolveSpec: %v", err)
	}
	return rj
}

// TestCanonicalKeys verifies that equivalent requests hash identically
// and different machines hash differently — the property the whole
// cache rests on.
func TestCanonicalKeys(t *testing.T) {
	lim := Limits{DefaultTimeout: time.Minute}
	key := func(req client.JobRequest) string {
		rj, err := resolveSpec(&req, lim)
		if err != nil {
			t.Fatalf("resolveSpec(%+v): %v", req, err)
		}
		return rj.key
	}
	w, _ := workload.ByName("m88ksim")
	def := w.DefaultInsts

	same := [][2]client.JobRequest{
		// implicit vs explicit default instruction budget
		{{Workload: "m88ksim"}, {Workload: "m88ksim", Insts: def}},
		// preset "all" vs spelling out the default pipeline
		{{Workload: "gcc", Preset: client.PresetAll}, {Workload: "gcc", Passes: tcsim.DefaultPassSpec()}},
		// implicit vs explicit machine defaults
		{{Workload: "li"}, {Workload: "li", FillLatency: 1, Clusters: 4, FUsPerCluster: 4}},
		// timeout must not split the cache
		{{Workload: "go"}, {Workload: "go", TimeoutMS: 5000}},
	}
	for i, pair := range same {
		if a, b := key(pair[0]), key(pair[1]); a != b {
			t.Errorf("case %d: equivalent requests hash differently: %s vs %s", i, a, b)
		}
	}
	diff := [][2]client.JobRequest{
		{{Workload: "m88ksim"}, {Workload: "gcc"}},
		{{Workload: "m88ksim"}, {Workload: "m88ksim", Insts: 1}},
		{{Workload: "m88ksim"}, {Workload: "m88ksim", Preset: client.PresetAll}},
		{{Workload: "m88ksim", Preset: client.PresetAll}, {Workload: "m88ksim", Preset: client.PresetAll, FillLatency: 5}},
		{{Workload: "m88ksim"}, {Workload: "m88ksim", NoPacking: true}},
		// order matters: an explicit spec is a statement of run order
		{{Workload: "m88ksim", Passes: []string{"moves", "scadd"}}, {Workload: "m88ksim", Passes: []string{"scadd", "moves"}}},
	}
	for i, pair := range diff {
		if a, b := key(pair[0]), key(pair[1]); a == b {
			t.Errorf("case %d: different machines hash identically: %s", i, a)
		}
	}
}

// TestResolveSpecValidation checks the structured-error surface.
func TestResolveSpecValidation(t *testing.T) {
	lim := Limits{DefaultTimeout: time.Minute, MaxInsts: 1000}
	bad := []client.JobRequest{
		{},                                     // no workload
		{Workload: "nosuch"},                   // unknown workload
		{Workload: "m88ksim", Insts: 2000},     // over the per-job cap
		{Workload: "m88ksim", Preset: "turbo"}, // unknown preset
		{Workload: "m88ksim", Preset: client.PresetAll, Passes: []string{"moves"}}, // both
		{Workload: "m88ksim", Passes: []string{"bogus"}},                           // unknown pass
		{Workload: "m88ksim", Passes: []string{"place", "moves"}},                  // illegal order
		{Workload: "m88ksim", TimeoutMS: -1},
		{Workload: "m88ksim", FillLatency: -2},
		// geometries other than 16 FUs: too few would panic the issue stage,
		// too many would run another machine, a huge one would exhaust memory
		{Workload: "m88ksim", Insts: 1000, Clusters: 2, FUsPerCluster: 2},
		{Workload: "m88ksim", Insts: 1000, Clusters: 5, FUsPerCluster: 3},
		{Workload: "m88ksim", Insts: 1000, Clusters: 16, FUsPerCluster: 16},
		{Workload: "m88ksim", Insts: 1000, Clusters: 1_000_000, FUsPerCluster: 1_000_000},
	}
	for i, req := range bad {
		if _, err := resolveSpec(&req, lim); err == nil {
			t.Errorf("case %d (%+v): no error", i, req)
		} else if _, ok := err.(*badRequest); !ok {
			t.Errorf("case %d: error %v is not a badRequest", i, err)
		}
	}
}

// TestEngineCacheAndDedup: repeats hit the cache, concurrent identical
// requests collapse onto one simulation.
func TestEngineCacheAndDedup(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2, Queue: 64})
	fake := &fakeSim{release: make(chan struct{})}
	fake.install(e)
	spec := testJob(t, "m88ksim", 1000)

	const N = 8
	var wg sync.WaitGroup
	results := make([]*cacheEntry, N)
	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ent, _, err := e.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("Run: %v", err)
				return
			}
			results[i] = ent
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the joiners pile onto the flight
	close(fake.release)
	wg.Wait()

	if got := fake.startedCount(); got != 1 {
		t.Errorf("%d identical concurrent requests started %d simulations, want 1", N, got)
	}
	for i := 1; i < N; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got its own cache entry, not the deduplicated run's", i)
		}
	}
	// A repeat after completion is a cache hit, still one simulation.
	if _, cached, err := e.Run(context.Background(), spec); err != nil || !cached {
		t.Errorf("repeat run: cached=%v err=%v, want cache hit", cached, err)
	}
	if got := fake.startedCount(); got != 1 {
		t.Errorf("cache hit re-simulated: %d starts", got)
	}
	if e.met.hits.Load() == 0 {
		t.Error("cache hit counter is zero")
	}
}

// TestEngineAdmissionBackpressure: admission beyond Workers+Queue fails
// fast with ErrQueueFull and recovers once tokens release.
func TestEngineAdmissionBackpressure(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1, Queue: 1})
	var releases []func()
	for i := 0; i < 2; i++ {
		rel, err := e.Admit()
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		releases = append(releases, rel)
	}
	if _, err := e.Admit(); err != ErrQueueFull {
		t.Fatalf("third admit: %v, want ErrQueueFull", err)
	}
	if e.met.rejected.Load() != 1 {
		t.Errorf("rejected counter = %d, want 1", e.met.rejected.Load())
	}
	releases[0]()
	if rel, err := e.Admit(); err != nil {
		t.Fatalf("admit after release: %v", err)
	} else {
		rel()
	}
	releases[1]()
	if after := e.RetryAfter(); after < time.Second || after > 30*time.Second {
		t.Errorf("RetryAfter %v outside [1s, 30s]", after)
	}
}

// TestEngineCacheEviction: the cache stays bounded, evicting the least
// recently used entry.
func TestEngineCacheEviction(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1, CacheEntries: 4})
	fake := &fakeSim{}
	fake.install(e)
	for i := 1; i <= 10; i++ {
		spec := testJob(t, "m88ksim", uint64(i))
		if _, _, err := e.Run(context.Background(), spec); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if n := e.CacheLen(); n != 4 {
		t.Errorf("cache holds %d entries, want 4", n)
	}
	// Oldest evicted: re-running insts=1 simulates again.
	before := fake.startedCount()
	if _, cached, _ := e.Run(context.Background(), testJob(t, "m88ksim", 1)); cached {
		t.Error("evicted entry reported as cached")
	}
	if fake.startedCount() != before+1 {
		t.Error("evicted entry did not re-simulate")
	}
	// Newest retained: insts=10 is a hit.
	if _, cached, _ := e.Run(context.Background(), testJob(t, "m88ksim", 10)); !cached {
		t.Error("recent entry was evicted")
	}

	// Fill four keys, hit the oldest, add a fifth: the hit key stays and
	// the second-oldest goes.
	e = NewEngine(EngineConfig{Workers: 1, CacheEntries: 4})
	fake.install(e)
	for _, insts := range []uint64{1, 2, 3, 4, 1, 5} {
		if _, _, err := e.Run(context.Background(), testJob(t, "m88ksim", insts)); err != nil {
			t.Fatalf("run %d: %v", insts, err)
		}
	}
	if _, cached, _ := e.Run(context.Background(), testJob(t, "m88ksim", 1)); !cached {
		t.Error("the oldest entry was evicted although it was just hit")
	}
	if _, cached, _ := e.Run(context.Background(), testJob(t, "m88ksim", 2)); cached {
		t.Error("the least recently used entry was kept")
	}
}

// TestEngineTimeout: a job exceeding its timeout fails with a
// cancel-class error and does not poison the cache.
func TestEngineTimeout(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1})
	fake := &fakeSim{release: make(chan struct{})} // never released: job hangs
	fake.install(e)
	spec := testJob(t, "m88ksim", 1000)
	spec.timeout = 30 * time.Millisecond

	_, _, err := e.Run(context.Background(), spec)
	if !isCancel(err) {
		t.Fatalf("Run past timeout: %v, want a cancel-class error", err)
	}
	// The key must not be poisoned: a retry becomes the new owner.
	close(fake.release)
	if _, cached, err := e.Run(context.Background(), spec); err != nil || cached {
		t.Errorf("retry after the timeout: cached=%v err=%v, want a fresh run", cached, err)
	}
	if n := fake.startedCount(); n != 2 {
		t.Errorf("%d simulations started, want 2 (the retry runs)", n)
	}
}

// TestEnginePanicFailsTheRun: a panicking simulation is its run's error
// and releases its key, slot and gauges, so a repeat of the key runs
// again instead of waiting on a flight that never closes.
func TestEnginePanicFailsTheRun(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1})
	fake := &fakeSim{panics: true}
	fake.install(e)
	spec := testJob(t, "m88ksim", 1000)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		_, _, err := e.Run(ctx, spec)
		cancel()
		if err == nil || !strings.Contains(err.Error(), "fake simulator fault") {
			t.Fatalf("run %d: %v, want the panic as the error", i, err)
		}
	}
	if n := fake.startedCount(); n != 2 {
		t.Errorf("%d simulations started, want 2 (a failure is not cached)", n)
	}
	if n := e.met.inflight.Load(); n != 0 {
		t.Errorf("inflight gauge = %d after both runs, want 0", n)
	}
}

// TestEngineFailedRunsLeaveNoFlights: a failed run is forgotten as a
// cancelled one is, so failing keys hold nothing: a repeat runs again
// instead of joining a finished flight.
func TestEngineFailedRunsLeaveNoFlights(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1, CacheEntries: 8})
	fake := &fakeSim{err: errors.New("max cycles exceeded")}
	fake.install(e)
	for round := 0; round < 2; round++ {
		for i := 1; i <= 100; i++ {
			if _, _, err := e.Run(context.Background(), testJob(t, "m88ksim", uint64(i))); err == nil {
				t.Fatalf("failing run %d succeeded", i)
			}
		}
	}
	if n := fake.startedCount(); n != 200 {
		t.Errorf("%d simulations for 100 failing keys run twice, want 200", n)
	}
	if n := e.CacheLen(); n != 0 {
		t.Errorf("%d failures cached, want 0", n)
	}
}

// TestEngineDrain: Drain admits nothing new and waits for admitted work.
func TestEngineDrain(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1})
	rel, err := e.Admit()
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- e.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a job still admitted", err)
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := e.Admit(); err != ErrDraining {
		t.Fatalf("Admit during drain: %v, want ErrDraining", err)
	}
	rel()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestDrainDeadline: a hung job makes Drain fail at its deadline rather
// than hang forever.
func TestDrainDeadline(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1})
	rel, err := e.Admit()
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil with a token still held")
	}
}

// TestJobStoreBound: finished records are capped at maxFinishedJobs,
// least recently used out first, while a queued or running record is
// never evicted, and a finished record answers not-found after its TTL.
func TestJobStoreBound(t *testing.T) {
	s := newJobStore(time.Minute)
	finish := func(j *job) {
		j.finish(&cacheEntry{}, false, nil, 0)
		s.keep(j)
	}
	live := s.create("live", "r")
	var finished []*job
	for i := 0; i <= maxFinishedJobs; i++ {
		j := s.create(fmt.Sprint(i), "r")
		finish(j)
		finished = append(finished, j)
	}
	if _, ok := s.get(finished[0].id); ok {
		t.Errorf("%d finished records kept the oldest", len(finished))
	}
	if _, ok := s.get(finished[1].id); !ok {
		t.Errorf("%d finished records evicted more than the oldest", len(finished))
	}
	if got := s.records(); got != maxFinishedJobs+1 {
		t.Errorf("store holds %d records, want %d finished and 1 live", got, maxFinishedJobs)
	}
	for len(finished) < 2*maxFinishedJobs {
		j := s.create(fmt.Sprint(len(finished)), "r")
		finish(j)
		finished = append(finished, j)
	}
	if j, ok := s.get(live.id); !ok || j.wire().State != client.StateQueued {
		t.Fatalf("the record left queued did not survive %d finishes", len(finished))
	}
	finish(live)
	if j, ok := s.get(live.id); !ok || j.wire().State != client.StateDone {
		t.Fatal("a record that finished last is not pollable")
	}

	short := newJobStore(time.Millisecond)
	j := short.create("k", "r")
	j.finish(&cacheEntry{}, false, nil, 0)
	short.keep(j)
	time.Sleep(5 * time.Millisecond)
	if _, ok := short.get(j.id); ok {
		t.Error("a record read after its TTL was found")
	}
}

// records counts the records s holds, live and finished.
func (s *jobStore) records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live) + s.done.Stats().Entries
}

func TestJobStoreIDsUnique(t *testing.T) {
	s := newJobStore(time.Minute)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		j := s.create(fmt.Sprint(i), "r")
		if seen[j.id] {
			t.Fatalf("duplicate job id %s", j.id)
		}
		seen[j.id] = true
	}
}

// TestLeadingJobID: a body tcgate relays must open with a node job ID,
// {"id":"j<hex>", and every job the daemon writes does.
func TestLeadingJobID(t *testing.T) {
	for body, want := range map[string]int{
		`{"id":"j0123456789abcdef","state":"done"}`: 24,
		`{"id":"ja"}`:                9,
		`{"id":"j"}`:                 -1, // no hex digit
		`{"id":"jA1"}`:               -1, // upper case: not a node ID
		`{"id":"n0.j1"}`:             -1, // already a gateway ID
		`{"id":"j1\"}`:               -1, // an escaped quote
		`{"id":"j12`:                 -1, // no closing quote
		`{"id": "j1"}`:               -1, // the node writes compact JSON
		`{"state":"done","id":"j1"}`: -1,
		``:                           -1,
	} {
		if got := LeadingJobID([]byte(body)); got != want {
			t.Errorf("LeadingJobID(%s) = %d, want %d", body, got, want)
		}
	}

	s := newJobStore(time.Minute)
	j := s.create("k", "r")
	rec := httptest.NewRecorder()
	writeJob(rec, http.StatusOK, j.wire())
	if got, want := LeadingJobID(rec.Body.Bytes()), len(JobBodyOpen)+len(j.id); got != want {
		t.Errorf("LeadingJobID(%s) = %d, want %d", rec.Body.Bytes(), got, want)
	}
}
