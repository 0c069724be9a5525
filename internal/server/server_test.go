package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
)

// testInsts keeps end-to-end simulations cheap (a few ms each).
const testInsts = 5000

// newTestServer starts a Server behind httptest and returns it with a
// wired client.
func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, client.New(hs.URL)
}

// TestEndToEndJobDeterminism is the core serving contract: a job
// submitted over HTTP — sync, async+poll, and a cached repeat, sync and
// async — returns bit-for-bit the result of a direct tcsim.Run of the
// same config, across the real JSON round trip. The cache holds one
// entry, so the async job evicts the cached repeat's result, which the
// async repeat's job record must still serve.
func TestEndToEndJobDeterminism(t *testing.T) {
	srv, cl := newTestServer(t, Config{Engine: EngineConfig{CacheEntries: 1}})
	ctx := context.Background()
	req := &client.JobRequest{Workload: "m88ksim", Insts: testInsts, Preset: client.PresetAll}

	dcfg, wantKey, err := ResolveConfig(req, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := tcsim.RunWorkload(dcfg, req.Workload)
	if err != nil {
		t.Fatal(err)
	}

	// Sync.
	job, err := cl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if job.State != client.StateDone || job.Result == nil {
		t.Fatalf("sync job state %q, error %q", job.State, job.Error)
	}
	if job.Key != wantKey {
		t.Errorf("server key %s != ResolveConfig key %s", job.Key, wantKey)
	}
	if !reflect.DeepEqual(*job.Result, expected) {
		t.Errorf("served result differs from direct tcsim.Run:\nserved %+v\ndirect %+v", *job.Result, expected)
	}

	// Cached repeat.
	again, err := cl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("repeat SubmitJob: %v", err)
	}
	if !again.Cached {
		t.Error("repeat submission not served from cache")
	}
	if !reflect.DeepEqual(*again.Result, expected) {
		t.Error("cached result differs from direct run")
	}
	// A sync hit keeps no record, so its ID does not poll.
	if _, err := cl.GetJob(ctx, again.ID); err == nil {
		t.Error("a sync cache hit's ID polls")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Status != http.StatusNotFound ||
		!strings.Contains(apiErr.Message, "synchronous cache hit") {
		t.Errorf("polling a sync cache hit: %v, want a 404 that names it", err)
	}
	asyncHit, err := cl.SubmitJobAsync(ctx, req)
	if err != nil {
		t.Fatalf("repeat SubmitJobAsync: %v", err)
	}
	if asyncHit.State != client.StateDone || !asyncHit.Cached {
		t.Errorf("async repeat: state %q, cached %v; want done from the cache", asyncHit.State, asyncHit.Cached)
	}

	// Async + poll, different config so it actually runs.
	areq := &client.JobRequest{Workload: "m88ksim", Insts: testInsts} // baseline
	sub, err := cl.SubmitJobAsync(ctx, areq)
	if err != nil {
		t.Fatalf("SubmitJobAsync: %v", err)
	}
	if sub.ID == "" {
		t.Fatal("async submission carries no job id")
	}
	done, err := cl.WaitJob(ctx, sub.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	adcfg, _, _ := ResolveConfig(areq, Limits{})
	aexp, _ := tcsim.RunWorkload(adcfg, areq.Workload)
	if !reflect.DeepEqual(*done.Result, aexp) {
		t.Error("async served result differs from direct run")
	}

	// The cached repeat's key was evicted; the async repeat's job still
	// answers.
	if _, resident := srv.engine.cache.Get(wantKey); resident {
		t.Fatal("a one-entry cache still holds the first key after another job")
	}
	polled, err := cl.GetJob(ctx, asyncHit.ID)
	if err != nil {
		t.Fatalf("GetJob after eviction: %v", err)
	}
	if polled.State != client.StateDone || polled.Result == nil || !reflect.DeepEqual(*polled.Result, expected) {
		t.Errorf("hit job after its key's eviction: state %q, result differs from direct run", polled.State)
	}

	// Metrics reflect the traffic.
	met, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := met[`tcserved_cache_requests_total{result="hit"}`], met[`tcserved_cache_requests_total{result="miss"}`]
	if completed := met[`tcserved_jobs_total{event="completed"}`]; hits == 0 || misses == 0 || completed != 4 {
		t.Errorf("metrics: hits %v misses %v completed %v, want >0, >0, 4", hits, misses, completed)
	}
	if met[`tcserved_pass_segments_total{pass="moves"}`] == 0 {
		t.Error("metrics: no per-pass aggregate after an optimized run")
	}
}

// TestValidationErrors maps malformed requests to structured 400s.
func TestValidationErrors(t *testing.T) {
	_, cl := newTestServer(t, Config{Engine: EngineConfig{Limits: Limits{MaxInsts: 100_000}}})
	ctx := context.Background()
	bad := []*client.JobRequest{
		{},
		{Workload: "nosuch"},
		{Workload: "m88ksim", Passes: []string{"bogus"}},
		{Workload: "m88ksim", Passes: []string{"place", "moves"}},
		{Workload: "m88ksim", Preset: "turbo"},
		{Workload: "m88ksim", Insts: 1 << 40},
	}
	for i, req := range bad {
		_, err := cl.SubmitJob(ctx, req)
		apiErr, ok := err.(*client.APIError)
		if !ok {
			t.Fatalf("case %d: error %v is not an APIError", i, err)
		}
		if apiErr.Status != http.StatusBadRequest || apiErr.Code != "invalid_argument" {
			t.Errorf("case %d: got %d/%s, want 400/invalid_argument", i, apiErr.Status, apiErr.Code)
		}
		if apiErr.Message == "" {
			t.Errorf("case %d: empty error message", i)
		}
	}

	// Unknown job id is a structured 404.
	if _, err := cl.GetJob(ctx, "jdeadbeef"); err == nil {
		t.Error("GET unknown job: no error")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Status != http.StatusNotFound {
		t.Errorf("GET unknown job: %v, want 404", err)
	}

	// Malformed body (unknown field) is a 400, not a 500.
	resp, err := http.Post(strings.TrimSuffix(cl.Base(), "/")+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"m88ksim","warp_speed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestQueueFullBackpressure saturates a 1-worker, 1-slot daemon with
// gated fake simulations: the next submission must be rejected with
// 429 + Retry-After immediately (no queueing, no hang), and the queue
// must serve again once it drains.
func TestQueueFullBackpressure(t *testing.T) {
	srv, cl := newTestServer(t, Config{Engine: EngineConfig{Workers: 1, Queue: 1}})
	fake := &fakeSim{release: make(chan struct{})}
	fake.install(srv.engine)
	ctx := context.Background()

	// Fill the worker and the wait line with distinct configs.
	ids := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		job, err := cl.SubmitJobAsync(ctx, &client.JobRequest{Workload: "m88ksim", Insts: uint64(1000 + i)})
		if err != nil {
			t.Fatalf("async submit %d: %v", i, err)
		}
		ids = append(ids, job.ID)
	}

	// Saturated: this must 429 with a Retry-After hint.
	_, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: 3000})
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("saturated submit: %v, want APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "queue_full" {
		t.Fatalf("saturated submit: %d/%s, want 429/queue_full", apiErr.Status, apiErr.Code)
	}
	if apiErr.RetryAfter() <= 0 {
		t.Error("429 without a Retry-After hint")
	}

	// A cache-resident config is still served during saturation: hits
	// bypass admission. (Nothing cached yet here, so just verify the
	// counters; the rejection was counted.)
	met, _ := cl.Metrics(ctx)
	if met[`tcserved_jobs_total{event="rejected"}`] == 0 {
		t.Error("jobs_rejected counter is zero after a 429")
	}

	// Drain the queue; everything admitted completes.
	close(fake.release)
	for _, id := range ids {
		if job, err := cl.WaitJob(ctx, id, 2*time.Millisecond); err != nil || job.State != client.StateDone {
			t.Fatalf("job %s after drain: state %v err %v", id, job, err)
		}
	}
	// And the daemon accepts work again.
	if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: 3000}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestGracefulShutdownDrains: Shutdown waits for an admitted async job
// to finish, and its result remains correct.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := New(Config{Engine: EngineConfig{Workers: 1}})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := client.New(hs.URL)
	fake := &fakeSim{release: make(chan struct{})}
	fake.install(srv.engine)
	ctx := context.Background()

	job, err := cl.SubmitJobAsync(ctx, &client.JobRequest{Workload: "m88ksim", Insts: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is actually running.
	deadline := time.Now().Add(2 * time.Second)
	for fake.startedCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v while a job was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	// New work is refused while draining.
	if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: 2000}); err == nil {
		t.Error("submission during drain succeeded")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Code != "draining" {
		t.Errorf("submission during drain: %v, want draining", err)
	}

	close(fake.release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The drained job's record survives and is done.
	final, err := cl.GetJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Errorf("drained job state %q, want done", final.State)
	}
}

// TestSweepEndpoint: a sweep crosses workloads x configs, its cells
// agree with direct runs, and a repeated sweep is served entirely from
// the result cache.
func TestSweepEndpoint(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	req := &client.SweepRequest{
		Workloads: []string{"m88ksim", "compress"},
		Configs:   []client.JobRequest{{}, {Preset: client.PresetAll}},
		Insts:     testInsts,
	}
	resp, err := cl.Sweep(ctx, req)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if resp.Cells != 4 || len(resp.Rows) != 4 {
		t.Fatalf("sweep: %d cells / %d rows, want 4/4", resp.Cells, len(resp.Rows))
	}
	if resp.Simulations != 4 {
		t.Errorf("first sweep simulated %d cells, want 4", resp.Simulations)
	}
	// Cells agree with direct runs of the same config.
	jr := client.JobRequest{Workload: "m88ksim", Insts: testInsts, Preset: client.PresetAll}
	dcfg, key, _ := ResolveConfig(&jr, Limits{})
	direct, err := tcsim.RunWorkload(dcfg, "m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range resp.Rows {
		if row.Workload == "m88ksim" && row.Key == key {
			found = true
			if row.IPC != direct.IPC || row.Cycles != direct.Cycles || row.Retired != direct.Retired {
				t.Errorf("sweep cell disagrees with direct run: %+v vs IPC %v cycles %d",
					row, direct.IPC, direct.Cycles)
			}
		}
	}
	if !found {
		t.Errorf("no sweep row with the job-path key %s: hashing diverged between paths", key)
	}

	// The same sweep again: all cache hits, zero new simulations.
	resp2, err := cl.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Simulations != 0 {
		t.Errorf("repeated sweep simulated %d cells, want 0 (cached)", resp2.Simulations)
	}

	// Validation: configs naming workloads are rejected.
	if _, err := cl.Sweep(ctx, &client.SweepRequest{
		Configs: []client.JobRequest{{Workload: "m88ksim"}},
	}); err == nil {
		t.Error("sweep config naming a workload was accepted")
	}
}

// TestSweepMatchesJobs: a sweep cell runs exactly what POST /v1/jobs
// runs for the same request — sampling plans, replacement policies and
// timeouts included. The sweep and the job go to separate daemons, so
// neither answer can come from the other's cache.
func TestSweepMatchesJobs(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		workload string
		insts    uint64
		cfg      client.JobRequest
		wantCode string // the job path's error code; "" = it succeeds
	}{
		{name: "sampled", workload: "compress", insts: 100_000,
			cfg: client.JobRequest{SamplePeriod: 20000, SampleWindow: 2000, SampleWarmup: 2000}},
		{name: "policies", workload: "compress", insts: testInsts,
			cfg: client.JobRequest{TCPolicy: "srrip", ICPolicy: "srrip"}},
		{name: "timeout", workload: "gcc", insts: 200_000,
			cfg: client.JobRequest{TimeoutMS: 1}, wantCode: "timeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, sweeps := newTestServer(t, Config{})
			_, jobs := newTestServer(t, Config{})
			jr := tc.cfg
			jr.Workload, jr.Insts = tc.workload, tc.insts
			job, jerr := jobs.SubmitJob(ctx, &jr)
			resp, serr := sweeps.Sweep(ctx, &client.SweepRequest{
				Workloads: []string{tc.workload},
				Configs:   []client.JobRequest{tc.cfg},
				Insts:     tc.insts,
			})
			if tc.wantCode != "" {
				var jae, sae *client.APIError
				if !errors.As(jerr, &jae) || jae.Code != tc.wantCode {
					t.Fatalf("job: %v, want %s", jerr, tc.wantCode)
				}
				if !errors.As(serr, &sae) || sae.Status != jae.Status || sae.Code != jae.Code {
					t.Fatalf("sweep answered %v (rows %+v), job answered %d %s", serr, resp, jae.Status, jae.Code)
				}
				return
			}
			if jerr != nil || serr != nil {
				t.Fatalf("job: %v, sweep: %v", jerr, serr)
			}
			r := job.Result
			want := client.SweepRow{Workload: tc.workload, Key: job.Key, IPC: r.IPC, Cycles: r.Cycles,
				Retired: r.Retired, TCHitRate: r.TraceCacheHitRate, MispredictRate: r.MispredictRate}
			if len(resp.Rows) != 1 || resp.Rows[0] != want {
				t.Fatalf("sweep rows %+v, job path gives %+v", resp.Rows, want)
			}
		})
	}
}

// TestSweepQueueDepth: a sweep's cells are jobs and take worker slots
// like any other. With one worker, a 3-cell sweep runs one cell while
// the other two wait for the slot, the exposition reads exactly that,
// and the daemon counts three accepted jobs.
func TestSweepQueueDepth(t *testing.T) {
	srv, cl := newTestServer(t, Config{Engine: EngineConfig{Workers: 1}})
	fake := &fakeSim{release: make(chan struct{})}
	fake.install(srv.engine)
	release := sync.OnceFunc(func() { close(fake.release) })
	defer release() // a failed assertion must not leave the cells blocked
	ctx := context.Background()
	const accepted = `tcserved_jobs_total{event="accepted"}`
	met, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	accepted0 := met[accepted]
	done := make(chan error, 1)
	go func() {
		_, err := cl.Sweep(ctx, &client.SweepRequest{Workloads: []string{"m88ksim", "compress", "li"}, Insts: 1000})
		done <- err
	}()

	deadline := time.Now().Add(2 * time.Second)
	for {
		met, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		depth, running := met["tcserved_queue_depth"], met["tcserved_jobs_in_flight"]
		if depth == 2 && running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %v, in flight %v; want 2 and 1", depth, running)
		}
		time.Sleep(time.Millisecond)
	}
	if n := fake.startedCount(); n != 1 {
		t.Errorf("%d cells simulating with one worker", n)
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	met, err = cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for sample, want := range map[string]float64{
		"tcserved_queue_depth":    0,
		"tcserved_jobs_in_flight": 0,
		accepted:                  accepted0 + 3,
	} {
		if got := met[sample]; got != want {
			t.Errorf("after the sweep %s = %v, want %v", sample, got, want)
		}
	}
}

// TestAsyncPanicFailsTheJob: a simulation that panics on the async
// path ends its job failed and leaves the daemon serving.
func TestAsyncPanicFailsTheJob(t *testing.T) {
	srv, cl := newTestServer(t, Config{})
	(&fakeSim{panics: true}).install(srv.engine)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	job, err := cl.SubmitJobAsync(ctx, &client.JobRequest{Workload: "compress", Insts: testInsts})
	if err != nil {
		t.Fatalf("SubmitJobAsync: %v", err)
	}
	done, err := cl.WaitJob(ctx, job.ID, 0)
	if err != nil || done.State != client.StateFailed || !strings.Contains(done.Error, "fake simulator fault") {
		t.Fatalf("panicking async job = %+v, %v; want failed with the panic", done, err)
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("daemon not serving after the panic: %v", err)
	}
}

// TestPassesAndHealth covers the registry and liveness endpoints;
// /v1/policies mirrors the replacement-policy registry exactly.
func TestPassesAndHealth(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	passes, err := cl.Passes(ctx)
	if err != nil {
		t.Fatalf("passes: %v", err)
	}
	if len(passes) < 5 {
		t.Fatalf("registry lists %d passes, want >= 5", len(passes))
	}
	names := make(map[string]bool)
	defaults := 0
	for _, p := range passes {
		names[p.Name] = true
		if p.Default {
			defaults++
		}
	}
	for _, want := range []string{"moves", "reassoc", "scadd", "place"} {
		if !names[want] {
			t.Errorf("pass %q missing from /v1/passes", want)
		}
	}
	if defaults == 0 {
		t.Error("no default passes reported")
	}

	policies, err := cl.Policies(ctx)
	if err != nil {
		t.Fatalf("policies: %v", err)
	}
	reg := tcsim.Policies()
	if len(policies) != len(reg) {
		t.Fatalf("/v1/policies lists %d policies, the registry %d", len(policies), len(reg))
	}
	for i, p := range reg {
		if policies[i] != client.Policy(p) {
			t.Errorf("/v1/policies[%d] = %+v, registry has %+v", i, policies[i], p)
		}
	}
}

// discardResponse is a ResponseWriter that keeps only the byte count.
type discardResponse struct {
	header http.Header
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestCacheHitAllocationsFlat guards the hit path's encoding work: a hit
// writes the result's stored encoding, so the bytes one hit allocates
// must not grow with the result. An encoder that re-marshals or indents
// the result on every hit allocates several times the extra result
// bytes per hit; writing the stored encoding allocates a fraction of
// them.
func TestCacheHitAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoder buffers at random")
	}
	srv := New(Config{})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	h := srv.Handler()
	const hits = 100
	perHit := func(req client.JobRequest) (alloc float64, resultLen int) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponse{header: http.Header{}}
		serve := func() {
			w.n = 0
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		}
		serve() // the miss that simulates and caches the result
		serve() // a first hit, which fills the encoder's pooled buffer
		_, key, err := ResolveConfig(&req, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		ent, ok := srv.engine.cache.Get(key)
		if !ok {
			t.Fatalf("%s: the result is not cached", req.Workload)
		}
		resultLen = len(ent.json)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < hits; i++ {
			serve()
		}
		runtime.ReadMemStats(&m1)
		if w.n < resultLen {
			t.Fatalf("%s: hit wrote %d bytes, less than its %d-byte result", req.Workload, w.n, resultLen)
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / hits, resultLen
	}
	small, smallLen := perHit(client.JobRequest{Workload: "compress", Insts: testInsts, Preset: client.PresetBaseline})
	large, largeLen := perHit(client.JobRequest{Workload: "gcc", Insts: 50_000, Preset: client.PresetAll})
	t.Logf("bytes allocated per hit: %.0f for a %d-byte result, %.0f for a %d-byte result", small, smallLen, large, largeLen)
	if grown := large - small; grown >= float64(largeLen-smallLen) {
		t.Errorf("a hit on a result %d bytes larger allocates %.0f bytes more: a copy of the result per hit",
			largeLen-smallLen, grown)
	}
}

// TestSyncHitsLeaveNoRecord guards a node's memory against its traffic:
// a sync cache hit's caller already holds the answer and never polls,
// so the hit keeps no job record, and the heap a node retains does not
// grow with the hits it has served.
func TestSyncHitsLeaveNoRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("15,000 requests take seconds under the race detector; the plain build runs this guard")
	}
	srv := New(Config{})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	h := srv.Handler()
	body, err := json.Marshal(client.JobRequest{Workload: "compress", Insts: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	w := &discardResponse{header: http.Header{}}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		}
	}
	retained := func() (heap uint64, records int) {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc, srv.jobs.records()
	}
	// The miss that caches the result, then enough hits to fill the
	// span ring, which holds as many spans from then on.
	serve(1 + 5000)
	heap0, records0 := retained()
	const hits = 10_000
	serve(hits)
	heap1, records1 := retained()
	perHit := (float64(heap1) - float64(heap0)) / hits
	t.Logf("%d sync hits: %d -> %d records, %.1f retained heap bytes per hit", hits, records0, records1, perHit)
	if records1 > records0 {
		t.Errorf("%d sync hits left %d more job records", hits, records1-records0)
	}
	if perHit >= 32 {
		t.Errorf("each sync hit retains %.1f heap bytes, want under 32", perHit)
	}
}
