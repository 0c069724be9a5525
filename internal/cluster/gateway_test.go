package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/obs"
	"tcsim/internal/server"
	"tcsim/internal/tracestore"
)

// testInsts keeps cluster tests fast while exercising real simulation.
const testInsts = 5000

// testNode is one in-process backend: a real server.Server with its own
// trace store, mounted on an httptest listener.
type testNode struct {
	name  string
	store *tcsim.TraceStore
	srv   *server.Server
	ts    *httptest.Server
}

// testCluster boots n in-process nodes and a gateway over them. Each
// node gets an isolated trace store so per-node CDN counters mean
// something, and serves spans under its node name. Probes run on a
// tight interval.
func testCluster(t *testing.T, n int) (*Gateway, *httptest.Server, []*testNode) {
	return testClusterProbing(t, n, 50*time.Millisecond)
}

// testClusterProbing is testCluster with probe rounds the given interval
// apart. Each node's queue has room for all 16 clients of the storm
// test, so none is answered 429 and rehashed onto a second node.
func testClusterProbing(t *testing.T, n int, probe time.Duration) (*Gateway, *httptest.Server, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, n)
	cfgNodes := make([]Node, n)
	for i := range nodes {
		name := fmt.Sprintf("node%d", i)
		st := tcsim.NewTraceStore(0)
		srv := server.New(server.Config{Engine: server.EngineConfig{Workers: 2, Queue: 64, Store: st}, Service: name})
		ts := httptest.NewServer(srv.Handler())
		nodes[i] = &testNode{name: name, store: st, srv: srv, ts: ts}
		cfgNodes[i] = Node{Name: name, URL: ts.URL}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			ts.Close()
		})
	}
	g, err := New(Config{
		Nodes:         cfgNodes,
		ProbeInterval: probe,
		ProbeTimeout:  time.Second,
		Retry:         client.RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	})
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	return g, gts, nodes
}

// TestGatewayJobAffinity: jobs proxy through the gateway bit-for-bit
// identically to a direct run, identical configs land on the same node
// (second submission is that node's cache hit), a hit's result bytes
// pass through the gateway exactly as the owner wrote them, and async
// IDs poll back through the node-index namespace.
func TestGatewayJobAffinity(t *testing.T) {
	_, gts, nodes := testCluster(t, 3)
	ctx := context.Background()
	cl := client.New(gts.URL)

	req := &client.JobRequest{Workload: "compress", Insts: testInsts}
	cfg, _, err := server.ResolveConfig(req, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := tcsim.RunWorkloadContextIn(ctx, cfg, "compress", tcsim.NewTraceStore(0))
	if err != nil {
		t.Fatal(err)
	}
	job, err := cl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.StateDone || job.Result == nil {
		t.Fatalf("gateway job state %q", job.State)
	}
	if !reflect.DeepEqual(*job.Result, direct) {
		t.Fatalf("gateway result differs from direct run:\n gateway %+v\n direct  %+v", *job.Result, direct)
	}
	owner, _, ok := splitID(job.ID)
	if !ok {
		t.Fatalf("gateway job ID %q lacks the node namespace", job.ID)
	}

	// Same config again: must route to the same node and hit its cache.
	const hits = `tcserved_cache_requests_total{result="hit"}`
	before := mustMetrics(t, nodes[owner])[hits]
	if _, err := cl.SubmitJob(ctx, req); err != nil {
		t.Fatal(err)
	}
	if after := mustMetrics(t, nodes[owner])[hits]; after != before+1 {
		t.Fatalf("owner cache hits %v -> %v, want +1 (affinity broken?)", before, after)
	}

	// The relay: a hit's result reaches the client as the bytes its
	// owner stored, whether submitted sync, async, or polled.
	stored := hitJob(t, client.New(nodes[owner].ts.URL), http.MethodPost, "/v1/jobs", req).Result
	var decoded tcsim.Result
	if err := json.Unmarshal(stored, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, direct) {
		t.Fatalf("owner's stored result differs from direct run:\n stored %+v\n direct %+v", decoded, direct)
	}
	syncHit := hitJob(t, cl, http.MethodPost, "/v1/jobs", req)
	asyncHit := hitJob(t, cl, http.MethodPost, "/v1/jobs?async=1", req)
	polled := hitJob(t, cl, http.MethodGet, "/v1/jobs/"+asyncHit.ID, nil)
	for via, job := range map[string]*server.JobEnvelope{"sync": syncHit, "async": asyncHit, "poll": polled} {
		if !job.Cached {
			t.Errorf("%s through the gateway: job %s not served from the owner's cache", via, job.ID)
		}
		if !bytes.Equal(job.Result, stored) {
			t.Errorf("%s hit through the gateway: result bytes differ from the owner's:\n gateway %s\n owner   %s",
				via, job.Result, stored)
		}
	}

	// Async: the prefixed ID round-trips through GET /v1/jobs/{id}.
	aj, err := cl.SubmitJobAsync(ctx, &client.JobRequest{Workload: "gcc", Insts: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := splitID(aj.ID); !ok {
		t.Fatalf("async ID %q not namespaced", aj.ID)
	}
	done, err := cl.WaitJob(ctx, aj.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != client.StateDone || done.ID != aj.ID {
		t.Fatalf("polled job = (%q, %q), want done under the same ID", done.State, done.ID)
	}
}

// hitJob runs one job exchange that must answer a finished job, and
// returns the job with its result as the bytes on the wire.
func hitJob(t *testing.T, c *client.Client, method, path string, in any) *server.JobEnvelope {
	t.Helper()
	raw, err := c.Raw(context.Background(), method, path, in)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	var job server.JobEnvelope
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	if job.State != client.StateDone || len(job.Result) == 0 {
		t.Fatalf("%s %s: job %q in state %q, want done with a result", method, path, job.ID, job.State)
	}
	return &job
}

// TestGatewayStorm is the cluster's serving contract under concurrent
// load: mixed sync and async+poll jobs through the gateway answer
// bit-for-bit what a direct run answers, each workload is emulated once
// cluster-wide (other nodes fetch its trace through the CDN), repeats
// hit their owner's cache, and every node's trace-store samples agree
// with its own store.
func TestGatewayStorm(t *testing.T) {
	_, gts, nodes := testCluster(t, 3)
	for _, n := range nodes {
		n.store.SetFetcher(TraceFetcher(gts.URL, nil))
	}
	ctx := context.Background()
	cl := client.New(gts.URL)

	workloads := []string{"compress", "gcc", "li"}
	configs := []client.JobRequest{
		{}, // baseline
		{Preset: client.PresetAll},
		{Passes: []string{"moves", "place"}},
		{Preset: client.PresetAll, FillLatency: 5},
		{Preset: client.PresetAll, TCPolicy: "lru"}, // the default: the key of the "all" row
		{Preset: client.PresetAll, TCPolicy: "srrip"},
		{Preset: client.PresetAll, TCPolicy: "belady"},
		{SamplePeriod: 2000, SampleWindow: 500, SampleWarmup: 500}, // warm mode
	}
	type testCase struct {
		req  client.JobRequest
		key  string
		want tcsim.Result
	}
	// References run against a store of their own, so they cannot move
	// any node's counters.
	ref := tcsim.NewTraceStore(0)
	var cases []testCase
	keys := map[string]bool{}
	for _, w := range workloads {
		for _, c := range configs {
			req := c
			req.Workload, req.Insts = w, testInsts
			cfg, key, err := server.ResolveConfig(&req, server.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := tcsim.RunWorkloadContextIn(ctx, cfg, w, ref)
			if err != nil {
				t.Fatalf("direct run %s %+v: %v", w, c, err)
			}
			cases = append(cases, testCase{req, key, want})
			keys[key] = true
		}
	}
	if want := len(workloads) * (len(configs) - 1); len(keys) != want {
		t.Fatalf("%d distinct keys, want %d: only the explicit lru shares a key", len(keys), want)
	}

	// One sequential warm job per workload: its owner emulates the trace
	// before any other node can want it.
	for _, w := range workloads {
		if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: w, Insts: testInsts}); err != nil {
			t.Fatal(err)
		}
	}

	var storm []testCase
	for range 5 {
		storm = append(storm, cases...)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(storm), func(i, j int) { storm[i], storm[j] = storm[j], storm[i] })
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for i, tc := range storm {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			var job *client.Job
			var err error
			if i%3 == 0 {
				if job, err = cl.SubmitJobAsync(ctx, &tc.req); err == nil {
					job, err = cl.WaitJob(ctx, job.ID, 2*time.Millisecond)
				}
			} else {
				job, err = cl.SubmitJob(ctx, &tc.req)
			}
			switch {
			case err != nil:
				t.Errorf("job %d (%s): %v", i, tc.req.Workload, err)
			case job.State != client.StateDone || job.Result == nil:
				t.Errorf("job %d (%s): state %q, error %q", i, tc.req.Workload, job.State, job.Error)
			case job.Key != tc.key:
				t.Errorf("job %d: served key %s, ResolveConfig key %s", i, job.Key, tc.key)
			case !reflect.DeepEqual(*job.Result, tc.want):
				t.Errorf("job %d (%s, key %s): served result differs from the direct run", i, tc.req.Workload, tc.key)
			}
		}()
	}
	wg.Wait()

	var emulated, fetches, rejects uint64
	var hits, misses, captureSecs float64
	for _, n := range nodes {
		st := n.store.Stats()
		emulated += st.Captures - st.DiskLoads - st.CDNFetches
		fetches += st.CDNFetches
		rejects += st.CDNRejects
		met := mustMetrics(t, n)
		hits += met[`tcserved_cache_requests_total{result="hit"}`]
		misses += met[`tcserved_cache_requests_total{result="miss"}`]
		captureSecs += met["tcserved_tracestore_capture_seconds_total"]
		for sample, want := range map[string]float64{
			"tcserved_tracestore_captures_total":               float64(st.Captures),
			"tcserved_tracestore_replay_hits_total":            float64(st.ReplayHits),
			"tcserved_tracestore_resident_traces":              float64(st.ResidentTraces),
			"tcserved_tracestore_evictions_total":              0,
			"tcserved_tracestore_capture_seconds_total":        time.Duration(st.CaptureNanos).Seconds(),
			`tcserved_tracestore_disk_total{outcome="load"}`:   0,
			`tcserved_tracestore_disk_total{outcome="save"}`:   0,
			`tcserved_tracestore_disk_total{outcome="reject"}`: 0,
		} {
			if got, ok := met[sample]; !ok || got != want {
				t.Errorf("%s: %s = %v (present %v), want %v", n.name, sample, got, ok, want)
			}
		}
	}
	if emulated != uint64(len(workloads)) || captureSecs <= 0 {
		t.Errorf("cluster emulated %d captures in %vs, want exactly %d", emulated, captureSecs, len(workloads))
	}
	if fetches == 0 || rejects != 0 {
		t.Errorf("CDN fetches %d, rejects %d; want some fetches and no rejects", fetches, rejects)
	}
	if hits == 0 || misses > float64(len(keys)) {
		t.Errorf("cache hits %v, misses %v for %d distinct keys; want hits and at most one miss per key",
			hits, misses, len(keys))
	}
}

// TestGatewayBadRequests: invalid jobs and unknown job IDs fail fast at
// the gateway with the node's exact error vocabulary.
func TestGatewayBadRequests(t *testing.T) {
	_, gts, _ := testCluster(t, 1)
	cl := client.New(gts.URL)
	ctx := context.Background()

	var ae *client.APIError
	_, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "no-such-benchmark"})
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != "invalid_argument" {
		t.Fatalf("bad workload via gateway = %v, want 400 invalid_argument", err)
	}
	// A geometry the model cannot simulate is rejected before routing.
	_, err = cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Clusters: 2, FUsPerCluster: 2})
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != "invalid_argument" {
		t.Fatalf("2x2 geometry via gateway = %v, want 400 invalid_argument", err)
	}
	_, err = cl.GetJob(ctx, "j123") // un-namespaced: can't belong to this gateway
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown ID = %v, want 404", err)
	}
	_, err = cl.GetJob(ctx, "n99.j123") // namespaced beyond the node list
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("out-of-range node ID = %v, want 404", err)
	}
}

// TestGatewayFailover: when a key's owner dies, the job re-hashes to
// the next ring replica and still succeeds; the dead node is demoted
// and /v1/cluster says so.
func TestGatewayFailover(t *testing.T) {
	g, gts, nodes := testCluster(t, 3)
	ctx := context.Background()
	cl := client.New(gts.URL)

	// Find the owner of this config's canonical key, then kill it.
	req := &client.JobRequest{Workload: "compress", Insts: testInsts}
	_, key, err := server.ResolveConfig(req, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	owner := g.ring.Owner(key)
	nodes[owner].ts.Close()

	job, err := cl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("job after owner death: %v", err)
	}
	if job.State != client.StateDone {
		t.Fatalf("failover job state %q", job.State)
	}
	served, _, _ := splitID(job.ID)
	if served == owner {
		t.Fatalf("job claims to have run on the dead owner %d", owner)
	}
	if want := g.ring.Order(key)[1]; served != want {
		t.Fatalf("failover landed on node %d, ring successor is %d", served, want)
	}
	if g.met.rehashes.Load() == 0 {
		t.Fatal("failover did not count a rehash")
	}

	status, err := cl.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Healthy != 2 || len(status.Nodes) != 3 {
		t.Fatalf("cluster status = %d/%d healthy", status.Healthy, len(status.Nodes))
	}
	dead := status.Nodes[owner]
	if dead.Healthy || dead.Demotions == 0 || dead.LastError == "" {
		t.Fatalf("dead node status = %+v, want demoted with an error", dead)
	}
}

// TestGatewaySweepFanout: a sweep through the gateway returns rows
// bit-for-bit identical (and identically ordered) to a single node
// running the same sweep. A sweep's cells are ordinary jobs, so
// TestGatewayJobAffinity and TestGatewayStorm cover how they spread.
func TestGatewaySweepFanout(t *testing.T) {
	_, gts, _ := testCluster(t, 3)
	ctx := context.Background()
	cl := client.New(gts.URL)

	req := &client.SweepRequest{
		Workloads: []string{"compress", "gcc"},
		Configs: []client.JobRequest{
			{},
			{NoPacking: true},
		},
		Insts: testInsts,
	}
	got, err := cl.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one standalone node runs the identical sweep directly.
	refSrv := server.New(server.Config{Engine: server.EngineConfig{Store: tcsim.NewTraceStore(0)}})
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	defer refSrv.Shutdown(ctx)
	want, err := client.New(refTS.URL).Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells != want.Cells || len(got.Rows) != len(want.Rows) {
		t.Fatalf("gateway sweep shape (%d cells, %d rows) != direct (%d, %d)",
			got.Cells, len(got.Rows), want.Cells, len(want.Rows))
	}
	for i := range want.Rows {
		if got.Rows[i] != want.Rows[i] {
			t.Fatalf("row %d differs:\n gateway %+v\n direct  %+v", i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestGatewayTraceCDN: a trace captured on one node is served through
// the gateway's /v1/traces proxy, validates fail-closed, and a second
// node wired with the gateway fetcher replays it instead of emulating.
func TestGatewayTraceCDN(t *testing.T) {
	_, gts, nodes := testCluster(t, 2)
	ctx := context.Background()
	cl := client.New(gts.URL)

	job, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "compress", Insts: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	owner, _, _ := splitID(job.ID)
	sha, _ := tracestore.WorkloadHash("compress")

	resp, err := http.Get(fmt.Sprintf("%s/v1/traces/%s?budget=%d", gts.URL, sha, testInsts))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway trace GET = %d", resp.StatusCode)
	}
	if err := tracestore.Validate(body, "compress", testInsts); err != nil {
		t.Fatalf("proxied trace fails validation: %v", err)
	}
	if node := resp.Header.Get("X-Trace-Node"); node != nodes[owner].name {
		t.Errorf("X-Trace-Node = %q, want %q", node, nodes[owner].name)
	}

	// Unknown program: a clean cluster-wide 404.
	resp, err = http.Get(gts.URL + "/v1/traces/feedfacecafebeef?budget=1000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace via gateway = %d, want 404", resp.StatusCode)
	}

	// Malformed budget: every node would refuse it, so the gateway does.
	resp, err = http.Get(fmt.Sprintf("%s/v1/traces/%s?budget=never", gts.URL, sha))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed budget via gateway = %d, want 400", resp.StatusCode)
	}

	// Wire the peer's store to the gateway CDN: its capture for the same
	// (workload, budget) must be a fetch, not an emulation.
	peer := 1 - owner
	nodes[peer].store.SetFetcher(TraceFetcher(gts.URL, nil))
	if _, _, err := nodes[peer].store.Get("compress", testInsts); err != nil {
		t.Fatal(err)
	}
	st := nodes[peer].store.Stats()
	if st.CDNFetches != 1 || st.CDNRejects != 0 {
		t.Fatalf("peer stats = %+v, want one CDN fetch", st)
	}
	if emulated := st.Captures - st.DiskLoads - st.CDNFetches; emulated != 0 {
		t.Fatalf("peer emulated %d captures, want 0 — CDN fetch should have replayed", emulated)
	}
}

// TestGatewayReadiness: ready only while >= 1 node is routable and the
// gateway is not draining.
func TestGatewayReadiness(t *testing.T) {
	g, gts, nodes := testCluster(t, 1)
	ctx := context.Background()
	cl := client.New(gts.URL)

	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("ready with live node: %v", err)
	}
	nodes[0].ts.Close()
	g.probeAll(ctx) // deterministic: force the round instead of sleeping
	var ae *client.APIError
	if err := cl.Ready(ctx); !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("ready with dead cluster = %v, want 503", err)
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("gateway liveness must not depend on nodes: %v", err)
	}
	g.BeginDrain()
	if err := cl.Ready(ctx); !errors.As(err, &ae) || ae.Code != "draining" {
		t.Fatalf("ready while draining = %v, want draining", err)
	}
}

// TestGatewayPromotion: a demoted node that comes back is promoted by
// the next probe round and serves again.
func TestGatewayPromotion(t *testing.T) {
	g, _, nodes := testCluster(t, 2)
	ctx := context.Background()

	g.health[1].markDown(errors.New("induced"))
	if g.Healthy() != 1 {
		t.Fatal("markDown did not demote")
	}
	g.probeAll(ctx)
	if g.Healthy() != 2 {
		t.Fatal("probe round did not promote a live node")
	}
	if g.met.promotions.Load() == 0 {
		t.Fatal("promotion not counted")
	}
	_ = nodes
}

// TestGatewayProbesOnceAtStart: Start's synchronous round is the only
// one before the first tick, so an hour between probes freezes the
// health view (TestFailoverTraceCollation relies on that).
func TestGatewayProbesOnceAtStart(t *testing.T) {
	probes := make(chan string, 2) // room for a second round, which must not come
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes <- r.URL.Path
	}))
	defer node.Close()
	g, err := New(Config{Nodes: []Node{{Name: "node0", URL: node.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Shutdown(context.Background())
	if path := <-probes; path != "/healthz/ready" { // Start's own round is synchronous
		t.Fatalf("first request %s, want a readiness probe", path)
	}
	select {
	case path := <-probes:
		t.Fatalf("Start's round was followed at once by a request to %s", path)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestGatewayMetricsExposition: the gateway's /metrics parses as valid
// Prometheus text and carries its counters and one tcgate_node_up row
// per node.
func TestGatewayMetricsExposition(t *testing.T) {
	_, gts, nodes := testCluster(t, 2)
	ctx := context.Background()
	cl := client.New(gts.URL)
	if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "compress", Insts: testInsts}); err != nil {
		t.Fatal(err)
	}

	samples, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("gateway /metrics: %v", err)
	}
	if got := samples[`tcgate_nodes`]; got != 2 {
		t.Errorf("tcgate_nodes = %v, want 2", got)
	}
	if got := samples[`tcgate_nodes_healthy`]; got != 2 {
		t.Errorf("tcgate_nodes_healthy = %v, want 2", got)
	}
	if got := samples[`tcgate_jobs_proxied_total{outcome="ok"}`]; got != 1 {
		t.Errorf(`jobs_proxied{ok} = %v, want 1`, got)
	}
	for _, n := range nodes {
		row := fmt.Sprintf(`tcgate_node_up{node=%q}`, n.name)
		if got, ok := samples[row]; !ok || got != 1 {
			t.Errorf("%s = %v (present %v), want 1", row, got, ok)
		}
	}
}

// TestGatewayMetricsAskNoNode: the gateway's /metrics reports what the
// gateway knows. Serving it sends no request to any node, and
// tcgate_node_up is the health bit routing reads: a draining node
// reads 0 after the next probe round, and tcgate_nodes_healthy and
// /v1/cluster agree with it.
func TestGatewayMetricsAskNoNode(t *testing.T) {
	ctx := context.Background()
	var requests atomic.Int64 // requests that reached any node
	srvs := make([]*server.Server, 2)
	nodes := make([]Node, len(srvs))
	for i := range srvs {
		srv := server.New(server.Config{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			srv.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			srv.Shutdown(ctx)
		})
		srvs[i] = srv
		nodes[i] = Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL}
	}
	// An hour between probes: only Start's round and the test's own run.
	g, err := New(Config{Nodes: nodes, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Shutdown(ctx)
	gts := httptest.NewServer(g.Handler())
	defer gts.Close()
	cl := client.New(gts.URL)

	scrape := func() map[string]float64 {
		t.Helper()
		before := requests.Load()
		samples, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatalf("gateway /metrics: %v", err)
		}
		if n := requests.Load() - before; n != 0 {
			t.Errorf("one gateway /metrics sent %d requests to the nodes, want 0", n)
		}
		return samples
	}
	samples := scrape()
	for _, n := range nodes {
		if got := samples[fmt.Sprintf(`tcgate_node_up{node=%q}`, n.Name)]; got != 1 {
			t.Errorf("%s up = %v before any drain, want 1", n.Name, got)
		}
	}

	srvs[1].BeginDrain()
	g.probeAll(ctx)
	samples = scrape()
	for i, want := range []float64{1, 0} {
		if got := samples[fmt.Sprintf(`tcgate_node_up{node=%q}`, nodes[i].Name)]; got != want {
			t.Errorf("%s up = %v after node1 began draining, want %v", nodes[i].Name, got, want)
		}
	}
	if got := samples["tcgate_nodes_healthy"]; got != 1 {
		t.Errorf("tcgate_nodes_healthy = %v, want 1", got)
	}
	status, err := cl.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Healthy != 1 || !status.Nodes[0].Healthy || status.Nodes[1].Healthy {
		t.Errorf("/v1/cluster = %+v, want node0 healthy and node1 not", status)
	}
}

var update = flag.Bool("update", false, "rewrite the testdata/*_golden.txt files")

// TestExpositionFamilies pins the set of metric families a node and the
// gateway expose after one job with every pass enabled and timed: the
// "# TYPE" lines of both expositions, sorted. A family that appears,
// disappears or changes type shows as a golden diff; regenerate with
// -update only after a deliberate change.
func TestExpositionFamilies(t *testing.T) {
	_, gts, nodes := testCluster(t, 1)
	req := &client.JobRequest{Workload: "compress", Insts: testInsts, Preset: client.PresetAll, TimePasses: true}
	if _, err := client.New(gts.URL).SubmitJob(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, base := range []string{nodes[0].ts.URL, gts.URL} {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(string(body), "\n") {
			if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
				families = append(families, fam)
			}
		}
	}
	sort.Strings(families)
	got := strings.Join(families, "\n") + "\n"

	const path = "testdata/families_golden.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exposition families differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGatewayConfigValidation: duplicate names and empty node lists are
// construction-time errors, not runtime surprises.
func TestGatewayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty node list accepted")
	}
	_, err := New(Config{Nodes: []Node{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names = %v, want duplicate-name error", err)
	}
	if _, err := New(Config{Nodes: []Node{{Name: "a"}}}); err == nil {
		t.Error("node without URL accepted")
	}
}

// TestGatewayJobTimeoutIsTerminal: a job whose own timeout_ms expires
// is answered 504 timeout by the node that ran it, and that answer is
// the cluster's. The gateway relays it without a same-node retry, a
// re-hash or a demotion, the job runs on one node once, and a client
// with a retry policy takes the 504 after one attempt.
func TestGatewayJobTimeoutIsTerminal(t *testing.T) {
	_, gts, nodes := testCluster(t, 3)
	ctx := context.Background()
	retries := 0
	p := client.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		OnRetry: func(int, error, time.Duration) { retries++ }}
	cl := client.New(gts.URL).WithRetry(p)
	_, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "gcc", Insts: 200_000, TimeoutMS: 1})
	var ae *client.APIError
	if !errors.As(err, &ae) || !ae.JobTimeout() {
		t.Fatalf("SubmitJob = %v, want the job's 504 timeout", err)
	}
	if retries != 0 {
		t.Errorf("the client retried a job timeout %d times", retries)
	}
	var accepted, failed float64
	for _, n := range nodes {
		m := mustMetrics(t, n)
		accepted += m[`tcserved_jobs_total{event="accepted"}`]
		failed += m[`tcserved_jobs_total{event="failed"}`]
	}
	if accepted != 1 || failed != 1 {
		t.Errorf("the nodes accepted %v and failed %v jobs, want the one job run once", accepted, failed)
	}
	gm, err := client.New(gts.URL).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tcgate_retries_total", "tcgate_rehashes_total", "tcgate_demotions_total"} {
		if gm[name] != 0 {
			t.Errorf("%s = %v after a job timeout, want 0", name, gm[name])
		}
	}
	if got := gm["tcgate_nodes_healthy"]; got != 3 {
		t.Errorf("tcgate_nodes_healthy = %v, want 3", got)
	}
}

// TestGatewayCallerCancelKeepsNodeUp: a failure that only says the
// caller gave up says nothing about the node. A client whose deadline
// passes while its node holds the job open leaves that node healthy,
// with no demotion, no re-hash and an attempt span whose outcome is
// "canceled". A trace CDN request given up the same way, and a
// readiness probe that the gateway's own shutdown cuts short, demote
// nothing either.
func TestGatewayCallerCancelKeepsNodeUp(t *testing.T) {
	var hangReady atomic.Bool
	probing := make(chan struct{}, 1)
	stop := make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz/ready" {
			if !hangReady.Load() {
				return // ready
			}
			probing <- struct{}{}
		}
		select { // hold the request open until its caller leaves
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(func() {
		close(stop)
		node.Close()
	})
	g, err := New(Config{Nodes: []Node{{Name: "node0", URL: node.URL}},
		ProbeInterval: time.Hour, ProbeTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(func() { g.Shutdown(context.Background()) })
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)

	keptUp := func(what string) {
		t.Helper()
		n := g.Status().Nodes[0]
		if !n.Healthy || n.Demotions != 0 || n.LastError != "" {
			t.Errorf("after %s the node is %+v, want healthy with no demotion", what, n)
		}
		if d, r := g.met.demotions.Load(), g.met.rehashes.Load(); d != 0 || r != 0 {
			t.Errorf("after %s: %d demotions and %d re-hashes, want none", what, d, r)
		}
	}

	const rid = "caller-cancel-rid"
	ctx, cancel := context.WithTimeout(client.WithRequestID(context.Background(), rid), 100*time.Millisecond)
	defer cancel()
	if _, err := client.New(gts.URL).SubmitJob(ctx, &client.JobRequest{Workload: "gcc", Insts: testInsts}); err == nil {
		t.Fatal("SubmitJob succeeded against a node that never answers")
	}
	// span waits for the gateway to finish the named span of trace rid.
	span := func(rid, name string) obs.Span {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			for _, sp := range g.Spanner().Dump(rid).Spans {
				if sp.Name == name {
					return sp
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("the gateway never finished a %q span in trace %s", name, rid)
			}
		}
	}
	if got := span(rid, "attempt").Attrs["outcome"]; got != "canceled" {
		t.Errorf("attempt outcome %q, want canceled", got)
	}
	keptUp("a caller's cancel")

	const cdnRID = "caller-cancel-cdn-rid"
	ctx, cancel = context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, gts.URL+"/v1/traces/abc?budget=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, cdnRID)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("trace proxy answered %s through a node that never answers", resp.Status)
	}
	span(cdnRID, "GET /v1/traces/abc")
	keptUp("a caller's cancel on the trace proxy")

	hangReady.Store(true)
	pctx, stopProbes := context.WithCancel(context.Background())
	probed := make(chan struct{})
	go func() {
		g.probeAll(pctx)
		close(probed)
	}()
	<-probing
	stopProbes() // what Shutdown does to a probe round in flight
	<-probed
	keptUp("a probe cut short")
}

func mustMetrics(t *testing.T, n *testNode) map[string]float64 {
	t.Helper()
	m, err := client.New(n.ts.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}
