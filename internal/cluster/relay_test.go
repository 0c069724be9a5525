package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tcsim/client"
	"tcsim/internal/server"
)

// TestGatewayFailsOverABodyThatIsNotAJob: a node that answers a job
// with 200 and a body that is not a job envelope counts as failing
// (DESIGN §11). The job re-hashes to the ring successor, the rehash is
// counted, and the client gets the successor's job.
func TestGatewayFailsOverABodyThatIsNotAJob(t *testing.T) {
	succ := server.New(server.Config{Service: "successor"})
	sts := httptest.NewServer(succ.Handler())
	t.Cleanup(func() {
		sts.Close()
		succ.Shutdown(context.Background())
	})
	req := &client.JobRequest{Workload: "compress", Insts: testInsts}
	_, key, err := server.ResolveConfig(req, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"node0", "node1"}
	order := NewRing(names, 0).Order(key)

	for name, body := range map[string]string{
		"truncated": `{"id":"j0123456789abcdef","state":"done","key":"` + key,
		"not a job": `{"error":{"code":"internal","message":"not a job"}}`,
	} {
		t.Run(name, func(t *testing.T) {
			var stubJobs atomic.Int32
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/healthz/ready":
					server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
				case "/v1/jobs":
					stubJobs.Add(1)
					w.Header().Set("Content-Type", "application/json")
					io.WriteString(w, body)
				default:
					http.NotFound(w, r)
				}
			}))
			t.Cleanup(stub.Close)
			nodes := make([]Node, len(names))
			nodes[order[0]] = Node{Name: names[order[0]], URL: stub.URL}
			nodes[order[1]] = Node{Name: names[order[1]], URL: sts.URL}
			g, err := New(Config{Nodes: nodes, ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			g.Start()
			t.Cleanup(func() { g.Shutdown(context.Background()) })
			gts := httptest.NewServer(g.Handler())
			t.Cleanup(gts.Close)
			cl := client.New(gts.URL)
			ctx := context.Background()

			job, err := cl.SubmitJob(ctx, req)
			if err != nil {
				t.Fatalf("job behind a node that answers %q: %v", body, err)
			}
			if stubJobs.Load() == 0 {
				t.Fatal("the job never reached its owner, the stub")
			}
			served, _, ok := splitID(job.ID)
			if !ok || served != order[1] {
				t.Fatalf("job %q served by node %d, want the ring successor %d", job.ID, served, order[1])
			}
			m, err := cl.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n := m["tcgate_rehashes_total"]; n != 1 {
				t.Errorf("tcgate_rehashes_total = %v, want 1", n)
			}
			// The successor served the job, so the same request there is
			// an async cache hit, which comes back done. (A sync hit, as
			// the job is in the second subtest, keeps no record to poll.)
			own, err := client.New(sts.URL).SubmitJobAsync(ctx, req)
			if err != nil {
				t.Fatalf("the successor: %v", err)
			}
			if !own.Cached || own.Key != key || job.Key != key || !reflect.DeepEqual(job.Result, own.Result) {
				t.Errorf("gateway answered %+v, the successor's cached job is %+v", job, own)
			}
		})
	}
}

// TestRelayHitAllocationsFlat guards the relay's work on a cache hit:
// the gateway reads the node's body once and writes it on as it is, so
// the bytes a relayed hit allocates grow by at most that one read for a
// larger result: less than 1.5 times the difference in result length.
// Decoding the body (json.Unmarshal copies the result out) or reading
// it with io.ReadAll's doubling adds a copy or more. The two results
// are measured in alternating rounds, and the median round is judged,
// so a map growth or a background allocation in one round cannot tip it.
func TestRelayHitAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	g, _, nodes := testClusterProbing(t, 2, time.Hour)
	h := g.Handler()
	w := &discardResponse{header: http.Header{}}
	// relay returns a function that relays hits on req and the bytes
	// they allocate per hit, after a miss that caches its result and a
	// first hit that warms the pools and the node connection; and the
	// length of the stored result.
	relay := func(req client.JobRequest) (measure func() float64, resultLen int) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			w.n = 0
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		}
		serve()
		serve()
		_, key, err := server.ResolveConfig(&req, server.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		owner := client.New(nodes[g.ring.Owner(key)].ts.URL)
		resultLen = len(hitJob(t, owner, http.MethodPost, "/v1/jobs", &req).Result)
		const hits = 100
		return func() float64 {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			for i := 0; i < hits; i++ {
				serve()
			}
			runtime.ReadMemStats(&m1)
			if w.n < resultLen {
				t.Fatalf("relayed hit wrote %d bytes, less than its %d-byte result", w.n, resultLen)
			}
			return float64(m1.TotalAlloc-m0.TotalAlloc) / hits
		}, resultLen
	}
	// Two sampled jobs of one shape: the requests cost the same to route,
	// and the results differ by the per-window IPCs (2 and 100 windows).
	small, smallLen := relay(client.JobRequest{Workload: "compress", Insts: 100_000,
		SamplePeriod: 50_000, SampleWindow: 1000, SampleWarmup: 1000})
	large, largeLen := relay(client.JobRequest{Workload: "compress", Insts: 100_000,
		SamplePeriod: 1000, SampleWindow: 500, SampleWarmup: 200})
	const rounds = 5
	var grown [rounds]float64
	for r := range grown {
		s := small()
		l := large()
		grown[r] = l - s
		t.Logf("round %d: bytes allocated per relayed hit: %.0f for a %d-byte result, %.0f for a %d-byte result",
			r, s, smallLen, l, largeLen)
	}
	slices.Sort(grown[:])
	if median, bound := grown[rounds/2], 1.5*float64(largeLen-smallLen); median >= bound {
		t.Errorf("a relayed hit on a result %d bytes larger allocates %.0f bytes more (median of %d rounds; bound %.0f): more than one copy of the result per hit",
			largeLen-smallLen, median, rounds, bound)
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
