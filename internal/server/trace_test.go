package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcsim/client"
	"tcsim/internal/obs"
)

// waitSpans polls the server's span ring until a span of the trace
// named name landed, and returns the trace's spans: the middleware
// commits the serve span just after the response is flushed, so the
// client can observe the response first.
func waitSpans(t *testing.T, srv *Server, rid, name string) []obs.Span {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans := srv.spans.Dump(rid).Spans
		for _, s := range spans {
			if s.Name == name {
				return spans
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s has no %s span after 2s: %+v", rid, name, spans)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestSpansEndToEnd drives a real HTTP job with a pinned request
// ID and an X-Trace-Parent, then asserts the span tree the node
// recorded: a serve span parented under the remote caller, queue-wait
// and run children, the run's workload/phase attributes, and a
// cache-lookup hit event on the repeat submit.
func TestRequestSpansEndToEnd(t *testing.T) {
	srv, cl := newTestServer(t, Config{Service: "nodeA"})
	req := &client.JobRequest{Workload: "m88ksim", Insts: testInsts}

	rid := "trace-e2e-1"
	ctx := client.WithSpanParent(client.WithRequestID(context.Background(), rid), "feedfacefeedface")
	job, err := cl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if job.State != client.StateDone {
		t.Fatalf("job state %q", job.State)
	}

	// serve + queue-wait + run + cache-lookup(miss) at minimum.
	spans := waitSpans(t, srv, rid, "POST /v1/jobs")
	byName := map[string]obs.Span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.Service != "nodeA" {
			t.Errorf("span %s has service %q, want the configured nodeA", s.Name, s.Service)
		}
	}
	serve, ok := byName["POST /v1/jobs"]
	if !ok {
		t.Fatalf("no serve span in %v", names(spans))
	}
	if serve.ParentID != "feedfacefeedface" {
		t.Errorf("serve span parent %q, want the X-Trace-Parent span", serve.ParentID)
	}
	if serve.Attrs["status"] != "200" {
		t.Errorf("serve span status attr = %q", serve.Attrs["status"])
	}
	run, ok := byName["run"]
	if !ok {
		t.Fatalf("no run span in %v", names(spans))
	}
	if run.Attrs["workload"] != "m88ksim" {
		t.Errorf("run span workload = %q", run.Attrs["workload"])
	}
	if p := run.Attrs["phase"]; p != "capture" && p != "replay" {
		t.Errorf("run span phase = %q, want capture or replay", p)
	}
	if _, ok := byName["queue-wait"]; !ok {
		t.Errorf("no queue-wait span in %v", names(spans))
	}
	if lk, ok := byName["cache-lookup"]; !ok {
		t.Errorf("no cache-lookup event in %v", names(spans))
	} else if lk.Attrs["outcome"] != "miss" {
		t.Errorf("first submit cache-lookup outcome = %q, want miss", lk.Attrs["outcome"])
	}

	// The node's own spans form a single tree under the serve span (its
	// remote parent lives in the caller's process, so it roots here).
	tree := obs.BuildSpanTree(rid, spans)
	if !tree.Connected {
		t.Errorf("node-local trace is not connected: %d roots from %v", len(tree.Roots), names(spans))
	}

	// Repeat submit under a fresh trace: served from cache, with the hit
	// recorded as an event span.
	rid2 := "trace-e2e-2"
	job2, err := cl.SubmitJob(client.WithRequestID(context.Background(), rid2), req)
	if err != nil {
		t.Fatalf("repeat SubmitJob: %v", err)
	}
	if !job2.Cached {
		t.Fatalf("repeat submit was not served from cache")
	}
	spans2 := waitSpans(t, srv, rid2, "POST /v1/jobs")
	var hit bool
	for _, s := range spans2 {
		if s.Name == "cache-lookup" && s.Attrs["outcome"] == "hit" {
			hit = true
		}
	}
	if !hit {
		t.Errorf("cached submit recorded no cache-lookup hit event: %v", names(spans2))
	}
}

func names(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i := range spans {
		out[i] = spans[i].Name
	}
	return out
}

// TestDebugSpansAndFlightEndpoints asserts the wire shape of
// /debug/spans (with and without ?trace=) and the job facts its serve
// spans carry: the accepted job's ID and key, and a rejected
// submission's error.
func TestDebugSpansAndFlightEndpoints(t *testing.T) {
	srv, cl := newTestServer(t, Config{})
	rid := "debug-endpoints-rid"
	ctx := client.WithRequestID(context.Background(), rid)
	job, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "compress", Insts: testInsts})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	waitSpans(t, srv, rid, "POST /v1/jobs")

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(cl.Base() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}

	var filtered obs.SpanDump
	getJSON("/debug/spans?trace="+rid, &filtered)
	if filtered.Service != "tcserved" {
		t.Errorf("span dump service = %q, want the default tcserved", filtered.Service)
	}
	if len(filtered.Spans) < 3 {
		t.Fatalf("filtered dump has %d spans, want >= 3", len(filtered.Spans))
	}
	for _, s := range filtered.Spans {
		if s.TraceID != rid {
			t.Errorf("?trace= filter leaked span of trace %q", s.TraceID)
		}
		if s.Name == "POST /v1/jobs" && (s.Attrs["job"] != job.ID || s.Attrs["key"] != job.Key) {
			t.Errorf("serve span job/key = %q/%q, want %q/%q", s.Attrs["job"], s.Attrs["key"], job.ID, job.Key)
		}
	}
	var all obs.SpanDump
	getJSON("/debug/spans", &all)
	if len(all.Spans) < len(filtered.Spans) {
		t.Errorf("unfiltered dump (%d) smaller than filtered (%d)", len(all.Spans), len(filtered.Spans))
	}

	// A rejected submission's serve span records the rejection.
	bad := "debug-endpoints-rejected"
	if _, err := cl.SubmitJob(client.WithRequestID(context.Background(), bad), &client.JobRequest{Workload: "nosuch"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, s := range waitSpans(t, srv, bad, "POST /v1/jobs") {
		if s.Name == "POST /v1/jobs" && (s.Attrs["status"] != "400" || !strings.Contains(s.Error, "nosuch")) {
			t.Errorf("rejected serve span status %q error %q, want 400 and the rejection", s.Attrs["status"], s.Error)
		}
	}
}

// TestServerErrorDumpsSpans: with FlightDir set, a 5xx writes the span
// ring to flight-<service>-last5xx.json, the failing request's serve
// span included.
func TestServerErrorDumpsSpans(t *testing.T) {
	dir := t.TempDir()
	srv, cl := newTestServer(t, Config{Service: "nodeA", FlightDir: dir})
	(&fakeSim{err: errors.New("simulator fault")}).install(srv.engine)
	rid := "dump-5xx-rid"
	_, err := cl.SubmitJob(client.WithRequestID(context.Background(), rid),
		&client.JobRequest{Workload: "compress", Insts: testInsts})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("failing job: %v, want a 500", err)
	}
	// The middleware dumps after the response went out: poll for it.
	path := filepath.Join(dir, "flight-nodeA-last5xx.json")
	deadline := time.Now().Add(2 * time.Second)
	for {
		var dump obs.SpanDump
		if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &dump) == nil {
			for _, s := range dump.Spans {
				if s.TraceID == rid && s.Name == "POST /v1/jobs" {
					if s.Attrs["status"] != "500" || s.Error == "" {
						t.Errorf("dumped serve span status %q error %q, want 500 and an error", s.Attrs["status"], s.Error)
					}
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serve span of %s in %s after 2s", rid, path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDebugTraceMergedOutput asserts GET /debug/trace/{job} emits a
// merged Chrome trace whose pid-2 events include the request's run span
// with its attributes, and that unknown jobs answer 404.
func TestDebugTraceMergedOutput(t *testing.T) {
	srv, cl := newTestServer(t, Config{})
	rid := "debug-trace-rid"
	ctx := client.WithRequestID(context.Background(), rid)
	job, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "li", Insts: testInsts})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	waitSpans(t, srv, rid, "POST /v1/jobs")

	resp, err := http.Get(cl.Base() + "/debug/trace/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace/%s = %d", job.ID, resp.StatusCode)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	var runSeen bool
	for _, e := range trace.TraceEvents {
		if e.Pid == 2 && e.Name == "run" && e.Ph == "X" {
			runSeen = true
			if e.Args["workload"] != "li" {
				t.Errorf("run event args = %v", e.Args)
			}
		}
	}
	if !runSeen {
		t.Errorf("no pid-2 run span among %d merged events", len(trace.TraceEvents))
	}

	if resp, err := http.Get(cl.Base() + "/debug/trace/no-such-job"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job trace = %d, want 404", resp.StatusCode)
		}
	}
}

// doneSignal is a request context that signals on waiting when its Done
// channel is first asked for. A job request asks for it only to wait:
// on another request's simulation of its key, or for a worker slot.
type doneSignal struct {
	context.Context
	waiting chan struct{}
}

func (c doneSignal) Done() <-chan struct{} {
	select {
	case c.waiting <- struct{}{}:
	default:
	}
	return c.Context.Done()
}

// TestConcurrentJobsJoinOneSimulation: a second POST /v1/jobs for a key
// whose simulation is running joins it. One simulation runs, the join is
// counted, and a singleflight-wait span carrying the key sits under the
// second request's serve span.
func TestConcurrentJobsJoinOneSimulation(t *testing.T) {
	srv := New(Config{})
	fake := &fakeSim{release: make(chan struct{})}
	fake.install(srv.engine)
	const rid2 = "join-second"
	waiting := make(chan struct{}, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(reqIDHeader) == rid2 {
			r = r.WithContext(doneSignal{r.Context(), waiting})
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	cl := client.New(hs.URL)
	req := &client.JobRequest{Workload: "m88ksim", Insts: testInsts}
	_, key, err := ResolveConfig(req, Limits{})
	if err != nil {
		t.Fatal(err)
	}

	type answer struct {
		job *client.Job
		err error
	}
	submit := func(ctx context.Context) <-chan answer {
		out := make(chan answer, 1)
		go func() {
			job, err := cl.SubmitJob(ctx, req)
			out <- answer{job, err}
		}()
		return out
	}
	first := submit(context.Background())
	for deadline := time.Now().Add(5 * time.Second); fake.startedCount() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first request never started its simulation")
		}
	}
	second := submit(client.WithRequestID(context.Background(), rid2))
	<-waiting // the second request waits on the first's simulation
	close(fake.release)

	for i, ch := range []<-chan answer{first, second} {
		a := <-ch
		if a.err != nil {
			t.Fatalf("request %d: %v", i+1, a.err)
		}
		if a.job.Cached != (i == 1) {
			t.Errorf("request %d: cached = %v, want only the joined one cached", i+1, a.job.Cached)
		}
	}
	if n := fake.startedCount(); n != 1 {
		t.Errorf("%d simulations started for two concurrent requests of one key, want 1", n)
	}
	met, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := met[`tcserved_cache_requests_total{result="join"}`]; got != 1 {
		t.Errorf(`tcserved_cache_requests_total{result="join"} = %v, want 1`, got)
	}

	spans := waitSpans(t, srv, rid2, "POST /v1/jobs")
	var serveID string
	for _, s := range spans {
		if s.Name == "POST /v1/jobs" {
			serveID = s.SpanID
		}
	}
	var joined bool
	for _, s := range spans {
		if s.Name == "singleflight-wait" && s.ParentID == serveID && s.Attrs["key"] == shortKey(key) {
			joined = true
		}
	}
	if !joined {
		t.Errorf("no singleflight-wait span with key %s under the second request's serve span: %v",
			shortKey(key), names(spans))
	}
}
