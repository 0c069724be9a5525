package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"
	"time"

	"tcsim/client"
	"tcsim/internal/obs"
	"tcsim/internal/server"
)

// getTree fetches one collated span tree from the gateway.
func getTree(t *testing.T, gwURL, rid string) (obs.SpanTree, int) {
	t.Helper()
	resp, err := http.Get(gwURL + "/v1/trace/" + rid)
	if err != nil {
		t.Fatalf("GET /v1/trace/%s: %v", rid, err)
	}
	defer resp.Body.Close()
	var tree obs.SpanTree
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
			t.Fatalf("decode span tree: %v", err)
		}
	}
	return tree, resp.StatusCode
}

// connectedTree polls the gateway for rid's span tree until it is
// connected: a node commits its serve span just after flushing the
// response, so the first scrape can race it.
func connectedTree(t *testing.T, gwURL, rid string) obs.SpanTree {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		tree, code := getTree(t, gwURL, rid)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/trace/%s = %d", rid, code)
		}
		if tree.Connected {
			return tree
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never became connected: %d spans, %d roots, services %v",
				tree.SpanCount, len(tree.Roots), tree.Services)
		}
	}
}

// TestTraceCollation: a job proxied through the gateway yields one
// connected cross-process span tree at GET /v1/trace/{id} — the root at
// the gateway, an attempt span naming the owning node, and the node's
// serve/run spans grafted under it via the X-Trace-Parent the gateway
// forwarded.
func TestTraceCollation(t *testing.T) {
	_, gts, _ := testCluster(t, 3)
	cl := client.New(gts.URL)

	rid := "collate-test-rid"
	job, err := cl.SubmitJob(client.WithRequestID(context.Background(), rid),
		&client.JobRequest{Workload: "go", Insts: testInsts})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if job.State != client.StateDone {
		t.Fatalf("job state %q", job.State)
	}

	tree := connectedTree(t, gts.URL, rid)
	if tree.TraceID != rid {
		t.Errorf("tree trace ID %q", tree.TraceID)
	}
	if tree.Roots[0].Service != "tcgate" || tree.Roots[0].Name != "POST /v1/jobs" {
		t.Errorf("root = %s %q, want the gateway ingress span",
			tree.Roots[0].Service, tree.Roots[0].Name)
	}
	var attemptNode string
	var nodeServe, nodeRun bool
	tree.Walk(func(n *obs.SpanNode) {
		switch {
		case n.Name == "attempt" && n.Service == "tcgate":
			attemptNode = n.Attrs["node"]
			if n.Attrs["outcome"] != "ok" {
				t.Errorf("attempt outcome = %q", n.Attrs["outcome"])
			}
		case n.Service != "tcgate" && n.Name == "POST /v1/jobs":
			nodeServe = true
		case n.Name == "run":
			nodeRun = true
		}
	})
	if attemptNode == "" {
		t.Error("no gateway attempt span in the tree")
	}
	if !nodeServe || !nodeRun {
		t.Errorf("node-side spans missing (serve=%v run=%v) from a %d-span tree",
			nodeServe, nodeRun, tree.SpanCount)
	}

	// Unknown but well-formed trace: an empty, honest tree.
	if empty, code := getTree(t, gts.URL, "never-seen"); code != http.StatusOK {
		t.Errorf("unknown trace = %d, want 200", code)
	} else if empty.Connected || empty.SpanCount != 0 {
		t.Errorf("unknown trace tree = %+v, want empty and disconnected", empty)
	}

	// Malformed ID: rejected before any scrape.
	if _, code := getTree(t, gts.URL, "bad%20id"); code != http.StatusBadRequest {
		t.Errorf("malformed trace ID = %d, want 400", code)
	}
}

// TestFailoverTraceCollation: when a key's owner is dead but the
// frozen health view still routes to it, the request fails over inside
// itself, and the collated span tree shows it: one gateway root, a
// failed attempt on the dead owner, an ok attempt on the survivor, and
// the survivor's run span.
func TestFailoverTraceCollation(t *testing.T) {
	g, gts, nodes := testClusterProbing(t, 2, time.Hour) // no probe notices the kill
	req := &client.JobRequest{Workload: "go", Insts: testInsts}
	_, key, err := server.ResolveConfig(req, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	owner := g.ring.Owner(key)
	nodes[owner].ts.Close()

	rid := "failover-trace-rid"
	job, err := client.New(gts.URL).SubmitJob(client.WithRequestID(context.Background(), rid), req)
	if err != nil {
		t.Fatalf("SubmitJob with a dead owner: %v", err)
	}
	if job.State != client.StateDone {
		t.Fatalf("job state %q", job.State)
	}

	tree := connectedTree(t, gts.URL, rid) // connected: exactly one root
	if tree.Roots[0].Service != "tcgate" {
		t.Fatalf("root service %q, want the gateway", tree.Roots[0].Service)
	}
	survivor := nodes[1-owner].name
	if !slices.Contains(tree.Services, survivor) {
		t.Errorf("services %v do not name the survivor %s", tree.Services, survivor)
	}
	var failed, ok int
	runPhase := ""
	tree.Walk(func(n *obs.SpanNode) {
		switch {
		case n.Name == "attempt" && n.Error != "":
			failed++
		case n.Name == "attempt" && n.Attrs["outcome"] == "ok":
			ok++
		case n.Name == "run":
			runPhase = n.Attrs["phase"]
		}
	})
	if failed == 0 || ok == 0 {
		t.Errorf("%d failed and %d ok attempts, want at least one of each", failed, ok)
	}
	if runPhase != "capture" && runPhase != "replay" {
		t.Errorf("run span phase %q, want capture or replay (or the run span is missing)", runPhase)
	}
}

// TestGatewayDebugSpans: the gateway serves its own spans in the same
// wire shape the nodes do (the shape its collation scrapes).
func TestGatewayDebugSpans(t *testing.T) {
	_, gts, _ := testCluster(t, 2)
	cl := client.New(gts.URL)
	rid := "gw-debug-rid"
	job, err := cl.SubmitJob(client.WithRequestID(context.Background(), rid),
		&client.JobRequest{Workload: "li", Insts: testInsts})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}

	resp, err := http.Get(gts.URL + "/debug/spans?trace=" + rid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump obs.SpanDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decode gateway span dump: %v", err)
	}
	if dump.Service != "tcgate" {
		t.Errorf("gateway span dump service = %q", dump.Service)
	}
	if len(dump.Spans) < 2 { // root + at least one attempt
		t.Fatalf("gateway recorded %d spans for the trace, want >= 2", len(dump.Spans))
	}
	var root obs.Span
	for _, s := range dump.Spans {
		if s.TraceID != rid {
			t.Errorf("?trace= filter leaked span of trace %q", s.TraceID)
		}
		if s.ParentID == "" {
			root = s
		}
	}
	if root.Attrs["job"] != job.ID || root.Attrs["node"] == "" {
		t.Errorf("root span attrs %v, want the proxied job %q and its node", root.Attrs, job.ID)
	}
}
