package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"tcsim/client"
	"tcsim/internal/server"
)

// TestRoutingKeysGolden pins the canonical cache key of a corpus of job
// requests, and where that key lands on the two rings in use: node0..node1
// (the serve benchmark's) and node0..node2 (the cluster tests'). A key or
// placement that moves is a golden diff: it would orphan every cached
// result and trace; regenerate with -update only after a deliberate change.
func TestRoutingKeysGolden(t *testing.T) {
	corpus := []client.JobRequest{
		{Workload: "m88ksim"},
		{Workload: "m88ksim", Insts: 300_000}, // the explicit default budget
		{Workload: "gcc", Preset: client.PresetAll},
		{Workload: "gcc", Passes: []string{"reassoc", "moves", "scadd", "place"}},
		{Workload: "li", Passes: []string{"moves", "scadd"}},
		{Workload: "m88ksim", TimePasses: true},
		{Workload: "m88ksim", FillLatency: 5},
		{Workload: "m88ksim", NoTraceCache: true},
		{Workload: "m88ksim", NoPacking: true},
		{Workload: "m88ksim", NoPromotion: true},
		{Workload: "m88ksim", NoInactive: true},
		{Workload: "m88ksim", Clusters: 8, FUsPerCluster: 2},
		{Workload: "m88ksim", MaxCycles: 100_000},
		{Workload: "m88ksim", TCPolicy: "srrip"},
		{Workload: "m88ksim", ICPolicy: "trrip"},
		{Workload: "m88ksim", TCPolicy: "lru"}, // the default's key
		{Workload: "compress", SamplePeriod: 20_000, SampleWindow: 2_000, SampleWarmup: 2_000},
		{Workload: "compress", SamplePeriod: 20_000, SampleWindow: 2_000, SampleWarmup: 2_000, SampleSeek: true},
		{Workload: "m88ksim", Timeline: true},
		{Workload: "m88ksim", TimeoutMS: 5000}, // the default's key
	}
	two := []string{"node0", "node1"}
	three := []string{"node0", "node1", "node2"}
	ring2, ring3 := NewRing(two, 0), NewRing(three, 0)

	var b strings.Builder
	b.WriteString("# request\tkey\towner of node0..node1\towner of node0..node2\n")
	for _, req := range corpus {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		_, key, err := server.ResolveConfig(&req, server.Limits{})
		if err != nil {
			t.Fatalf("ResolveConfig(%s): %v", body, err)
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", body, key, two[ring2.Owner(key)], three[ring3.Owner(key)])
	}
	got := b.String()

	const path = "testdata/keys_golden.txt"
	if *update {
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
		t.Errorf("routing keys differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
