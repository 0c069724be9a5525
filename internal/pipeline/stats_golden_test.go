package pipeline

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tcsim/internal/core"
	"tcsim/internal/workload"
)

var updateStatsGolden = flag.Bool("update", false, "rewrite testdata/stats_golden.txt from the current simulator")

// statsGoldenInsts is the retirement budget per golden run: long enough
// that every workload warms its trace cache, mispredicts, recovers and
// activates inactive blocks, short enough to keep all 45 runs cheap.
const statsGoldenInsts = 20_000

// statsGoldenConfigs are the machine configurations the golden pins:
// the paper's baseline, every fill-unit optimization, and the baseline
// with inactive issue off (trace lines truncated at the divergence).
var statsGoldenConfigs = []struct {
	name string
	mut  func(*Config)
}{
	{"default", func(*Config) {}},
	{"all-opts", func(c *Config) { c.Fill.Opt = core.AllOptimizations() }},
	{"no-inactive", func(c *Config) { c.InactiveIssue = false }},
}

// TestStatsGolden pins exact-mode timing: a digest of every Stats field
// for all 15 workloads under each golden configuration must match the
// committed file. A scheduling change that moves a single cycle on any
// workload fails here, even where rounded figure output would not show
// it. A deliberate model change regenerates the file with
//
//	go test ./internal/pipeline -run TestStatsGolden -update
func TestStatsGolden(t *testing.T) {
	var got []string
	for _, gc := range statsGoldenConfigs {
		for _, w := range workload.All() {
			cfg := DefaultConfig()
			cfg.MaxInsts = statsGoldenInsts
			gc.mut(&cfg)
			sim, err := New(cfg, w.Build())
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", gc.name, w.Name, err)
			}
			js, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s %s cycles=%d retired=%d sha256=%x",
				gc.name, w.Name, st.Cycles, st.Retired, sha256.Sum256(js)))
		}
	}

	const path = "testdata/stats_golden.txt"
	if *updateStatsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, test produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("Stats drifted:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
