package machine

import (
	"reflect"
	"testing"

	"tcsim/internal/core"
)

// TestCanonicalSpellings: the library's spellings of one machine — the
// Opt shorthand or its pass list, zero or explicit defaults — share one
// key, and resolving a resolved config changes nothing.
func TestCanonicalSpellings(t *testing.T) {
	byOpt := DefaultConfig()
	byOpt.Opt = core.AllOptimizations()
	byPasses := Config{Passes: core.DefaultPassSpec(), TracePacking: true, Promotion: true,
		InactiveIssue: true, UseTraceCache: true, TCPolicy: "lru", MaxInsts: 300_000}
	a, ka, err := byOpt.Canonical("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	if _, kb, err := byPasses.Canonical("m88ksim"); err != nil || kb != ka {
		t.Errorf("Opt and its pass list with zero/explicit defaults: keys %s and %s (err %v)", ka, kb, err)
	}
	if again, kc, err := a.Canonical("m88ksim"); err != nil || kc != ka || !reflect.DeepEqual(again, a) {
		t.Errorf("resolving again: %+v key %s (err %v), want %+v key %s", again, kc, err, a, ka)
	}
	if _, kd, _ := byOpt.Canonical("gcc"); kd == ka {
		t.Error("two workloads share a key")
	}
}
