package server

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"tcsim/client"
)

// FuzzResolveConfig drives the wire path from decode to resolve to key.
// Every body the daemon decodes either fails as a bad request or
// resolves to a key that survives a JSON round trip of the request,
// spelling out every default the resolution applied, a changed timeout,
// and resolving the resolved config again. The seeds are the requests
// keys_golden.txt pins and the geometries the model cannot simulate.
func FuzzResolveConfig(f *testing.F) {
	golden, err := os.ReadFile("../cluster/testdata/keys_golden.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if body, _, ok := strings.Cut(line, "\t"); ok && !strings.HasPrefix(body, "#") {
			f.Add(body)
		}
	}
	for _, g := range [][2]int{{2, 2}, {5, 3}, {16, 16}, {1_000_000, 1_000_000}} {
		f.Add(fmt.Sprintf(`{"workload":"m88ksim","insts":20000,"clusters":%d,"fus_per_cluster":%d}`, g[0], g[1]))
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req client.JobRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		cfg, key, err := ResolveConfig(&req, Limits{})
		if err != nil {
			if !IsBadRequest(err) {
				t.Fatalf("%s: error %v is not a bad request", body, err)
			}
			return
		}
		same := func(what string, r client.JobRequest) {
			t.Helper()
			if _, k, err := ResolveConfig(&r, Limits{}); err != nil || k != key {
				t.Errorf("%s: %s gives key %s (err %v), want %s", body, what, k, err, key)
			}
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var trip client.JobRequest
		if err := json.Unmarshal(b, &trip); err != nil {
			t.Fatal(err)
		}
		same("a JSON round trip", trip)

		explicit := req
		explicit.Insts, explicit.FillLatency = cfg.MaxInsts, cfg.FillLatency
		explicit.Clusters, explicit.FUsPerCluster = cfg.Clusters, cfg.FUsPerCluster
		explicit.TCPolicy, explicit.ICPolicy = cfg.TCPolicy, cfg.ICPolicy
		explicit.Preset, explicit.Passes = "", cfg.Passes
		same("spelling out the defaults", explicit)

		timed := req
		timed.TimeoutMS ^= 1 // another valid timeout: the sign bit stays
		same("another timeout", timed)

		again, k, err := cfg.Canonical(req.Workload)
		if err != nil || k != key || !reflect.DeepEqual(again, cfg) {
			t.Errorf("%s: resolving the resolved config gives %+v, key %s (err %v); want %+v, key %s",
				body, again, k, err, cfg, key)
		}
	})
}
