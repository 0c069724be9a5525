package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tcsim"
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

// FuzzJobEnvelope drives writeJob, the writer of every job response.
// Whatever the envelope's strings and wall time, the body is valid JSON
// that opens with {"id": (where tcgate splices in its node prefix),
// states its length, and is byte for byte what encoding/json writes for
// the envelope; LeadingJobID finds the id exactly when it is a node's
// ("j" + hex). So it decodes into a JobEnvelope equal to the input,
// with the result equal to the stored bytes, and into a client.Job.
// Strings come back as encoding/json carries them: an invalid UTF-8
// byte as U+FFFD. The result is one the engine stored: none, a baseline
// run or an all run; which picks it.
func FuzzJobEnvelope(f *testing.F) {
	results := []json.RawMessage{nil}
	for _, preset := range []string{client.PresetBaseline, client.PresetAll} {
		req := client.JobRequest{Workload: "compress", Insts: testInsts, Preset: preset}
		cfg, _, err := ResolveConfig(&req, Limits{})
		if err != nil {
			f.Fatal(err)
		}
		res, err := tcsim.RunWorkloadContextIn(context.Background(), cfg, req.Workload, tcsim.NewTraceStore(0))
		if err != nil {
			f.Fatal(err)
		}
		ent, err := newCacheEntry(res)
		if err != nil {
			f.Fatal(err)
		}
		results = append(results, ent.json)
	}
	f.Add(uint8(0), "j0123456789abcdef", client.StateQueued, "k", "", false, 0.0)
	f.Add(uint8(1), "j00ff", client.StateDone, "0a1b", "", true, 0.001)
	f.Add(uint8(2), "j1", client.StateDone, "", "", false, 12.5)
	f.Fuzz(func(t *testing.T, which uint8, id, state, key, errMsg string, cached bool, wallMS float64) {
		if math.IsNaN(wallMS) || math.IsInf(wallMS, 0) {
			return // a job's wall time is a duration: always finite
		}
		in := JobEnvelope{ID: id, State: state, Key: key, Cached: cached, Error: errMsg,
			WallMS: wallMS, Result: results[int(which)%len(results)]}
		rec := httptest.NewRecorder()
		writeJob(rec, http.StatusOK, in)
		body := rec.Body.Bytes()
		if !json.Valid(body) || !bytes.HasPrefix(body, []byte(`{"id":`)) {
			t.Fatalf("%+v: body %q is not a JSON object opening with its id", in, body)
		}
		if n := rec.Header().Get("Content-Length"); n != strconv.Itoa(len(body)) {
			t.Errorf("Content-Length %s for a %d-byte body", n, len(body))
		}
		if got, isNodeID := LeadingJobID(body), nodeID.MatchString(id); (got >= 0) != isNodeID ||
			isNodeID && got != len(JobBodyOpen)+len(id) {
			t.Errorf("LeadingJobID(%s) = %d for id %q", body, got, id)
		}
		want, err := json.Marshal(&in)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(body, want) {
			t.Errorf("body differs from encoding/json's:\n got  %s\n want %s", body, want)
		}

		wantEnv := in
		wantEnv.ID, wantEnv.State, wantEnv.Key, wantEnv.Error = trip(id), trip(state), trip(key), trip(errMsg)
		var env JobEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(env, wantEnv) {
			t.Errorf("decoded %+v, want %+v", env, wantEnv)
		}
		var job client.Job
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatalf("body does not decode into a client.Job: %v", err)
		}
		var res *tcsim.Result
		if in.Result != nil {
			if err := json.Unmarshal(in.Result, &res); err != nil {
				t.Fatal(err)
			}
		}
		if job.ID != env.ID || job.State != env.State || job.Key != env.Key || job.Cached != env.Cached ||
			job.Error != env.Error || job.WallMS != env.WallMS || !reflect.DeepEqual(job.Result, res) {
			t.Errorf("client.Job %+v differs from envelope %+v", job, env)
		}
	})
}

// nodeID matches the job IDs a node mints: "j" + lower-case hex.
var nodeID = regexp.MustCompile(`^j[0-9a-f]+$`)

// trip returns s as it comes back from a JSON round trip.
func trip(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	var out string
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return out
}
