package server

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/tracestore"
)

// TestSamplingCacheKeys pins the cache-key contract for sampled jobs:
// an exact request's canonical JSON carries no sampling fields at all
// (so exact keys are bit-for-bit identical to pre-sampling releases),
// while any enabled plan splits the cache — a sampled estimate must
// never be served for an exact request or vice versa.
func TestSamplingCacheKeys(t *testing.T) {
	lim := Limits{DefaultTimeout: time.Minute}
	resolve := func(req client.JobRequest) resolved {
		rj, err := resolveSpec(&req, lim)
		if err != nil {
			t.Fatalf("resolveSpec(%+v): %v", req, err)
		}
		return rj
	}

	// The canonical JSON inlines the plan's fields after the config's.
	exact := resolve(client.JobRequest{Workload: "m88ksim"})
	b, err := json.Marshal(exact.cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan0, err := json.Marshal(exact.cfg.Sampling)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "sample") || string(plan0) != "{}" {
		t.Errorf("exact config's canonical JSON mentions sampling (breaks key compatibility with pre-sampling releases): %s + %s", b, plan0)
	}

	plan := client.JobRequest{Workload: "m88ksim",
		SamplePeriod: 2000, SampleWindow: 500, SampleWarmup: 500}
	sampled := resolve(plan)
	if exact.key == sampled.key {
		t.Error("exact and sampled requests hash identically")
	}
	seekPlan := plan
	seekPlan.SampleSeek = true
	if sampled.key == resolve(seekPlan).key {
		t.Error("warm-mode and seek-mode plans hash identically")
	}
	otherPeriod := plan
	otherPeriod.SamplePeriod = 2500
	if sampled.key == resolve(otherPeriod).key {
		t.Error("different sampling periods hash identically")
	}
	if sampled.key != resolve(plan).key {
		t.Error("identical sampled requests hash differently")
	}
}

// TestSamplingValidation maps malformed sampling plans to badRequest.
func TestSamplingValidation(t *testing.T) {
	lim := Limits{DefaultTimeout: time.Minute}
	bad := []client.JobRequest{
		// window/warmup/seek without a period
		{Workload: "m88ksim", SampleWindow: 500},
		{Workload: "m88ksim", SampleWarmup: 500},
		{Workload: "m88ksim", SampleSeek: true},
		// period enabled but no window
		{Workload: "m88ksim", SamplePeriod: 2000},
		// period must exceed warmup+window
		{Workload: "m88ksim", SamplePeriod: 1000, SampleWindow: 600, SampleWarmup: 500},
	}
	for i, req := range bad {
		if _, err := resolveSpec(&req, lim); err == nil {
			t.Errorf("case %d (%+v): no error", i, req)
		} else if _, ok := err.(*badRequest); !ok {
			t.Errorf("case %d: error %v is not a badRequest", i, err)
		}
	}
}

// TestEndToEndSampledJob runs warm-mode and seek-mode sampled jobs
// through the real HTTP surface and requires bit-for-bit agreement with
// a direct run of the resolved config, plus sampled aggregates in the
// daemon metrics. A seek job above the full-capture limit runs over a
// checkpoint log: it must restore checkpoints and move the skipped and
// restore counters.
func TestEndToEndSampledJob(t *testing.T) {
	defer func(old uint64) { tracestore.FullCaptureLimit = old }(tracestore.FullCaptureLimit)
	tracestore.FullCaptureLimit = 200_000 // make 300k a "big" budget cheaply
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()

	// run serves req and returns the direct run it must equal.
	run := func(req *client.JobRequest) tcsim.Result {
		t.Helper()
		dcfg, _, err := ResolveConfig(req, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		expected, err := tcsim.RunWorkload(dcfg, req.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if expected.Sampled == nil || expected.Sampled.Windows == 0 {
			t.Fatalf("%+v: direct sampled run carries no windows: %+v", *req, expected.Sampled)
		}
		job, err := cl.SubmitJob(ctx, req)
		if err != nil {
			t.Fatalf("%+v: SubmitJob: %v", *req, err)
		}
		if job.State != client.StateDone || job.Result == nil {
			t.Fatalf("%+v: job state %q, error %q", *req, job.State, job.Error)
		}
		if !reflect.DeepEqual(*job.Result, expected) {
			t.Errorf("%+v: served sampled result differs from direct run:\nserved %+v\ndirect %+v",
				*req, *job.Result, expected)
		}
		return expected
	}

	for _, seek := range []bool{false, true} {
		res := run(&client.JobRequest{Workload: "m88ksim", Insts: testInsts,
			SamplePeriod: 2000, SampleWindow: 500, SampleWarmup: 500, SampleSeek: seek})
		if seek && res.Sampled.Seeks == 0 {
			t.Errorf("seek mode performed no seeks: %+v", res.Sampled)
		}
	}
	met, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range []string{"tcserved_sampling_windows_total",
		`tcserved_sampling_insts_total{mode="ffwd"}`, "tcserved_sampling_seeks_total"} {
		if met[sample] == 0 {
			t.Errorf("sampling metrics not aggregated: %s = 0", sample)
		}
	}

	big := run(&client.JobRequest{Workload: "compress", Insts: 300_000,
		SamplePeriod: 100_000, SampleWindow: 5_000, SampleWarmup: 5_000, SampleSeek: true})
	if big.Sampled.CheckpointRestores == 0 {
		t.Errorf("seek job above the full-capture limit restored no checkpoints: %+v", big.Sampled)
	}
	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range []string{`tcserved_sampling_insts_total{mode="skipped"}`,
		"tcserved_sampling_checkpoint_restores_total"} {
		if after[sample] <= met[sample] {
			t.Errorf("%s did not move with the big seek job: %v -> %v", sample, met[sample], after[sample])
		}
	}
}
