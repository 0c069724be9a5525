package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcsim"
)

// jobServer is a fake daemon: every POST /v1/jobs goes to handle, which
// returns the job to answer with, or nil once it has written its own
// response.
func jobServer(t *testing.T, handle func(w http.ResponseWriter, r *http.Request, req JobRequest) *Job) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			t.Errorf("sweep sent %s %s, want POST /v1/jobs", r.Method, r.URL.Path)
			http.NotFound(w, r)
			return
		}
		// Read the whole body, so the server notices when the client
		// gives up on the request.
		body, err := io.ReadAll(r.Body)
		var req JobRequest
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			t.Errorf("decode job request: %v", err)
			return
		}
		if job := handle(w, r, req); job != nil {
			json.NewEncoder(w).Encode(job)
		}
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL)
}

// doneJob is a finished job whose key names the request's workload,
// budget and preset, so a row shows which cell it came from.
func doneJob(req JobRequest, cached bool) *Job {
	return &Job{ID: "j1", State: StateDone, Cached: cached,
		Key:    fmt.Sprintf("%s/%d/%s", req.Workload, req.Insts, req.Preset),
		Result: &tcsim.Result{IPC: 1.5, Cycles: req.Insts, Retired: req.Insts}}
}

// TestSweepRejectsConfigNamingWorkload: a config that names a workload
// fails the sweep before any job is sent, even when it is not the first
// config.
func TestSweepRejectsConfigNamingWorkload(t *testing.T) {
	var sent atomic.Int64
	cl := jobServer(t, func(_ http.ResponseWriter, _ *http.Request, req JobRequest) *Job {
		sent.Add(1)
		return doneJob(req, false)
	})
	_, err := cl.Sweep(context.Background(), &SweepRequest{
		Workloads: []string{"li"},
		Configs:   []JobRequest{{}, {Workload: "gcc"}},
	})
	if err == nil || !strings.Contains(err.Error(), `"gcc"`) {
		t.Errorf("Sweep = %v, want an error naming the config's workload", err)
	}
	if n := sent.Load(); n != 0 {
		t.Errorf("%d jobs sent for an invalid sweep, want 0", n)
	}
}

// TestSweepCellOrder: rows come back configs-outer, a config's insts
// beats the sweep's, and an empty sweep means every bundled workload on
// the baseline.
func TestSweepCellOrder(t *testing.T) {
	cl := jobServer(t, func(_ http.ResponseWriter, _ *http.Request, req JobRequest) *Job {
		return doneJob(req, false)
	})
	ctx := context.Background()
	resp, err := cl.Sweep(ctx, &SweepRequest{
		Workloads: []string{"li", "gcc"},
		Configs:   []JobRequest{{}, {Preset: PresetAll, Insts: 7}},
		Insts:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []SweepRow{
		{Workload: "li", Key: "li/5/"}, {Workload: "gcc", Key: "gcc/5/"},
		{Workload: "li", Key: "li/7/all"}, {Workload: "gcc", Key: "gcc/7/all"},
	}
	if resp.Cells != len(want) || len(resp.Rows) != len(want) {
		t.Fatalf("%d cells, %d rows, want %d of each", resp.Cells, len(resp.Rows), len(want))
	}
	for i, w := range want {
		got := resp.Rows[i]
		if got.Workload != w.Workload || got.Key != w.Key || got.IPC != 1.5 || got.Cycles != got.Retired {
			t.Errorf("row %d = %+v, want workload %s, key %s, filled from its job", i, got, w.Workload, w.Key)
		}
	}

	resp, err = cl.Sweep(ctx, &SweepRequest{Insts: 3})
	if err != nil {
		t.Fatal(err)
	}
	workloads := tcsim.Workloads()
	if len(resp.Rows) != len(workloads) {
		t.Fatalf("empty sweep gave %d rows, want one per bundled workload (%d)", len(resp.Rows), len(workloads))
	}
	for i, w := range workloads {
		if key := w + "/3/"; resp.Rows[i].Key != key {
			t.Errorf("empty sweep row %d key %q, want %q (baseline)", i, resp.Rows[i].Key, key)
		}
	}
}

// TestSweepBoundsJobsInFlight: a sweep keeps exactly sweepInFlight jobs
// in flight at its peak, never more.
func TestSweepBoundsJobsInFlight(t *testing.T) {
	var cur, peak atomic.Int64
	giveUp := time.Now().Add(2 * time.Second)
	cl := jobServer(t, func(_ http.ResponseWriter, _ *http.Request, req JobRequest) *Job {
		n := cur.Add(1)
		defer cur.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		// Hold each job until the sweep has filled its slots, then a
		// little longer: an unbounded fan-out would pile more on.
		for peak.Load() < sweepInFlight && time.Now().Before(giveUp) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
		return doneJob(req, false)
	})
	workloads := make([]string, 4*sweepInFlight)
	for i := range workloads {
		workloads[i] = fmt.Sprintf("w%d", i)
	}
	resp, err := cl.Sweep(context.Background(), &SweepRequest{Workloads: workloads})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != len(workloads) {
		t.Fatalf("%d rows, want %d", len(resp.Rows), len(workloads))
	}
	if p := peak.Load(); p != sweepInFlight {
		t.Errorf("peak of %d jobs in flight, want %d", p, sweepInFlight)
	}
}

// TestSweepFirstFailureWins: the first failing cell's *APIError is the
// sweep's error, and no cell starts after it.
func TestSweepFirstFailureWins(t *testing.T) {
	workloads := make([]string, 3*sweepInFlight)
	for i := range workloads {
		workloads[i] = fmt.Sprintf("w%d", i)
	}
	var mu sync.Mutex
	var sent []string
	cl := jobServer(t, func(w http.ResponseWriter, r *http.Request, req JobRequest) *Job {
		mu.Lock()
		sent = append(sent, req.Workload)
		mu.Unlock()
		if req.Workload == workloads[0] {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusGatewayTimeout)
			json.NewEncoder(w).Encode(ErrorBody{Error: APIError{Code: "timeout", Message: "induced timeout"}})
			return nil
		}
		// Every other cell holds its slot until the sweep gives up on it.
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
			t.Errorf("cell %s was not cancelled after the failure", req.Workload)
		}
		return nil
	})
	_, err := cl.Sweep(context.Background(), &SweepRequest{Workloads: workloads})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGatewayTimeout || ae.Code != "timeout" || ae.Message != "induced timeout" {
		t.Fatalf("Sweep = %v, want the failing cell's 504 timeout", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, w := range sent {
		if !slices.Contains(workloads[:sweepInFlight], w) {
			t.Errorf("cell %s started after the first failure (sent %v)", w, sent)
		}
	}
}

// TestSweepCountsSimulations: Simulations counts the jobs that were not
// Cached.
func TestSweepCountsSimulations(t *testing.T) {
	cl := jobServer(t, func(_ http.ResponseWriter, _ *http.Request, req JobRequest) *Job {
		return doneJob(req, req.Preset == PresetAll)
	})
	resp, err := cl.Sweep(context.Background(), &SweepRequest{
		Workloads: []string{"li", "gcc", "go"},
		Configs:   []JobRequest{{}, {Preset: PresetAll}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cells != 6 || resp.Simulations != 3 {
		t.Errorf("%d cells, %d simulated; want 6 cells, 3 simulated (the all-preset jobs were cached)",
			resp.Cells, resp.Simulations)
	}
}
