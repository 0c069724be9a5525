// Example serve: run tcserved in-process and drive it with the Go
// client — submit a job synchronously, poll an async job, dedupe a
// repeated config against the result cache, fan out a sweep, and read
// the metrics counters.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"tcsim/client"
	"tcsim/internal/server"
)

func main() {
	// An in-process daemon on an ephemeral loopback port; in production
	// you would `tcserved -addr :8080` and point the client at it.
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)

	ctx := context.Background()
	cl := client.New("http://" + ln.Addr().String())

	// A synchronous job: POST /v1/jobs blocks until the result is ready.
	job, err := cl.SubmitJob(ctx, &client.JobRequest{
		Workload: "m88ksim", Insts: 100_000, Preset: client.PresetAll,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sync   m88ksim/all    IPC %.4f  key %s  %.0fms\n",
		job.Result.IPC, job.Key, job.WallMS)

	// The same config again: a cache hit, served without simulating.
	again, err := cl.SubmitJob(ctx, &client.JobRequest{
		Workload: "m88ksim", Insts: 100_000, Preset: client.PresetAll,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat m88ksim/all    IPC %.4f  cached=%v (bit-for-bit the same result)\n",
		again.Result.IPC, again.Cached)

	// An async job: 202 + job ID, then poll to completion.
	async, err := cl.SubmitJobAsync(ctx, &client.JobRequest{
		Workload: "compress", Insts: 100_000, Passes: []string{"moves", "place"},
	})
	if err != nil {
		log.Fatal(err)
	}
	done, err := cl.WaitJob(ctx, async.ID, 10*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async  compress/moves+place IPC %.4f  (job %s, state %s)\n",
		done.Result.IPC, done.ID, done.State)

	// A sweep: workloads x configs. client.Sweep submits each cell as a
	// job, so cells the jobs above already ran come from the result
	// cache, and the daemon counts every cell as an accepted job.
	sweep, err := cl.Sweep(ctx, &client.SweepRequest{
		Workloads: []string{"m88ksim", "compress", "li"},
		Configs: []client.JobRequest{
			{},                         // baseline
			{Preset: client.PresetAll}, // combined optimizations
		},
		Insts: 100_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweep  %d cells, %d simulated (rest served from the result cache), %.0fms\n",
		sweep.Cells, sweep.Simulations, sweep.WallMS)
	for _, row := range sweep.Rows {
		fmt.Printf("  %-10s %s  IPC %.4f\n", row.Workload, row.Key, row.IPC)
	}

	// GET /metrics, parsed: every sample keyed by "name{labels}".
	met, err := cl.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics: %.0f accepted, %.0f cache hits, %.0f misses, %.0f sim-inst/s busy throughput\n",
		met[`tcserved_jobs_total{event="accepted"}`],
		met[`tcserved_cache_requests_total{result="hit"}`],
		met[`tcserved_cache_requests_total{result="miss"}`],
		met["tcserved_sim_insts_total"]/met["tcserved_sim_busy_seconds_total"])

	shCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(shCtx)
	srv.Shutdown(shCtx)
}
