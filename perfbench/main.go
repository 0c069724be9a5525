// Command perfbench is the repository's benchmark. One process runs one
// workload (figures, sampled or serve) for a fixed time, checks every
// simulated output against a stored digest or a direct run, and prints
// its metrics by name with their units. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. README.md has the glossary and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sizes fixes the work of every workload and layer timing. The benchmark
// runs at defaultSizes; the self-test shrinks them.
type sizes struct {
	figInsts     uint64  // per-simulation budget of the figures suite
	sampInsts    uint64  // budget of each sampled run; above tracestore.FullCaptureLimit
	serveInsts   uint64  // budget of every served job
	serveRound   int     // jobs per serve round, the unit wall_s times on serve
	hopPairs     int     // gateway-vs-direct request pairs behind cluster.hop_ms_*
	probeSeconds float64 // closed loop of the service probe in traced figures/sampled runs
	layerDiv     uint64  // divides the inputs of the layer timings (1 = full size)
}

var defaultSizes = sizes{
	// 10k, not tcexp's default of 200k, so that a 20 s run holds 6-8
	// repetitions of the suite; README.md gives the CPU split it keeps.
	figInsts:  10_000,
	sampInsts: 20_000_000,
	// A served simulation then takes ~50 ms, two orders of magnitude
	// above a cache hit, so job_p99_ms and job_p50_ms measure different
	// layers.
	serveInsts:   20_000,
	serveRound:   1000,
	hopPairs:     300,
	probeSeconds: 1.5,
	layerDiv:     1,
}

// programStart is when this package was initialized, after the Go
// runtime and the packages it imports: the earliest instant the program
// can read at sub-millisecond resolution. The process start time in
// /proc/self/stat counts 10 ms clock ticks, more than the whole set-up
// of figures.
var programStart = time.Now()

// setupRuns is how many times an untraced run sets its workload up;
// setup_s takes their median.
const setupRuns = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type report struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts the operations of a run and the ones that failed: errors,
// refused jobs and outputs that differ from their reference.
type tally struct {
	attempted, failed atomic.Int64

	mu   sync.Mutex
	errs []string
}

func (t *tally) op(err error) {
	t.attempted.Add(1)
	if err != nil {
		t.fail(err)
	}
}

// fail records a failure of an operation already counted as attempted.
func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 20 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

// phase is what one timed phase measured.
type phase struct {
	mu       sync.Mutex
	repWall  []float64 // seconds per fixed work set: a repetition, or a serve round
	jobMS    []float64 // latency of every job; a failed job reads +Inf
	ends     []float64 // seconds from phase start to each job's end
	elapsed  float64   // seconds the phase took
	simInsts float64   // instructions simulated in the phase
}

func (p *phase) add(t *tally, start time.Time, lat time.Duration, err error) {
	t.op(err)
	ms := float64(lat.Nanoseconds()) / 1e6
	if err != nil {
		ms = math.Inf(1)
	}
	p.mu.Lock()
	p.jobMS = append(p.jobMS, ms)
	p.ends = append(p.ends, time.Since(start).Seconds())
	p.mu.Unlock()
}

// runner is one benchmark workload. setup runs once, then measure runs
// once, or twice in a traced run.
type runner interface {
	setup() error
	measure(d time.Duration, traced bool) *phase
	// check runs the output checks too costly for a timed or profiled
	// phase, on what the phases since the last check produced.
	check()
	// layers adds the workload's own per-layer rows after a traced phase.
	layers(m metrics) error
	// teardown releases what setup built; calling it twice is harmless.
	teardown()
}

// bench holds what every workload shares.
type bench struct {
	sz     sizes
	seed   int64
	out    string // profiles go here
	stdout io.Writer
	t      *tally
	gold   *golden
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figures, sampled or serve")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (the serve request mix)")
	seconds := fs.Float64("seconds", 10, "seconds the timed phase runs")
	trace := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the traced run's profiles")
	goldenOut := fs.String("golden-out", "", "record the observed figure digests and sampled estimates into this file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	gold, err := loadGolden(*goldenOut != "")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{sz: defaultSizes, seed: *seed, out: *out, stdout: stdout, t: &tally{}, gold: gold}
	rep, err := b.run(*name, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range b.t.errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	if *goldenOut != "" {
		if err := gold.write(*goldenOut); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func (b *bench) newWorkload(name string) (runner, error) {
	switch name {
	case "figures":
		return &figuresBench{b: b}, nil
	case "sampled":
		return &sampledBench{b: b}, nil
	case "serve":
		return newServeBench(b)
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, sampled or serve)", name)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// run executes one benchmark run: set-ups, then the untraced phase, or
// in a traced run an untraced and a traced half plus the layer timings.
func (b *bench) run(name string, seconds float64, traced bool) (*report, error) {
	w, err := b.newWorkload(name)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	// setup_s is the time from the program's start to the first set-up,
	// plus the median of setupRuns set-ups, each but the last torn down.
	started := time.Since(programStart).Seconds()
	runs := setupRuns
	if traced {
		runs = 1
	}
	var setups []float64
	for i := 0; i < runs; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	m := metrics{}
	if !traced {
		ph := w.measure(secs(seconds), false)
		w.check()
		m.set("setup_s", started+median(setups), "s")
		m.set("wall_s", median(ph.repWall), "s")
		m.set("jobs_per_s", float64(len(ph.jobMS))/ph.elapsed, "1/s")
		tail, beyond := tailLatency(ph.jobMS)
		m.set("job_p50_ms", finite(percentile(ph.jobMS, 50)), "ms")
		m.set("job_p99_ms", finite(tail), "ms")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		fmt.Fprintf(b.stdout, "perfbench %s: %d jobs in %.2fs, %d work sets, %d jobs beyond job_p99_ms, %.3gs before set-up (seed %d)\n",
			name, len(ph.jobMS), ph.elapsed, len(ph.repWall), beyond, started, b.seed)
	} else if err := b.traced(name, w, seconds, m); err != nil {
		return nil, err
	}

	attempted, failed := b.t.attempted.Load(), b.t.failed.Load()
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	if traced {
		m.set("bench.fail_frac", frac, "ratio")
	}
	printMetrics(b.stdout, m)
	if !traced {
		fmt.Fprintf(b.stdout, "  %-34s %14.6g %s\n", "fail_frac", frac, "ratio")
	}
	if attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed", name)
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// traced runs the untraced half, then the traced half under a CPU
// profile and a sampled heap profile, and fills m with every per-layer
// metric.
func (b *bench) traced(name string, w runner, seconds float64, m metrics) error {
	plain := w.measure(secs(seconds/2), false)
	w.check()
	prof, err := startProfiles(filepath.Join(b.out, "perfbench-"+name))
	if err != nil {
		return err
	}
	ph := w.measure(secs(seconds/2), true)
	sites, err := prof.stop()
	if err != nil {
		return err
	}
	w.check()

	base, cur := median(plain.repWall), median(ph.repWall)
	if name == "serve" {
		base, cur = percentile(plain.jobMS, 50), percentile(ph.jobMS, 50)
	}
	m.set("bench.trace_overhead_pct", 100*(cur-base)/base, "%")

	if err := w.layers(m); err != nil {
		return fmt.Errorf("%s layers: %w", name, err)
	}
	w.teardown()
	if name != "serve" {
		if err := serviceProbe(b, m); err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
	}
	if err := layerTimings(b.sz, m); err != nil {
		return fmt.Errorf("layer timings: %w", err)
	}
	stages, err := cpuStages(prof.cpuPath)
	if err != nil {
		return err
	}
	for _, st := range stageNames {
		m.set("cpu."+st, stages[st], "%")
	}
	fmt.Fprintf(b.stdout, "perfbench %s: CPU samples outside the named stages: %.1f%%", name, stages[stageOther])
	if name == "figures" && stages[stageOther] > 10 {
		fmt.Fprint(b.stdout, " (named stages cover under 90% on figures)")
	}
	fmt.Fprintln(b.stdout)
	printAllocSites(b.stdout, name, sites, ph.simInsts)
	fmt.Fprintf(b.stdout, "perfbench %s: profiles in %s\n", name, filepath.Dir(prof.cpuPath))
	return nil
}

func printMetrics(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// minBeyond is how many jobs should lie beyond the reported tail
// latency, so that it rests on more than a handful of samples.
const minBeyond = 10

// tailLatency is the p99 of xs, or, in a run with too few jobs to leave
// minBeyond of them beyond the p99, the latency that does leave that
// many; a run of at most minBeyond jobs reports its slowest. It also
// returns how many jobs lie beyond the value.
func tailLatency(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(0.99*float64(len(s)))) - 1
	k = min(k, len(s)-1-minBeyond)
	if k < 0 {
		k = len(s) - 1
	}
	return s[k], len(s) - 1 - k
}

// finite keeps a latency that counts failed jobs as beyond any limit
// representable in JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
