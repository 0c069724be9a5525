package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// heapRate samples one allocation per heapRate bytes in the traced
// phase: fine enough to attribute allocations by site, coarse enough to
// leave the CPU profile undistorted. Sampled counts are scaled back the
// way pprof scales them.
const heapRate = 64 << 10

// profiler records the traced phase: a CPU profile and a heap profile.
type profiler struct {
	cpuPath, heapPath string
	cpu               *os.File
	before            map[[32]uintptr]runtime.MemProfileRecord
	rate              int
}

func startProfiles(prefix string) (*profiler, error) {
	if err := os.MkdirAll(filepath.Dir(prefix), 0o755); err != nil {
		return nil, err
	}
	p := &profiler{cpuPath: prefix + "-cpu.pprof", heapPath: prefix + "-heap.pprof"}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	p.before = memRecords()
	p.rate = runtime.MemProfileRate
	runtime.MemProfileRate = heapRate
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	return p, nil
}

// allocSite is the allocations one call site made in the traced phase.
type allocSite struct {
	fn            string
	objects, size float64
}

// stop ends both profiles, writes the heap profile and returns the
// phase's allocations by site, largest count first.
func (p *profiler) stop() ([]allocSite, error) {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return nil, err
	}
	runtime.GC()
	after := memRecords()
	runtime.MemProfileRate = p.rate
	hf, err := os.Create(p.heapPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.Lookup("heap").WriteTo(hf, 0); err != nil {
		hf.Close()
		return nil, err
	}
	if err := hf.Close(); err != nil {
		return nil, err
	}

	bySite := map[string]*allocSite{}
	for stk, rec := range after {
		prev := p.before[stk]
		objs, size := rec.AllocObjects-prev.AllocObjects, rec.AllocBytes-prev.AllocBytes
		if objs <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-float64(size)/float64(objs)/heapRate))
		fn := siteOf(rec.Stack())
		s := bySite[fn]
		if s == nil {
			s = &allocSite{fn: fn}
			bySite[fn] = s
		}
		s.objects += float64(objs) * scale
		s.size += float64(size) * scale
	}
	sites := make([]allocSite, 0, len(bySite))
	for _, s := range bySite {
		sites = append(sites, *s)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].objects != sites[j].objects {
			return sites[i].objects > sites[j].objects
		}
		return sites[i].fn < sites[j].fn
	})
	return sites, nil
}

func memRecords() map[[32]uintptr]runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		got, ok := runtime.MemProfile(recs, true)
		if ok {
			out := make(map[[32]uintptr]runtime.MemProfileRecord, got)
			for _, r := range recs[:got] {
				out[r.Stack0] = r
			}
			return out
		}
		n = got
	}
}

// siteOf names an allocation by the first function on its stack outside
// the runtime.
func siteOf(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if !strings.HasPrefix(f.Function, "runtime.") && f.Function != "" {
			return f.Function
		}
		if !more {
			return "runtime"
		}
	}
}

func printAllocSites(w io.Writer, name string, sites []allocSite, simInsts float64) {
	k := simInsts / 1000
	var total float64
	for _, s := range sites {
		total += s.objects
	}
	fmt.Fprintf(w, "perfbench %s: traced-phase allocations by site (%.0f simulated insts, %.2f allocs per 1k insts in all)\n",
		name, simInsts, total/max(k, 1))
	for i, s := range sites {
		if i == 15 {
			break
		}
		fmt.Fprintf(w, "  %10.3f allocs/kinst %12.1f B/kinst  %s\n",
			s.objects/max(k, 1), s.size/max(k, 1), s.fn)
	}
}

// The CPU stages of the traced run. A sample belongs to the stage of
// the innermost frame on its stack that a stage rule claims; samples
// no specific rule claims fall back to their package (exec), else to
// other.
var stageNames = []string{
	"exec", "branch_resolve", "fetch", "issue", "retire", "rename", "replay",
	"fill", "tcache", "emu", "ffwd", "gc", "net_http", "json",
}

const stageOther = "other"

// stageRules are tried on every frame from the leaf outwards; the first
// frame any rule matches decides the stage.
var stageRules = []struct{ prefix, stage string }{
	{"runtime.gc", "gc"},
	{"runtime.mallocgc", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.bgscavenge", "gc"},
	{"runtime.wbBuf", "gc"},
	{"runtime.bulkBarrier", "gc"},
	{"gcWriteBarrier", "gc"},
	{"runtime.GC", "gc"},
	{"encoding/json.", "json"},
	{"net/http.", "net_http"},
	{"net.", "net_http"},
	{"internal/poll.", "net_http"},
	{"syscall.", "net_http"},
	{"tcsim/internal/tracestore.capture", "emu"},
	{"tcsim/internal/tracestore.(*Trace).snapshot", "emu"},
	{"tcsim/internal/tracestore.", "replay"},
	{"tcsim/internal/emu.", "emu"},
	{"tcsim/internal/core.", "fill"},
	{"tcsim/internal/trace.", "tcache"},
	{"tcsim/internal/rename.", "rename"},
	{"tcsim/internal/pipeline.(*Simulator).renameUOp", "rename"},
	{"tcsim/internal/pipeline.(*Simulator).resolveLiveIn", "rename"},
	{"tcsim/internal/pipeline.(*Simulator).FastForward", "ffwd"},
	{"tcsim/internal/pipeline.(*Simulator).seekTo", "ffwd"},
	{"tcsim/internal/pipeline.(*Simulator).drainForGap", "ffwd"},
	{"tcsim/internal/pipeline.(*Simulator).resolveBranches", "branch_resolve"},
	{"tcsim/internal/pipeline.(*Simulator).tryIssue", "issue"},
	{"tcsim/internal/exec.(*Engine).Issue", "issue"},
	{"tcsim/internal/pipeline.(*Simulator).doRetire", "retire"},
	{"tcsim/internal/pipeline.(*Simulator).retire", "retire"},
	{"tcsim/internal/pipeline.(*Simulator).fetchCycle", "fetch"},
}

// fallbackRules apply when no stage rule matched any frame.
var fallbackRules = []struct{ prefix, stage string }{
	{"tcsim/internal/exec.", "exec"},
	{"tcsim/internal/pipeline.", "exec"},
}

func stageOf(stack []string) string {
	for _, rules := range [][]struct{ prefix, stage string }{stageRules, fallbackRules} {
		for _, fn := range stack {
			for _, r := range rules {
				if strings.HasPrefix(fn, r.prefix) {
					return r.stage
				}
			}
		}
	}
	return stageOther
}

// cpuStages buckets the CPU profile's samples into stages with
// `go tool pprof -traces` and returns each stage's share in percent.
func cpuStages(profPath string) (map[string]float64, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profPath)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	byStage := map[string]time.Duration{}
	var total time.Duration
	var val time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byStage[stageOf(stack)] += val
			total += val
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasSuffix(f[0], ":") {
			continue // header or label line
		}
		if d, err := time.ParseDuration(f[0]); err == nil && len(f) >= 2 {
			flush()
			val = d
			stack = append(stack, f[1])
			continue
		}
		if len(stack) > 0 && strings.HasPrefix(line, " ") {
			stack = append(stack, f[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no samples", profPath)
	}
	shares := map[string]float64{}
	for st, d := range byStage {
		shares[st] = 100 * float64(d) / float64(total)
	}
	return shares, nil
}
