// Command tcsim runs one benchmark (or a TCR assembly file) on one
// machine configuration and prints the run's statistics.
//
// Usage:
//
//	tcsim -workload m88ksim -insts 300000 -opt all
//	tcsim -workload gcc -budget 50000000 -sample auto
//	tcsim -asm prog.s -opt moves,place
//	tcsim -workload gcc -passes reassoc,moves,scadd,place -time-passes
//	tcsim -list
//	tcsim -list-passes
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tcsim"
	"tcsim/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit so tests can drive the CLI
// in-process. Flag and validation errors print to stderr with a usage
// hint and exit 2; runtime failures exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Machine flags bind straight to the config's fields; the defaults
	// are DefaultConfig's. Flags of the opposite polarity (-no-*), the
	// two budget spellings and the pass shorthands are copied after
	// parsing.
	cfg := tcsim.DefaultConfig()
	fs.BoolVar(&cfg.TimePasses, "time-passes", cfg.TimePasses, "collect per-pass wall time (adds clock reads to the fill path)")
	fs.IntVar(&cfg.FillLatency, "fill-latency", cfg.FillLatency, "fill unit latency in cycles")
	fs.IntVar(&cfg.Clusters, "clusters", cfg.Clusters, "execution clusters (clusters x fus-per-cluster must be 16)")
	fs.IntVar(&cfg.FUsPerCluster, "fus-per-cluster", cfg.FUsPerCluster, "functional units per cluster")
	fs.StringVar(&cfg.TCPolicy, "tc-policy", cfg.TCPolicy, "trace-cache replacement policy (default "+tcsim.DefaultPolicy()+"; see -list-policies); 'belady' needs -workload")
	fs.StringVar(&cfg.ICPolicy, "ic-policy", cfg.ICPolicy, "L1 instruction-cache replacement policy (default "+tcsim.DefaultPolicy()+")")
	fs.IntVar(&cfg.TimelineEvents, "timeline-events", cfg.TimelineEvents, "timeline ring-buffer capacity in events (0 = 65536); oldest events drop when full")
	var (
		wl       = fs.String("workload", "", "bundled benchmark to run (see -list)")
		asmFile  = fs.String("asm", "", "TCR assembly file to assemble and run")
		insts    = fs.Uint64("insts", 0, "retired-instruction budget (0 = workload default / run to halt)")
		budget   = fs.Uint64("budget", 0, "retired-instruction budget for long runs (same as -insts; pair with -sample to keep wall time flat)")
		sample   = fs.String("sample", "", "sampled timing plan: 'auto', or 'period,window,warmup', optionally with ',seek' to skip gaps via checkpoint seek (needs -workload); default off = exact simulation")
		opts     = fs.String("opt", "", "fill-unit optimizations: comma list of moves,reassoc,scadd,place, or 'all'")
		passes   = fs.String("passes", "", "explicit pass pipeline, ordered (e.g. reassoc,moves,scadd,place); overrides -opt; see -list-passes")
		listPass = fs.Bool("list-passes", false, "list registered optimization passes and exit")
		listPol  = fs.Bool("list-policies", false, "list registered cache replacement policies and exit")
		noTC     = fs.Bool("no-tcache", false, "disable the trace cache (instruction-cache front end only)")
		noPack   = fs.Bool("no-packing", false, "disable trace packing")
		noProm   = fs.Bool("no-promotion", false, "disable branch promotion")
		noInact  = fs.Bool("no-inactive", false, "disable inactive issue")
		list     = fs.Bool("list", false, "list bundled workloads and exit")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		trc      = fs.String("trace", "", "write a runtime execution trace to this file")
		timeline = fs.String("timeline", "", "write a cycle-level timeline to this file as Chrome trace-event JSON (open in chrome://tracing or ui.perfetto.dev)")
		traceDir = fs.String("tracedir", "", "directory for persisted workload traces: captures are saved there and later runs load them instead of re-emulating (invalid/stale files are rejected and re-captured)")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // the FlagSet already printed the error and usage to stderr
	}
	usagef := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tcsim: "+format+"\n", args...)
		fmt.Fprintln(stderr, "run 'tcsim -h' for usage")
		return 2
	}
	fatalf := func(format string, args ...any) int {
		// Library errors already carry the "tcsim:" prefix; don't double it.
		msg := strings.TrimPrefix(fmt.Sprintf(format, args...), "tcsim: ")
		fmt.Fprintf(stderr, "tcsim: %s\n", msg)
		return 1
	}

	if *list {
		for _, n := range tcsim.Workloads() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if *listPass {
		listPasses(stdout)
		return 0
	}
	if *listPol {
		listPolicies(stdout)
		return 0
	}

	cfg.MaxInsts = *insts
	if *budget != 0 {
		if *insts != 0 && *insts != *budget {
			return usagef("pass either -insts or -budget, not both")
		}
		cfg.MaxInsts = *budget
	}
	if *sample != "" {
		plan, err := tcsim.ParseSamplingSpec(*sample, cfg.MaxInsts)
		if err != nil {
			return usagef("%v", err)
		}
		if plan.Seek && *asmFile != "" {
			return usagef("-sample seek needs -workload: checkpoint seek runs over a captured trace, not live -asm emulation")
		}
		cfg.Sampling = plan
	}
	if cfg.FillLatency < 0 {
		return usagef("-fill-latency must be >= 1, got %d", cfg.FillLatency)
	}
	if cfg.Clusters < 0 || cfg.FUsPerCluster < 0 {
		return usagef("-clusters and -fus-per-cluster must be positive")
	}
	cfg.UseTraceCache = !*noTC
	cfg.TracePacking = !*noPack
	cfg.Promotion = !*noProm
	cfg.InactiveIssue = !*noInact
	cfg.Timeline = *timeline != ""
	if *passes != "" {
		if *opts != "" {
			return usagef("pass either -opt or -passes, not both")
		}
		cfg.Passes = splitSpec(*passes)
	}
	for _, o := range strings.Split(*opts, ",") {
		switch strings.TrimSpace(o) {
		case "":
		case "all":
			cfg.Opt = tcsim.AllOptions()
		case "moves":
			cfg.Opt.Moves = true
		case "reassoc":
			cfg.Opt.Reassoc = true
		case "scadd":
			cfg.Opt.ScaledAdds = true
		case "place":
			cfg.Opt.Placement = true
		default:
			return usagef("unknown optimization %q (valid: moves,reassoc,scadd,place,all)", o)
		}
	}
	// The rules every front end shares: pass spec, policies, sampling plan
	// and geometry. The workload itself is checked when it runs, so an
	// unknown name stays a runtime error.
	if _, _, err := cfg.Canonical(""); err != nil {
		return usagef("%v", err)
	}
	if *traceDir != "" {
		tcsim.SetTraceDir(*traceDir)
		tcsim.SetTraceRejectLog(func(file string, err error) {
			fmt.Fprintf(stderr, "tcsim: ignoring trace file %s: %v (re-capturing live)\n", file, err)
		})
	}
	if *wl != "" && *asmFile != "" {
		return usagef("pass either -workload or -asm, not both")
	}
	if *wl == "" && *asmFile == "" {
		return usagef("pass -workload <name> or -asm <file> (or -list)")
	}

	stopProf, err := prof.Start(*cpuProf, *memProf, *trc)
	if err != nil {
		return fatalf("%v", err)
	}

	var res tcsim.Result
	if *wl != "" {
		res, err = tcsim.RunWorkload(cfg, *wl)
	} else {
		src, rerr := os.ReadFile(*asmFile)
		if rerr != nil {
			return fatalf("%v", rerr)
		}
		prog, aerr := tcsim.Assemble(string(src))
		if aerr != nil {
			return fatalf("%v", aerr)
		}
		res, err = tcsim.Run(cfg, prog)
	}
	if err != nil {
		return fatalf("%v", err)
	}
	if err := stopProf(); err != nil {
		return fatalf("%v", err)
	}
	if *timeline != "" {
		f, cerr := os.Create(*timeline)
		if cerr != nil {
			return fatalf("%v", cerr)
		}
		werr := res.Timeline.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fatalf("writing timeline: %v", werr)
		}
		fmt.Fprintf(stdout, "timeline            %d events -> %s", len(res.Timeline.Events), *timeline)
		if res.Timeline.Dropped > 0 {
			fmt.Fprintf(stdout, " (%d oldest dropped; raise -timeline-events)", res.Timeline.Dropped)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "IPC                 %.4f\n", res.IPC)
	if s := res.Sampled; s != nil {
		fmt.Fprintf(stdout, "sampled 95%% CI      [%.4f, %.4f] over %d windows\n", s.CILow, s.CIHigh, s.Windows)
		fmt.Fprintf(stdout, "sampled insts       %d detailed  %d warmup  %d ffwd  %d seek-skipped\n",
			s.InstsDetailed, s.InstsWarmup, s.InstsFFwd, s.InstsSkipped)
		if s.Seeks > 0 {
			fmt.Fprintf(stdout, "checkpoint seeks    %d (%d restores)\n", s.Seeks, s.CheckpointRestores)
		}
	}
	fmt.Fprintf(stdout, "cycles              %d\n", res.Cycles)
	fmt.Fprintf(stdout, "retired             %d\n", res.Retired)
	fmt.Fprintf(stdout, "trace cache hit     %.2f%%\n", 100*res.TraceCacheHitRate)
	fmt.Fprintf(stdout, "mispredict rate     %.2f%%\n", 100*res.MispredictRate)
	fmt.Fprintf(stdout, "bypass delayed      %.2f%%\n", 100*res.BypassDelayRate)
	fmt.Fprintf(stdout, "moves marked        %.2f%%\n", res.MovesPct)
	fmt.Fprintf(stdout, "reassociated        %.2f%%\n", res.ReassocPct)
	fmt.Fprintf(stdout, "scaled ops          %.2f%%\n", res.ScaledPct)
	fmt.Fprintf(stdout, "any transformation  %.2f%%\n", res.OptimizedPct)
	if res.TCBypasses > 0 {
		fmt.Fprintf(stdout, "tc fill bypasses    %d\n", res.TCBypasses)
	}
	for _, row := range res.TraceReuse {
		var hits uint64
		for h, n := range row.Hits {
			hits += uint64(h) * n
		}
		shape := row.Mix
		if row.Loop {
			shape += "+loop"
		}
		fmt.Fprintf(stdout, "tc reuse %-11s %9d lines  %9d hits  %6.2f hits/line\n",
			shape, row.Lines, hits, float64(hits)/float64(row.Lines))
	}
	for _, ps := range res.PassStats {
		fmt.Fprintf(stdout, "pass %-14s %9d segs  %9d touched  %9d rewritten  %9d edges removed",
			ps.Name, ps.Segments, ps.Touched, ps.Rewritten, ps.EdgesRemoved)
		if cfg.TimePasses {
			fmt.Fprintf(stdout, "  %.3fms", float64(ps.Nanos)/1e6)
		}
		fmt.Fprintln(stdout)
	}
	if len(res.Output) > 0 {
		fmt.Fprintf(stdout, "program output      %q\n", res.Output)
	}
	return 0
}

// splitSpec parses a comma-separated pass spec, trimming whitespace and
// dropping empty elements.
func splitSpec(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// listPolicies prints the replacement-policy registry in canonical
// order.
func listPolicies(w io.Writer) {
	for _, p := range tcsim.Policies() {
		mark := " "
		switch {
		case p.Default:
			mark = "*"
		case p.Oracle:
			mark = "o"
		}
		fmt.Fprintf(w, "%s %-8s %s\n", mark, p.Name, p.Desc)
	}
	fmt.Fprintln(w, "(* = default; o = oracle bound, runs over captured workload traces only)")
}

// listPasses prints the registered pass roster in canonical order.
func listPasses(w io.Writer) {
	for _, p := range tcsim.Passes() {
		def := " "
		if p.Default {
			def = "*"
		}
		fmt.Fprintf(w, "%s %-10s %s\n", def, p.Name, p.Desc)
	}
	fmt.Fprintln(w, "(* = part of the paper's combined configuration; default order:",
		strings.Join(tcsim.DefaultPassSpec(), ","), ")")
}
