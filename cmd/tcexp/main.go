// Command tcexp regenerates the paper's tables and figures.
//
// Usage:
//
//	tcexp -exp fig8 -insts 200000
//	tcexp -exp all
//	tcexp -exp sampling -budget 50000000
//	tcexp -exp all -cpuprofile cpu.pprof -memprofile mem.pprof
//
// All figure reproductions in one invocation share a memoized runner, so
// sweeps common to several figures (the baseline above all) simulate
// exactly once.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"strings"
	"time"

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
	fs := flag.NewFlagSet("tcexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ids := experimentIDs()
	var (
		exp      = fs.String("exp", "all", "experiment id: "+strings.Join(ids, ", "))
		insts    = fs.Uint64("insts", 200_000, "retired-instruction budget per simulation (0 = workload defaults); for -exp sampling this sets the validation budget (default 2M)")
		budget   = fs.Uint64("budget", 0, "headline instruction budget for the -exp sampling sweep (0 = 50M); sampled timing makes it near-free")
		sample   = fs.String("sample", "", "sampling plan for -exp sampling: 'period,window,warmup' (default: the per-budget auto plan)")
		progress = fs.Bool("progress", false, "emit structured per-figure/per-workload progress lines to stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		trc      = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // the FlagSet already printed the error and usage to stderr
	}
	usagef := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tcexp: "+format+"\n", args...)
		fmt.Fprintln(stderr, "run 'tcexp -h' for usage")
		return 2
	}

	if !slices.Contains(ids, *exp) {
		return usagef("unknown experiment %q (valid: %s)", *exp, strings.Join(ids, ", "))
	}

	var plan tcsim.SamplingConfig
	if (*budget != 0 || *sample != "") && *exp != tcsim.SamplingExperimentID {
		return usagef("-budget/-sample only apply to -exp %s", tcsim.SamplingExperimentID)
	}
	if *sample != "" && *sample != "auto" {
		var perr error
		if plan, perr = tcsim.ParseSamplingSpec(*sample, *budget); perr != nil {
			return usagef("%v", perr)
		}
		if plan.Seek {
			return usagef("-sample seek applies to tcsim runs; the sampling figure picks its oracle sources itself")
		}
	}
	// For -exp sampling the -insts default (200k) is too small to
	// validate against; only an explicit -insts overrides the figure's
	// 2M default.
	valInsts := uint64(0)
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "insts" {
			valInsts = *insts
		}
	})

	stop, err := prof.Start(*cpuProf, *memProf, *trc)
	if err != nil {
		fmt.Fprintf(stderr, "tcexp: %v\n", err)
		return 1
	}

	// -progress logs to stderr so piped/captured stdout stays exactly
	// the figures.
	logDst := io.Discard
	if *progress {
		logDst = stderr
	}
	logger := slog.New(slog.NewTextHandler(logDst, nil))

	if *exp == tcsim.SamplingExperimentID {
		err = runSampling(stdout, logger, valInsts, *budget, plan)
	} else {
		err = runFigures(stdout, logger, *exp, *insts)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(stderr, "tcexp: %v\n", err)
		return 1
	}
	return 0
}

// experimentIDs lists every -exp value: the paper's tables and figures,
// the policy lab and the sampling validation (this simulator's
// extensions, valid standalone but not part of "all"), then "all".
func experimentIDs() []string {
	return append(tcsim.ExperimentIDs(), tcsim.PoliciesExperimentID, tcsim.SamplingExperimentID, "all")
}

func runFigures(stdout io.Writer, logger *slog.Logger, exp string, insts uint64) error {
	ids := []string{exp}
	if exp == "all" {
		ids = tcsim.ExperimentIDs()
	}
	suite := tcsim.NewSuite(insts)
	logger.Info("suite start", "experiments", len(ids), "insts", insts)
	t00 := time.Now()
	for _, id := range ids {
		logger.Info("figure start", "id", id, "simulations", suite.Simulations())
		t0 := time.Now()
		out, err := suite.Reproduce(id)
		if err != nil {
			logger.Error("figure failed", "id", id, "error", err.Error())
			return err
		}
		logger.Info("figure done", "id", id,
			"wall", time.Since(t0).Round(time.Millisecond), "simulations", suite.Simulations())
		fmt.Fprintln(stdout, out)
	}
	logger.Info("suite done", "wall", time.Since(t00).Round(time.Millisecond),
		"simulations", suite.Simulations())
	return nil
}

// runSampling reproduces the sampled-timing validation figure:
// sampled vs exact IPC at the validation budget (0 = 2M), then the
// headline sampled sweep at the -budget budget (0 = 50M).
func runSampling(stdout io.Writer, logger *slog.Logger, valInsts, budget uint64, plan tcsim.SamplingConfig) error {
	suite := tcsim.NewSuite(0)
	logger.Info("figure start", "id", tcsim.SamplingExperimentID,
		"validate_insts", valInsts, "headline_insts", budget)
	t0 := time.Now()
	out, err := suite.Sampling(valInsts, budget, plan)
	if err != nil {
		logger.Error("figure failed", "id", tcsim.SamplingExperimentID, "error", err.Error())
		return err
	}
	logger.Info("figure done", "id", tcsim.SamplingExperimentID,
		"wall", time.Since(t0).Round(time.Millisecond), "simulations", suite.Simulations())
	fmt.Fprintln(stdout, out)
	return nil
}
