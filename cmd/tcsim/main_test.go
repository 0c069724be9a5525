package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsExitNonZero covers the CLI's validation exit paths: every
// malformed invocation must exit non-zero, print the error to stderr
// (not stdout), and point at -h.
func TestBadFlagsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown pass", []string{"-workload", "m88ksim", "-passes", "bogus"}, "unknown pass"},
		{"illegal order", []string{"-workload", "m88ksim", "-passes", "place,moves"}, "illegal pass order"},
		{"opt and passes", []string{"-workload", "m88ksim", "-opt", "all", "-passes", "moves"}, "not both"},
		{"unknown opt", []string{"-workload", "m88ksim", "-opt", "nosuch"}, "unknown optimization"},
		{"workload and asm", []string{"-workload", "m88ksim", "-asm", "x.s"}, "not both"},
		{"no input", nil, "pass -workload"},
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"negative fill latency", []string{"-workload", "m88ksim", "-fill-latency", "-2"}, "-fill-latency must be >= 1"},
		{"negative clusters", []string{"-workload", "m88ksim", "-clusters", "-3"}, "-clusters and -fus-per-cluster must be positive"},
		{"negative fus per cluster", []string{"-workload", "m88ksim", "-fus-per-cluster", "-1"}, "-clusters and -fus-per-cluster must be positive"},
		{"geometry other than 16 FUs", []string{"-workload", "m88ksim", "-clusters", "2", "-fus-per-cluster", "2"}, "must be 16 functional units"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code == 0 {
				t.Fatalf("run(%q) = 0, want non-zero", tc.args)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.want)
			}
			if !strings.Contains(stderr.String(), "usage") && !strings.Contains(stderr.String(), "Usage") {
				t.Errorf("stderr %q carries no usage hint", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("validation error leaked to stdout: %q", stdout.String())
			}
		})
	}
}

// TestUnknownWorkloadFails covers the runtime (exit 1) path.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nosuch"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("stderr %q does not name the unknown workload", stderr.String())
	}
}

// TestHappyPath sanity-checks that a tiny run still exits 0 and prints
// statistics to stdout.
func TestHappyPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "m88ksim", "-insts", "5000", "-opt", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "IPC") {
		t.Errorf("stdout %q missing the IPC line", stdout.String())
	}
	for _, l := range []struct{ flag, want string }{
		{"-list", "m88ksim"}, {"-list-passes", "moves"}, {"-list-policies", "lru"},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{l.flag}, &out, &errb); code != 0 || !strings.Contains(out.String(), l.want) {
			t.Errorf("run(%s) = %d with stdout %q, want a roster naming %q", l.flag, code, out.String(), l.want)
		}
	}
}
