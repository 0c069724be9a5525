package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags covers the CLI's validation exit paths: each
// malformed invocation exits 2 before the daemon starts, explains itself
// on stderr with a usage hint, and writes nothing to stdout.
func TestRunRejectsBadFlags(t *testing.T) {
	type testCase struct {
		name string
		args []string
		want string // substring of stderr
	}
	cases := []testCase{
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"stray argument", []string{"-addr", "127.0.0.1:0", "stray"}, `unexpected arguments ["stray"]`},
		{"bad log level", []string{"-log-level", "nosuch"}, `unknown -log-level "nosuch"`},
		{"bad log format", []string{"-log-format", "nosuch"}, `unknown -log-format "nosuch"`},
	}
	// The flags of the retired end-to-end check mode are unknown now.
	for _, name := range []string{"selfcheck", "selfcheck-jobs", "selfcheck-cluster-jobs", "insts"} {
		cases = append(cases, testCase{"retired " + name, []string{"-" + name}, "flag provided but not defined: -" + name})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%q) = %d, want 2 (stderr %q)", tc.args, code, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not contain %q", &stderr, tc.want)
			}
			if !strings.Contains(stderr.String(), "usage") && !strings.Contains(stderr.String(), "Usage") {
				t.Errorf("stderr %q carries no usage hint", &stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("validation error leaked to stdout: %q", &stdout)
			}
		})
	}
}
