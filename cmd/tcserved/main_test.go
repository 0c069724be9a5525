package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSelfcheck runs both selfcheck phases — a single daemon, then a
// 3-node cluster behind a gateway — so the plain test suite drives the
// daemon, the gateway and the metric assertions end to end.
func TestSelfcheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-selfcheck", "-insts", "20000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("selfcheck exited %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	for _, want := range []string{"tcserved selfcheck ok:", "tcserved cluster selfcheck ok:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, &stdout)
		}
	}
}
