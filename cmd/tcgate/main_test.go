package main

import (
	"strings"
	"testing"
)

func TestParseNodes(t *testing.T) {
	nodes, err := parseNodes("http://a:1, node-b=http://b:2/,http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, url string }{
		{"node0", "http://a:1"}, {"node-b", "http://b:2"}, {"node2", "http://c:3"},
	}
	if len(nodes) != len(want) {
		t.Fatalf("parsed %d nodes, want %d", len(nodes), len(want))
	}
	for i, w := range want {
		if nodes[i].Name != w.name || nodes[i].URL != w.url {
			t.Errorf("node %d = %+v, want %+v", i, nodes[i], w)
		}
	}
	for _, bad := range []string{"", "  ", "a,,b", "=http://x", "noscheme", "n=noscheme"} {
		if _, err := parseNodes(bad); err == nil {
			t.Errorf("parseNodes(%q) accepted invalid input", bad)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-listen", ":0"}, &out, &errb); code != 2 {
		t.Fatalf("missing -nodes exited %d, want 2", code)
	}
	if code := run([]string{"-nodes", "http://x", "-log-level", "shout"}, &out, &errb); code != 2 {
		t.Fatalf("bad log level exited %d, want 2", code)
	}
	if code := run([]string{"-nodes", "http://x", "stray"}, &out, &errb); code != 2 {
		t.Fatalf("stray args exited %d, want 2", code)
	}
	// Retired with the gateway's sweep path: client.Sweep submits jobs.
	errb.Reset()
	const retired = "flag provided but not defined: -sweep-concurrency"
	if code := run([]string{"-nodes", "http://x", "-sweep-concurrency", "8"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), retired) {
		t.Fatalf("retired -sweep-concurrency exited %d with %q, want 2 and %q", code, errb.String(), retired)
	}
}
