package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSanitizeID(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"abc-DEF_1.2", "abc-DEF_1.2"},
		{"", ""},
		{"has space", ""},
		{"colon:inside", ""},
		{"newline\n", ""},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("a", 65), ""},
		{"unicode-é", ""},
	}
	for _, c := range cases {
		if got := SanitizeID(c.in); got != c.want {
			t.Errorf("SanitizeID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseTraceParent(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"req-1:abcdef0123456789", "abcdef0123456789"},
		{"req-1:", ""},
		{"no-colon", ""},
		{"", ""},
		{"a:b:c", ""}, // second colon lands in the span half: invalid
		{"a:bad value", ""},
	}
	for _, c := range cases {
		if got := ParseTraceParent(c.in); got != c.want {
			t.Errorf("ParseTraceParent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNilSpanSafety(t *testing.T) {
	// The whole point of the design: every call on nil is a no-op, so
	// tracing-threaded code paths run untraced without panics.
	var sp *Spanner
	ctx, s := sp.Start(context.Background(), "x")
	if s != nil {
		t.Fatal("nil Spanner started a non-nil span")
	}
	if ctx == nil {
		t.Fatal("nil Spanner returned nil ctx")
	}
	sp.Event(ctx, "ev", "k", "v")
	if _, s2 := sp.StartRemote(ctx, "trace", "", "y"); s2 != nil {
		t.Fatal("nil Spanner StartRemote returned a span")
	}

	var span *Span
	span.SetAttr("k", "v")
	span.SetError(errors.New("boom"))
	span.Finish()
	if span.ID() != "" {
		t.Fatalf("nil span ID = %q", span.ID())
	}

	// StartSpan with no active span is also a no-op chain.
	if _, s3 := StartSpan(context.Background(), "deep"); s3 != nil {
		t.Fatal("StartSpan without a parent returned a span")
	}
}

func TestSpanLifecycleAndParenting(t *testing.T) {
	ring := NewSpanRing(16)
	sp := NewSpanner("svc", ring)

	ctx, root := sp.StartRemote(context.Background(), "req-1", "gw-span", "serve")
	if root == nil {
		t.Fatal("StartRemote returned nil")
	}
	if root.TraceID != "req-1" || root.ParentID != "gw-span" || root.Service != "svc" {
		t.Fatalf("root = %+v", root)
	}

	cctx, child := sp.Start(ctx, "work")
	if child.ParentID != root.SpanID || child.TraceID != "req-1" {
		t.Fatalf("child = %+v, want parent %s", child, root.SpanID)
	}
	_, grand := StartSpan(cctx, "deep")
	if grand == nil || grand.ParentID != child.SpanID || grand.Service != "svc" {
		t.Fatalf("grandchild = %+v, want parent %s", grand, child.SpanID)
	}

	grand.SetAttr("k", "v")
	grand.SetError(errors.New("boom"))
	grand.Finish()
	grand.Finish() // idempotent: commits once
	child.Finish()
	root.Finish()

	if n := ring.Len(); n != 3 {
		t.Fatalf("ring holds %d spans after double Finish, want 3", n)
	}
	spans := ring.ByTrace("req-1")
	if len(spans) != 3 {
		t.Fatalf("ByTrace = %d spans", len(spans))
	}
	for _, s := range spans {
		if s.End.Before(s.Start) {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}

	// Event: an instant span joined to the active parent.
	sp.Event(ctx, "cache-lookup", "outcome", "hit")
	evs := ring.ByTrace("req-1")
	ev := evs[len(evs)-1]
	if ev.Name != "cache-lookup" || ev.Attrs["outcome"] != "hit" || !ev.Start.Equal(ev.End) {
		t.Fatalf("event span = %+v", ev)
	}
	if ev.ParentID != root.SpanID {
		t.Fatalf("event parent %s, want the active span %s", ev.ParentID, root.SpanID)
	}
}

func TestDetachCarriesIdentityAcrossContexts(t *testing.T) {
	ring := NewSpanRing(16)
	sp := NewSpanner("svc", ring)
	ctx, root := sp.StartRemote(context.Background(), "req-d", "", "serve")

	// The async-job move: work continues on a base context after the
	// request context dies, still parented under the request's span.
	base := context.Background()
	detached := Detach(base, ctx)
	_, s := sp.Start(detached, "async-run")
	if s == nil {
		t.Fatal("Start on detached ctx returned nil")
	}
	if s.TraceID != "req-d" || s.ParentID != root.SpanID {
		t.Fatalf("detached span = %+v, want trace req-d parent %s", s, root.SpanID)
	}

	// Detaching from an already-detached context keeps the identity.
	again := Detach(context.Background(), detached)
	if rc, ok := RemoteFrom(again); !ok || rc.TraceID != "req-d" {
		t.Fatalf("double Detach lost the remote identity: %+v ok=%v", rc, ok)
	}

	// Detaching from a bare context is a passthrough.
	if got := Detach(base, context.Background()); got != base {
		t.Fatal("Detach from a bare ctx did not return dst unchanged")
	}
}

func TestSpanRingWrapAndDrop(t *testing.T) {
	ring := NewSpanRing(4)
	sp := NewSpanner("svc", ring)
	for i := 0; i < 7; i++ {
		_, s := sp.StartRemote(context.Background(), "t", "", fmt.Sprintf("s%d", i))
		s.Finish()
	}
	if ring.Len() != 4 {
		t.Fatalf("Len = %d, want the cap 4", ring.Len())
	}
	if ring.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", ring.Dropped())
	}
	snap := ring.Snapshot()
	if len(snap) != 4 || snap[0].Name != "s3" || snap[3].Name != "s6" {
		t.Fatalf("snapshot order wrong: %v", spanNames(snap))
	}
}

func spanNames(spans []Span) []string {
	out := make([]string, len(spans))
	for i := range spans {
		out[i] = spans[i].Name
	}
	return out
}

func TestBuildSpanTreeConnectivity(t *testing.T) {
	mk := func(id, parent string, at int64) Span {
		return Span{TraceID: "t", SpanID: id, ParentID: parent,
			Service: "svc", Name: "n" + id, Start: time.Unix(at, 0)}
	}
	// Connected: one root, all parents present (insertion order shuffled
	// on purpose — the tree sorts by start time).
	tree := BuildSpanTree("t", []Span{
		mk("c2", "root", 3), mk("root", "", 1), mk("c1", "root", 2), mk("g1", "c1", 4),
	})
	if !tree.Connected || tree.SpanCount != 4 || len(tree.Roots) != 1 {
		t.Fatalf("tree = connected=%v count=%d roots=%d", tree.Connected, tree.SpanCount, len(tree.Roots))
	}
	if tree.Roots[0].SpanID != "root" {
		t.Fatalf("root = %s", tree.Roots[0].SpanID)
	}
	var visited []string
	tree.Walk(func(n *SpanNode) { visited = append(visited, n.SpanID) })
	if len(visited) != 4 || visited[0] != "root" {
		t.Fatalf("walk = %v", visited)
	}

	// An orphan (missing parent) becomes a second root: not connected.
	orphaned := BuildSpanTree("t", []Span{
		mk("root", "", 1), mk("lost", "never-seen", 2),
	})
	if orphaned.Connected || len(orphaned.Roots) != 2 {
		t.Fatalf("orphaned tree connected=%v roots=%d, want disconnected with 2 roots",
			orphaned.Connected, len(orphaned.Roots))
	}

	// Spans of other traces and duplicate span IDs are ignored.
	noisy := BuildSpanTree("t", []Span{
		mk("root", "", 1),
		{TraceID: "other", SpanID: "x", Service: "svc", Name: "alien"},
		mk("root", "", 9), // duplicate ID: first occurrence wins
	})
	if noisy.SpanCount != 1 || !noisy.Connected {
		t.Fatalf("noisy tree count=%d connected=%v", noisy.SpanCount, noisy.Connected)
	}

	// Empty input: not connected (there is nothing to connect).
	if empty := BuildSpanTree("t", nil); empty.Connected || empty.SpanCount != 0 {
		t.Fatalf("empty tree connected=%v count=%d", empty.Connected, empty.SpanCount)
	}
}

// TestSpanWriteDump: WriteDump writes the ring as a SpanDump, names
// the file from the sanitized service, and overwrites a fixed name.
func TestSpanWriteDump(t *testing.T) {
	sp := NewSpanner("with:bad/name", NewSpanRing(4))
	_, s := sp.StartRemote(context.Background(), "req-f", "", "serve")
	s.Finish()
	dir := t.TempDir()
	path, err := sp.WriteDump(dir, "123")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight-unknown-123.json" {
		t.Fatalf("unsanitizable service leaked into the file name: %s", path)
	}
	var back SpanDump
	if b, err := os.ReadFile(path); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("span dump JSON round-trip: %v", err)
	}
	if back.Service != "with:bad/name" || len(back.Spans) != 1 || back.Spans[0].TraceID != "req-f" {
		t.Fatalf("round-tripped dump = %+v", back)
	}
	// Overwrite semantics: a second dump to the same name must not error.
	for i := 0; i < 2; i++ {
		if _, err := NewSpanner("node-a", NewSpanRing(4)).WriteDump(dir, "last5xx"); err != nil {
			t.Fatalf("dump %d to a fixed name: %v", i, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "flight-node-a-last5xx.json")); err != nil {
		t.Fatalf("fixed-name dump: %v", err)
	}
}
