package obs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// goldenRingSpan is one span of the wire-shape golden: IDs and times
// pinned, attributes set in order (a repeated key keeps its last value).
type goldenRingSpan struct {
	trace, id, parent, name string
	start, end              int64 // µs after goldenRingT0
	attrs                   []string
	err                     string
}

var goldenRingT0 = time.Date(2026, 10, 20, 9, 30, 0, 123456789, time.UTC)

// goldenRingSpans fill a 6-span ring: the first two are dropped, the
// rest cover no attributes, an event (start == end), a replaced key,
// more attributes than an open span holds inline, keys and values
// JSON must escape, errors, and a second trace.
func goldenRingSpans() []goldenRingSpan {
	return []goldenRingSpan{
		{trace: "req-old", id: "0000000000000001", name: "GET /v1/jobs/j1", start: 0, end: 40, attrs: []string{"status", "404"}},
		{trace: "req-old", id: "0000000000000002", parent: "0000000000000001", name: "dropped", start: 5, end: 6},
		{trace: "req-g", id: "aaaa00000000000a", parent: "gw00000000000001", name: "POST /v1/jobs", start: 100, end: 2600,
			attrs: []string{"job", "j00112233445566ff", "key", "0123456789abcdef0123", "status", "200"}},
		{trace: "req-g", id: "aaaa00000000000b", parent: "aaaa00000000000a", name: "cache-lookup", start: 120, end: 120,
			attrs: []string{"outcome", "miss", "key", "0123456789ab"}},
		{trace: "req-g", id: "aaaa00000000000c", parent: "aaaa00000000000a", name: "queue-wait", start: 130, end: 131},
		{trace: "req-g", id: "aaaa00000000000d", parent: "aaaa00000000000a", name: "run", start: 131, end: 2500,
			attrs: []string{"workload", "gcc", "insts", "20000", "phase", "capture", "phase", "replay",
				"pass.reassoc", "segments=10 touched=4 rewritten=2", "pass.moves", "segments=10 touched=3 rewritten=3",
				"sampled", "windows=2 ffwd=100 skipped=0 seeks=0 restores=0", "esc\"aped", "<tab>\t&"}},
		{trace: "req-h", id: "bbbb00000000000a", name: "POST /v1/jobs", start: 3000, end: 3100,
			attrs: []string{"status", "504"}, err: "Gateway Timeout"},
		{trace: "req-g", id: "aaaa00000000000e", parent: "aaaa00000000000a", name: "singleflight-wait", start: 2000, end: 2550,
			attrs: []string{"key", "0123456789ab"}, err: "context canceled"},
	}
}

// TestSpanDumpGolden pins the JSON of every view of a ring: the dump
// file WriteDump writes (testdata/spandump_golden.json), and, one per
// line in testdata/spantrace_golden.json, /debug/spans?trace= and the
// /v1/trace tree over the same spans. The goldens were written from
// spans that kept their attributes in a map and their times as
// time.Time; the compact records must reproduce them byte for byte.
func TestSpanDumpGolden(t *testing.T) {
	local := time.Local
	time.Local = time.UTC // a view is in the local zone, as time.Now stamps it
	defer func() { time.Local = local }()

	sp := NewSpanner("node0", NewSpanRing(6))
	for _, g := range goldenRingSpans() {
		_, s := sp.StartRemote(context.Background(), g.trace, g.parent, g.name)
		s.rec.spanID = g.id
		s.SetStart(goldenRingT0.Add(time.Duration(g.start) * time.Microsecond))
		for i := 0; i+1 < len(g.attrs); i += 2 {
			s.SetAttr(g.attrs[i], g.attrs[i+1])
		}
		if g.err != "" {
			s.SetError(errors.New(g.err))
		}
		s.finish(goldenRingT0.Add(time.Duration(g.end) * time.Microsecond).UnixNano())
	}

	path, err := sp.WriteDump(t.TempDir(), "golden")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var views []byte
	for _, v := range []any{sp.Dump("req-g"), BuildSpanTree("req-g", sp.ring.ByTrace("req-g"))} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		views = append(append(views, b...), '\n')
	}
	for name, got := range map[string][]byte{"spandump_golden.json": dump, "spantrace_golden.json": views} {
		golden := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (run with -update to create): %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("views differ from %s:\n%s", golden, got)
		}
	}
}

// TestFinishedSpanIsImmutable: a span's record is its own once
// committed; attributes set on the open span after Finish, or by a
// later span that reuses a key, do not reach it.
func TestFinishedSpanIsImmutable(t *testing.T) {
	ring := NewSpanRing(4)
	sp := NewSpanner("svc", ring)
	_, s := sp.StartRemote(context.Background(), "t", "", "serve")
	s.SetAttr("k", "v")
	s.Finish()
	s.SetAttr("k", "changed")
	s.SetAttr("late", "x")
	s.SetError(errors.New("late"))
	s.Finish()
	got := ring.Snapshot()
	if len(got) != 1 || len(got[0].Attrs) != 1 || got[0].Attrs["k"] != "v" || got[0].Error != "" {
		t.Fatalf("committed span = %+v, want only k=v", got)
	}
}

// recordServePair records what a node records for a cache hit: a serve
// span with two attributes and a two-attribute cache-lookup event.
func recordServePair(sp *Spanner) {
	ctx, s := sp.StartRemote(context.Background(), "req-guard", "", "POST /v1/jobs")
	sp.Event(ctx, "cache-lookup", "outcome", "hit", "key", "0123456789ab")
	s.SetAttr("job", "j0123456789abcdef")
	s.SetAttr("status", "200")
	s.Finish()
}

// TestSpanRingRetention bounds what a full default ring holds per
// resident span: its slot, its ID and its attribute slice. Spans that
// kept a map and a time.Time pair held 500 B each.
func TestSpanRingRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("memory guard: the plain build runs it")
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	heap0 := heap()
	ring := NewSpanRing(0)
	sp := NewSpanner("node0", ring)
	for i := 0; i < 3*DefaultSpanRingCap/2; i++ {
		recordServePair(sp)
	}
	held := float64(heap()) - float64(heap0)
	perSpan := held / float64(ring.Len())
	t.Logf("%d resident spans hold %.0f B of heap, %.1f B each", ring.Len(), held, perSpan)
	if ring.Len() != DefaultSpanRingCap {
		t.Fatalf("ring holds %d spans, want its capacity %d", ring.Len(), DefaultSpanRingCap)
	}
	if perSpan > 300 {
		t.Errorf("a resident span holds %.1f B of heap, want at most 300", perSpan)
	}
	runtime.KeepAlive(ring)
}

// TestSpanRecordAllocations bounds the allocations of recording a serve
// span and a cache-lookup event: the open span, its ID, its context and
// its attribute slice, then the event's ID and attribute slice. Spans
// that kept a map made 12.
func TestSpanRecordAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("a race build allocates more per span: the plain build runs this guard")
	}
	sp := NewSpanner("node0", NewSpanRing(0))
	allocs := testing.AllocsPerRun(1000, func() { recordServePair(sp) })
	t.Logf("%.1f allocations per serve span and event", allocs)
	if allocs > 6 {
		t.Errorf("recording a serve span and an event makes %.1f allocations, want at most 6", allocs)
	}
}
