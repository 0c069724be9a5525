package obs

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRecorderNilIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(1, KRetire, 1, 2, 3) // must not panic
	if r.Len() != 0 {
		t.Errorf("nil recorder Len = %d, want 0", r.Len())
	}
	if tl := r.Timeline(); tl != nil {
		t.Errorf("nil recorder Timeline = %v, want nil", tl)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for c := uint64(0); c < 7; c++ {
		r.Emit(c, KRetire, c, 0, 0)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", r.Len())
	}
	tl := r.Timeline()
	if tl.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", tl.Dropped)
	}
	if len(tl.Events) != 4 {
		t.Fatalf("timeline has %d events, want 4", len(tl.Events))
	}
	// Oldest-first: cycles 3,4,5,6 survive.
	for i, e := range tl.Events {
		if want := uint64(3 + i); e.Cycle != want {
			t.Errorf("event %d: cycle %d, want %d", i, e.Cycle, want)
		}
	}
}

func TestRecorderIntern(t *testing.T) {
	r := NewRecorder(8)
	a := r.Intern("moves")
	b := r.Intern("place")
	if a2 := r.Intern("moves"); a2 != a {
		t.Errorf("re-interning returned %d, want %d", a2, a)
	}
	if a == b {
		t.Errorf("distinct strings interned to the same index %d", a)
	}
	tl := r.Timeline()
	if tl.Str(a) != "moves" || tl.Str(b) != "place" {
		t.Errorf("string table resolves to %q/%q", tl.Str(a), tl.Str(b))
	}
	if got := tl.Str(99); got != "?" {
		t.Errorf("out-of-range Str = %q, want ?", got)
	}
}

func TestHistObserve(t *testing.T) {
	h := NewHist("test_hist", "help", []float64{1, 2, 5})
	h.Observe(0.5)   // bucket le=1
	h.Observe(2)     // le=2 (bounds are inclusive upper)
	h.ObserveN(4, 3) // le=5, three observations
	h.Observe(100)   // +Inf interval
	if got, want := h.Count(), uint64(6); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), 0.5+2+3*4+100; got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestHistRejectsNonAscendingBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHist accepted non-ascending bounds")
		}
	}()
	NewHist("bad", "", []float64{1, 1})
}

// TestExpoParseRoundTrip renders a full exposition through Expo and
// validates it with ParseExposition — the same pairing the daemon's
// /metrics and its scrapers use.
func TestExpoParseRoundTrip(t *testing.T) {
	h := NewHist("rt_latency_seconds", "A latency histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.ObserveN(0.5, 2)
	h.Observe(10)

	var sb strings.Builder
	e := NewExpo(&sb)
	e.Counter("rt_jobs_total", "Jobs processed.", 42)
	e.Gauge("rt_queue_depth", "Waiting jobs.", 3)
	e.CounterVec("rt_events_total", "Events by kind.", []LabeledValue{
		{Labels: [][2]string{{"kind", "hit"}}, Value: 7},
		{Labels: [][2]string{{"kind", "miss"}}, Value: 5},
	})
	e.Hist(h)
	if err := e.Err(); err != nil {
		t.Fatalf("Expo error: %v", err)
	}

	samples, err := ParseExposition([]byte(sb.String()))
	if err != nil {
		t.Fatalf("ParseExposition rejected Expo output: %v\n%s", err, sb.String())
	}
	checks := map[string]float64{
		"rt_jobs_total":                        42,
		"rt_queue_depth":                       3,
		`rt_events_total{kind="hit"}`:          7,
		`rt_events_total{kind="miss"}`:         5,
		`rt_latency_seconds_bucket{le="0.1"}`:  1,
		`rt_latency_seconds_bucket{le="1"}`:    3,
		`rt_latency_seconds_bucket{le="+Inf"}`: 4,
		"rt_latency_seconds_count":             4,
	}
	for key, want := range checks {
		if got, ok := samples[key]; !ok {
			t.Errorf("missing sample %s", key)
		} else if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	if got := samples["rt_latency_seconds_sum"]; math.Abs(got-11.05) > 1e-9 {
		t.Errorf("histogram sum = %v, want 11.05", got)
	}
}

func TestParseExpositionRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan_metric 1\n",
		"non-numeric value":   "# TYPE m counter\nm notanumber\n",
		"duplicate sample":    "# TYPE m counter\nm 1\nm 2\n",
		"unknown type":        "# TYPE m wibble\nm 1\n",
		"histogram no +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"histogram bucket decrease": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n",
		"histogram inf != count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 4\n",
		"histogram missing sum": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_count 3\n",
	}
	for name, body := range cases {
		if _, err := ParseExposition([]byte(body)); err == nil {
			t.Errorf("%s: parser accepted invalid exposition:\n%s", name, body)
		}
	}
}

// goldenTimeline is a fixed timeline exercising every event kind.
func goldenTimeline() *Timeline {
	r := NewRecorder(64)
	moves := r.Intern("moves")
	place := r.Intern("place")
	r.Emit(10, KTCMiss, 0x4000, 0, 0)
	r.Emit(10, KFetchIC, 0x4000, 12, 0)
	r.Emit(11, KIssue, 12, 12, 0)
	r.Emit(14, KSegFinal, 0x4000, 16, 2)
	r.Emit(14, KPass, moves, 3, 2)
	r.Emit(14, KPass, place, 9, 0)
	r.Emit(15, KFetchTC, 0x4000, 16, 4)
	r.Emit(16, KIssue, 16, 28, 0)
	r.Emit(20, KRetire, 12, 16, 0)
	return r.Timeline()
}

// TestChromeTraceGolden freezes the Chrome trace rendering. Run with
// -update to regenerate testdata/chrome_golden.json after an
// intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenTimeline().WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Chrome trace output drifted from %s\ngot:\n%s", golden, got)
	}

	// And independent of the golden bytes: the output must be valid
	// trace-event JSON with the expected structure.
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(got), &trace); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	phases := map[string]bool{}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "" || e.Name == "" {
			t.Fatalf("event with empty name/phase: %+v", e)
		}
		phases[e.Ph] = true
		names[e.Name] = true
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if !phases[ph] {
			t.Errorf("no %q-phase event in the rendered trace", ph)
		}
	}
	for _, n := range []string{"tc-hit", "ic-fetch", "tc-miss", "segment",
		"pass:moves", "pass:place", "issue", "retire", "window"} {
		if !names[n] {
			t.Errorf("no %q event in the rendered trace", n)
		}
	}
}

func TestWriteChromeTraceNilTimeline(t *testing.T) {
	var tl *Timeline
	if err := tl.WriteChromeTrace(&strings.Builder{}); err == nil {
		t.Error("nil timeline rendered without error")
	}
}
