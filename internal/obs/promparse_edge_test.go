package obs

import (
	"math"
	"strings"
	"testing"
)

// These tests pin the exposition writer/parser pair on its edges: HELP
// text that needs escaping, label values with quotes/backslashes/
// newlines, and +Inf bucket coherence — each written through Expo and
// read back through ParseExposition, because the gateway and the
// serving tests trust exactly that round trip.

func TestExpoEscapedHelpRoundTrip(t *testing.T) {
	var sb strings.Builder
	e := NewExpo(&sb)
	e.Counter("x_total", "help with \\backslash and\nnewline", 3)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The exposition format is line-oriented: an unescaped newline in
	// HELP would split the comment and orphan the tail as a sample line.
	if !strings.Contains(out, `help with \\backslash and\nnewline`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 { // HELP, TYPE, sample
		t.Fatalf("escaped HELP still spans extra lines:\n%s", out)
	}
	samples, err := ParseExposition([]byte(out))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}
	if samples["x_total"] != 3 {
		t.Fatalf("samples = %v", samples)
	}
}

func TestExpoLabelValueEscapingRoundTrip(t *testing.T) {
	var sb strings.Builder
	e := NewExpo(&sb)
	e.CounterVec("y_total", "labeled", []LabeledValue{
		{Labels: [][2]string{{"node", `quote"and\slash`}}, Value: 1},
		{Labels: [][2]string{{"node", "new\nline"}}, Value: 2},
		{Labels: [][2]string{{"node", "plain"}, {"outcome", "ok,comma"}}, Value: 3},
	})
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	samples, err := ParseExposition([]byte(out))
	if err != nil {
		t.Fatalf("parse escaped labels: %v\n%s", err, out)
	}
	// The parser keys by source-order label text, quotes included.
	if len(samples) != 3 {
		t.Fatalf("got %d samples: %v", len(samples), samples)
	}
	var total float64
	for _, v := range samples {
		total += v
	}
	if total != 6 {
		t.Fatalf("sample values lost in the round trip: %v", samples)
	}
	// A raw newline inside a label value would break line-orientation;
	// every emitted line must still be "name{...} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "y_total") {
			t.Fatalf("line does not start a sample or comment: %q", line)
		}
	}
}

func TestExpoInfBucketCoherence(t *testing.T) {
	h := NewHist("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100) // lands in the implicit +Inf interval

	var sb strings.Builder
	e := NewExpo(&sb)
	e.Hist(h)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition([]byte(sb.String()))
	if err != nil {
		t.Fatalf("parse histogram: %v\n%s", err, sb.String())
	}
	if got := samples[`lat_seconds_bucket{le="+Inf"}`]; got != 3 {
		t.Fatalf("+Inf bucket = %v, want 3", got)
	}
	if got := samples["lat_seconds_count"]; got != 3 {
		t.Fatalf("_count = %v", got)
	}
	if got := samples[`lat_seconds_bucket{le="0.1"}`]; got != 1 {
		t.Fatalf("le=0.1 bucket = %v, want cumulative 1", got)
	}
	if got := samples[`lat_seconds_bucket{le="1"}`]; got != 2 {
		t.Fatalf("le=1 bucket = %v, want cumulative 2", got)
	}

	// The parser itself understands the +Inf literal as a value too.
	if v, err := ParseExposition([]byte("# TYPE g gauge\ng +Inf\n")); err != nil {
		t.Fatalf("+Inf gauge value rejected: %v", err)
	} else if !math.IsInf(v["g"], 1) {
		t.Fatalf("g = %v, want +Inf", v["g"])
	}

	// And a histogram whose +Inf bucket disagrees with _count must fail.
	bad := "# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"
	if _, err := ParseExposition([]byte(bad)); err == nil {
		t.Fatal("parser accepted +Inf bucket != _count")
	}
	// A histogram missing its +Inf bucket entirely must also fail.
	noInf := "# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"
	if _, err := ParseExposition([]byte(noInf)); err == nil {
		t.Fatal("parser accepted a histogram with no +Inf bucket")
	}
}
