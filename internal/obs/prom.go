package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Prometheus text-format exposition (version 0.0.4), dependency-free:
// a concurrent fixed-bucket histogram, a small family writer the
// daemon's /metrics handler renders with, and a validating parser the
// gateway and the tests scrape through.

// ExpoContentType is the Content-Type of the text exposition format.
const ExpoContentType = "text/plain; version=0.0.4; charset=utf-8"

// Hist is a fixed-bucket histogram safe for concurrent observation.
// Buckets are cumulative-at-render (counts are stored per-interval and
// summed when written), matching Prometheus `le` semantics.
type Hist struct {
	name, help string
	bounds     []float64       // upper bounds, ascending; +Inf implicit
	counts     []atomic.Uint64 // len(bounds)+1; last is the +Inf interval
	count      atomic.Uint64
	sumBits    atomic.Uint64 // float64 bits of the observation sum
}

// NewHist builds a histogram family with the given ascending upper
// bounds (the implicit +Inf bucket is added automatically).
func NewHist(name, help string, bounds []float64) *Hist {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	return &Hist{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation of v.
func (h *Hist) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of value v (used to fold pre-counted
// distributions, e.g. per-run segment-length counts, into the family).
func (h *Hist) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the total number of observations.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Hist) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Expo writes one text-format exposition. Not safe for concurrent use;
// build one per scrape.
type Expo struct {
	w   io.Writer
	err error
}

// NewExpo returns an exposition writer over w.
func NewExpo(w io.Writer) *Expo { return &Expo{w: w} }

func (e *Expo) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// header emits the HELP/TYPE preamble for a family.
func (e *Expo) header(name, help, typ string) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Counter emits a single-sample counter family.
func (e *Expo) Counter(name, help string, v float64) {
	e.header(name, help, "counter")
	e.Sample(name, nil, v)
}

// Gauge emits a single-sample gauge family.
func (e *Expo) Gauge(name, help string, v float64) {
	e.header(name, help, "gauge")
	e.Sample(name, nil, v)
}

// CounterVec emits a labeled counter family. Each row is one label
// pair-list plus its value; rows render in the order given.
func (e *Expo) CounterVec(name, help string, rows []LabeledValue) {
	e.header(name, help, "counter")
	for _, r := range rows {
		e.Sample(name, r.Labels, r.Value)
	}
}

// GaugeVec emits a labeled gauge family. Each row is one label
// pair-list plus its value; rows render in the order given.
func (e *Expo) GaugeVec(name, help string, rows []LabeledValue) {
	e.header(name, help, "gauge")
	for _, r := range rows {
		e.Sample(name, r.Labels, r.Value)
	}
}

// LabeledValue is one sample of a labeled family.
type LabeledValue struct {
	Labels [][2]string
	Value  float64
}

// Sample emits one sample line. Labels render in the order given.
func (e *Expo) Sample(name string, labels [][2]string, v float64) {
	if len(labels) == 0 {
		e.printf("%s %s\n", name, formatValue(v))
		return
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l[0], escapeLabel(l[1]))
	}
	e.printf("%s{%s} %s\n", name, sb.String(), formatValue(v))
}

// Hist emits a complete histogram family: cumulative buckets, sum, and
// count.
func (e *Expo) Hist(h *Hist) {
	e.header(h.name, h.help, "histogram")
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		e.Sample(h.name+"_bucket", [][2]string{{"le", formatValue(b)}}, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	e.Sample(h.name+"_bucket", [][2]string{{"le", "+Inf"}}, float64(cum))
	e.Sample(h.name+"_sum", nil, h.Sum())
	e.Sample(h.name+"_count", nil, float64(cum))
}

// Err reports the first write error, if any.
func (e *Expo) Err() error { return e.err }

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format (the %q
// in Sample adds the quotes and escapes backslash/quote; newlines are
// handled by %q too, so this is a passthrough kept for clarity).
func escapeLabel(s string) string { return s }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
