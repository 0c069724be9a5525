package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FlightRecorder is the per-process black box: an always-on bounded
// buffer of recent spans plus free-form job-lifecycle events, cheap
// enough to never switch off. It is read three ways — served live at
// GET /debug/flight, dumped to disk on SIGQUIT, and dumped
// automatically when a 5xx says something just went wrong — so the
// moments leading up to a failure are always on record.
//
// All methods are nil-receiver safe: a daemon constructed without a
// recorder (unit tests, embedded engines) pays only nil checks.
type FlightRecorder struct {
	service string
	spans   *SpanRing
	spanner *Spanner

	mu      sync.Mutex
	ring    []FlightEvent
	head    int
	wrapped bool
	dropped uint64
}

// FlightEvent is one job-lifecycle note in the recorder.
type FlightEvent struct {
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// DefaultFlightEventCap is the event-ring capacity NewFlightRecorder
// selects for eventCap <= 0.
const DefaultFlightEventCap = 1024

// NewFlightRecorder builds a recorder for one service holding up to
// spanCap spans and eventCap events (<= 0 selects the defaults).
func NewFlightRecorder(service string, spanCap, eventCap int) *FlightRecorder {
	if eventCap <= 0 {
		eventCap = DefaultFlightEventCap
	}
	ring := NewSpanRing(spanCap)
	return &FlightRecorder{
		service: service,
		spans:   ring,
		spanner: NewSpanner(service, ring),
		ring:    make([]FlightEvent, eventCap),
	}
}

// Service returns the recorder's service name ("" on nil).
func (f *FlightRecorder) Service() string {
	if f == nil {
		return ""
	}
	return f.service
}

// Spanner returns the recorder's span starter (nil on nil, which every
// Spanner method tolerates).
func (f *FlightRecorder) Spanner() *Spanner {
	if f == nil {
		return nil
	}
	return f.spanner
}

// Spans returns the recorder's span ring (nil on nil).
func (f *FlightRecorder) Spans() *SpanRing {
	if f == nil {
		return nil
	}
	return f.spans
}

// Notef records a formatted job-lifecycle event. No-op on nil.
func (f *FlightRecorder) Notef(format string, args ...any) {
	if f == nil {
		return
	}
	ev := FlightEvent{Time: time.Now(), Msg: fmt.Sprintf(format, args...)}
	f.mu.Lock()
	if f.wrapped {
		f.dropped++
	}
	f.ring[f.head] = ev
	f.head++
	if f.head == len(f.ring) {
		f.head = 0
		f.wrapped = true
	}
	f.mu.Unlock()
}

// Events copies out the recorded events, oldest first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []FlightEvent
	if f.wrapped {
		out = append(out, f.ring[f.head:]...)
	}
	return append(out, f.ring[:f.head]...)
}

// FlightDump is the serialized recorder: the GET /debug/flight response
// body and the on-disk dump format.
type FlightDump struct {
	Service       string        `json:"service"`
	DumpedAt      time.Time     `json:"dumped_at"`
	Spans         []Span        `json:"spans"`
	DroppedSpans  uint64        `json:"dropped_spans,omitempty"`
	Events        []FlightEvent `json:"events"`
	DroppedEvents uint64        `json:"dropped_events,omitempty"`
}

// Dump snapshots the recorder.
func (f *FlightRecorder) Dump() FlightDump {
	if f == nil {
		return FlightDump{DumpedAt: time.Now()}
	}
	d := FlightDump{
		Service:  f.service,
		DumpedAt: time.Now(),
		Spans:    f.spans.Snapshot(),
		Events:   f.Events(),
	}
	d.DroppedSpans = f.spans.Dropped()
	f.mu.Lock()
	d.DroppedEvents = f.dropped
	f.mu.Unlock()
	return d
}

// WriteJSON writes the dump as indented JSON.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Dump())
}

// DumpToDir writes the dump to a timestamped file in dir (created if
// missing; "" means the current directory) and returns its path.
func (f *FlightRecorder) DumpToDir(dir string) (string, error) {
	d := f.Dump()
	name := fmt.Sprintf("flight-%s-%d.json", sanitizeFileService(d.Service), d.DumpedAt.UnixNano())
	return writeFlightFile(dir, name, d)
}

// DumpToFile writes the dump to a fixed file name in dir, overwriting —
// for recurring triggers (a 5xx) that should keep the latest context
// without growing the directory unboundedly.
func (f *FlightRecorder) DumpToFile(dir, name string) (string, error) {
	return writeFlightFile(dir, name, f.Dump())
}

func writeFlightFile(dir, name string, d FlightDump) (string, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func sanitizeFileService(s string) string {
	if v := SanitizeID(s); v != "" {
		return v
	}
	return "unknown"
}
