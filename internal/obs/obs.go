// Package obs is the shared observability layer: a cycle-level timeline
// recorder the simulator feeds (exported as Chrome trace-event JSON), a
// Prometheus text-format exposition writer with histogram support, and
// the parser the tests validate that output with.
//
// The recorder is designed around one hard constraint: when it is
// disabled (a nil *Recorder) the simulator's cycle loop must stay
// allocation-free and pay at most a nil compare per emission site. When
// enabled, events land in a preallocated fixed-capacity ring — Emit
// never allocates either, so tracing perturbs the run as little as
// possible; the ring simply drops the oldest events once full.
package obs

// Kind identifies what a timeline event records. The A/B/C payload
// fields are kind-specific.
type Kind uint8

const (
	// KNone is the zero Kind; no valid event carries it.
	KNone Kind = iota
	// KFetchTC: the fetch stage hit the trace cache.
	// A = fetch PC, B = instructions fetched, C = inactive-suffix length.
	KFetchTC
	// KFetchIC: the fetch stage fell back to the instruction cache.
	// A = fetch PC, B = instructions fetched.
	KFetchIC
	// KTCMiss: a trace-cache lookup missed (arming the fill unit).
	// A = fetch PC.
	KTCMiss
	// KSegFinal: the fill unit finalized a trace segment.
	// A = segment start PC, B = instruction count, C = conditional
	// branches embedded.
	KSegFinal
	// KPass: an optimization pass changed a just-finalized segment.
	// A = interned pass-name index (Timeline.Strings), B = instructions
	// rewritten, C = dependency edges removed — deltas for this segment.
	KPass
	// KIssue: the issue stage inserted a fetch group into the window.
	// A = uops issued, B = window occupancy after issue.
	KIssue
	// KRetire: retirement committed instructions this cycle.
	// A = instructions retired, B = window occupancy after retirement.
	KRetire
	// KCapture: this run triggered a trace-store capture — the
	// correct-path stream was emulated and stored before the pipeline
	// started (emitted at cycle 0, only on the cold run; warm replays
	// carry no such event, matching a live-emulated run's timeline).
	// A = records captured, B = instruction budget.
	KCapture
	// KReuse: the trace cache retired a line generation (eviction or
	// in-place rebuild), the unit of reuse decanting. A = reuse-class
	// index (instruction-mix × loop-back; trace.ReuseClassLabel decodes
	// it), B = demand hits the generation took, C = segment start PC.
	// Appended after KCapture so earlier kinds keep their serialized
	// values.
	KReuse
	// KWindow: a sampled run crossed a window boundary. A = window
	// index, B = phase (0 warm-up start, 1 measurement start, 2
	// measurement end), C = retired-instruction position. Appended after
	// KReuse (serialized values are frozen).
	KWindow
	// KSeek: a sampled run seeked the oracle past a fast-forward gap.
	// A = target dynamic sequence, B = instructions skipped.
	KSeek
	// KFFwd: a sampled run fast-forwarded functionally (caches and
	// predictors warmed, no timing). A = instructions warmed, B = the
	// dynamic sequence reached.
	KFFwd
)

// String names the kind for trace output.
func (k Kind) String() string {
	switch k {
	case KFetchTC:
		return "tc-hit"
	case KFetchIC:
		return "ic-fetch"
	case KTCMiss:
		return "tc-miss"
	case KSegFinal:
		return "segment"
	case KPass:
		return "pass"
	case KIssue:
		return "issue"
	case KRetire:
		return "retire"
	case KReuse:
		return "reuse"
	case KCapture:
		return "capture"
	case KWindow:
		return "window"
	case KSeek:
		return "seek"
	case KFFwd:
		return "ffwd"
	}
	return "unknown"
}

// Event is one recorded timeline event. The payload meaning is
// documented on the Kind constants.
type Event struct {
	Cycle uint64 `json:"cycle"`
	Kind  Kind   `json:"kind"`
	A     uint64 `json:"a,omitempty"`
	B     uint64 `json:"b,omitempty"`
	C     uint64 `json:"c,omitempty"`
}

// DefaultRecorderCap is the ring capacity NewRecorder(0) selects.
const DefaultRecorderCap = 1 << 16

// Recorder collects timeline events into a fixed-capacity ring buffer.
// It is NOT safe for concurrent use: one simulator owns one recorder.
// A nil *Recorder is a valid, disabled recorder — Emit on nil is a
// no-op, and emission sites additionally guard with a nil check so the
// disabled cost is a single compare.
type Recorder struct {
	ring    []Event
	head    int // next write index
	wrapped bool
	dropped uint64 // events overwritten after the ring filled

	strs   []string
	strIdx map[string]uint64
}

// NewRecorder returns a recorder with a ring of capEvents events
// (capEvents <= 0 selects DefaultRecorderCap). All storage is allocated
// here, up front; recording never allocates.
func NewRecorder(capEvents int) *Recorder {
	if capEvents <= 0 {
		capEvents = DefaultRecorderCap
	}
	return &Recorder{
		ring:   make([]Event, capEvents),
		strIdx: make(map[string]uint64),
	}
}

// Intern registers a string (a pass name) and returns its stable index
// for use as an event payload. Call at construction time, not on the
// recording path: interning a new string allocates.
func (r *Recorder) Intern(s string) uint64 {
	if i, ok := r.strIdx[s]; ok {
		return i
	}
	i := uint64(len(r.strs))
	r.strs = append(r.strs, s)
	r.strIdx[s] = i
	return i
}

// Emit records one event. Allocation-free; drops the oldest event once
// the ring is full. Safe to call on a nil receiver (no-op).
func (r *Recorder) Emit(cycle uint64, k Kind, a, b, c uint64) {
	if r == nil {
		return
	}
	if r.wrapped {
		r.dropped++
	}
	r.ring[r.head] = Event{Cycle: cycle, Kind: k, A: a, B: b, C: c}
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
		r.wrapped = true
	}
}

// Len reports how many events the recorder currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.wrapped {
		return len(r.ring)
	}
	return r.head
}

// Timeline snapshots the recorded events, oldest first, together with
// the interned string table. Allocates; call at end of run.
func (r *Recorder) Timeline() *Timeline {
	if r == nil {
		return nil
	}
	t := &Timeline{Dropped: r.dropped}
	t.Events = make([]Event, 0, r.Len())
	if r.wrapped {
		t.Events = append(t.Events, r.ring[r.head:]...)
	}
	t.Events = append(t.Events, r.ring[:r.head]...)
	t.Strings = append(t.Strings, r.strs...)
	return t
}

// Timeline is an ordered snapshot of a run's recorded events — what
// tcsim.Result carries when tracing is on, and what WriteChromeTrace
// renders for chrome://tracing.
type Timeline struct {
	// Events is in recording order (oldest first). One simulated cycle
	// is rendered as one microsecond of trace time.
	Events []Event `json:"events"`
	// Strings resolves interned event payloads (pass names).
	Strings []string `json:"strings,omitempty"`
	// Dropped counts events lost to the ring bound (oldest-first).
	Dropped uint64 `json:"dropped,omitempty"`
}

// Str resolves an interned string index, or "?" when out of range.
func (t *Timeline) Str(i uint64) string {
	if t == nil || i >= uint64(len(t.Strings)) {
		return "?"
	}
	return t.Strings[i]
}
