package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Request-scoped span tracing. Where the Recorder sees cycles inside
// one simulation, spans see a request across processes: the trace ID is
// the request ID (the X-Request-ID the daemons already propagate), so a
// span tree connects gateway ingress, per-node failover attempts, queue
// wait, cache and trace-store lookups, and the run itself under one
// causal root. Spans are wall-clock, service-labeled, and land in a
// bounded in-process ring (SpanRing); nothing leaves the process until
// something asks — GET /debug/spans, the gateway's /v1/trace collation,
// or a dump file (WriteDump).
//
// Everything here is nil-safe by design: a nil *Spanner starts nil
// *ActiveSpans, and every method on a nil *ActiveSpan is a no-op, so
// code threaded with tracing pays a nil check when tracing is off. The
// simulator's cycle loop is never touched — spans live strictly in the
// serving layer, which is how BenchmarkCycleLoop stays at 0 allocs/op
// with tracing compiled in.

// RequestIDHeader names an exchange's request ID, which is its trace
// ID: a caller may send one, each daemon adopts it through SanitizeID
// or mints one, and every response echoes it.
const RequestIDHeader = "X-Request-ID"

// TraceParentHeader carries span context between services, in the shape
// of a W3C traceparent but with this system's IDs:
//
//	X-Trace-Parent: <trace-id>:<span-id>
//
// The trace ID is the request ID (its alphabet excludes ':', so the
// split is unambiguous) and the span ID names the caller's span the
// callee should parent under.
const TraceParentHeader = "X-Trace-Parent"

// TraceParent is the X-Trace-Parent value that ParseTraceParent reads:
// spanID of trace traceID.
func TraceParent(traceID, spanID string) string { return traceID + ":" + spanID }

// SanitizeID accepts an ID only if it is short and header/log-safe —
// the shared alphabet for request, trace and span IDs (alphanumerics
// plus '-', '_', '.', at most 64 bytes). Anything else returns "".
func SanitizeID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return ""
		}
	}
	return id
}

// ParseTraceParent extracts the sanitized parent span ID from an
// X-Trace-Parent header value ("" if the header is absent or mangled).
// The trace half is deliberately ignored: the trace ID is always the
// request ID the middleware resolved, header or not.
func ParseTraceParent(v string) string {
	for i := 0; i < len(v); i++ {
		if v[i] == ':' {
			return SanitizeID(v[i+1:])
		}
	}
	return ""
}

// NewSpanID mints a 16-hex-digit random span ID (also used as a request
// ID by edges that must pin one before proxying). The string is its one
// allocation.
func NewSpanID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("obs: crypto/rand unavailable: " + err.Error())
	}
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// Span is one finished span as its readers see it: the JSON shape of
// every view of a ring (GET /debug/spans, the dump files, the gateway's
// /v1/trace collation, the service half of /debug/trace). A ring keeps
// no Spans; it builds them from its records when something reads it.
type Span struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Service  string            `json:"service"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// attr is one span attribute.
type attr struct{ k, v string }

// setAttr sets k to v in attrs, replacing an earlier value of k: the
// last value set wins, as in the view's map.
func setAttr(attrs []attr, k, v string) []attr {
	for i := range attrs {
		if attrs[i].k == k {
			attrs[i].v = v
			return attrs
		}
	}
	return append(attrs, attr{k, v})
}

// spanRecord is a span as its ring keeps it: a fixed-size slot holding
// the strings the span was given, its times as Unix nanoseconds, and
// its attributes in one exact-size slice (nil without any).
type spanRecord struct {
	traceID, spanID, parentID, service, name, err string
	start, end                                    int64
	attrs                                         []attr
}

// view builds the record's Span, in the local time zone as time.Now
// stamps it.
func (r *spanRecord) view() Span {
	s := Span{
		TraceID:  r.traceID,
		SpanID:   r.spanID,
		ParentID: r.parentID,
		Service:  r.service,
		Name:     r.name,
		Start:    time.Unix(0, r.start),
		End:      time.Unix(0, r.end),
		Error:    r.err,
	}
	if len(r.attrs) > 0 {
		s.Attrs = make(map[string]string, len(r.attrs))
		for _, a := range r.attrs {
			s.Attrs[a.k] = a.v
		}
	}
	return s
}

// inlineAttrs is how many attributes an open span holds before its
// buffer moves to the heap: serve and attempt spans set at most three
// and the gateway's root span four (five for an async job); a run
// span's per-pass attributes spill.
const inlineAttrs = 4

// ActiveSpan is an open span: one timed operation inside a trace,
// owned by the goroutine that started it until Finish, which commits
// its record to its ring. It is not safe for concurrent mutation.
type ActiveSpan struct {
	rec  spanRecord // rec.attrs is buf's prefix until it outgrows it
	buf  [inlineAttrs]attr
	ring *SpanRing // destination; nil once committed
}

// ID returns the span's ID ("" on nil, so callers can propagate it
// unconditionally).
func (s *ActiveSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.rec.spanID
}

// TraceID returns the ID of the span's trace ("" on nil).
func (s *ActiveSpan) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.traceID
}

// SetAttr attaches a small key/value to the span; setting a key again
// replaces its value. No-op on nil.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.rec.attrs == nil {
		s.rec.attrs = s.buf[:0]
	}
	s.rec.attrs = setAttr(s.rec.attrs, k, v)
}

// SetError records a failure on the span. No-op on nil or nil err.
func (s *ActiveSpan) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.rec.err = err.Error()
}

// SetStart moves the span's start back to t, for a span opened once
// the wait it times is over. No-op on nil.
func (s *ActiveSpan) SetStart(t time.Time) {
	if s == nil {
		return
	}
	s.rec.start = t.UnixNano()
}

// Finish stamps the end time and commits the span to its ring. Safe to
// call on nil; calling twice commits once.
func (s *ActiveSpan) Finish() {
	if s == nil {
		return
	}
	s.finish(time.Now().UnixNano())
}

func (s *ActiveSpan) finish(end int64) {
	r := s.ring
	if r == nil {
		return
	}
	s.ring = nil
	rec := s.rec
	rec.end = end
	if rec.attrs != nil { // the open span's buffer: the record gets its own
		rec.attrs = append(make([]attr, 0, len(rec.attrs)), rec.attrs...)
	}
	r.add(&rec)
}

// --- context plumbing ---

type spanCtxKey struct{}   // *ActiveSpan: the active local span
type remoteCtxKey struct{} // SpanContext: a parent in another process

// SpanContext is the cross-process half of a span identity: enough to
// parent local spans under a span that lives elsewhere (or that has
// already finished, as with async jobs outliving their request).
type SpanContext struct {
	TraceID string
	SpanID  string // "" for a trace with no parent span yet
}

// ContextWithRemote installs a remote parent: spans started from the
// returned context join sc.TraceID as children of sc.SpanID.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, remoteCtxKey{}, sc)
}

// RemoteFrom returns the remote parent installed on ctx, if any.
func RemoteFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(remoteCtxKey{}).(SpanContext)
	return sc, ok
}

// SpanFrom returns the active span on ctx (nil outside a traced call
// path — every ActiveSpan method tolerates that).
func SpanFrom(ctx context.Context) *ActiveSpan {
	s, _ := ctx.Value(spanCtxKey{}).(*ActiveSpan)
	return s
}

// parentOf names the span that spans started from ctx parent under:
// the active local span first, else a remote SpanContext. ok is false
// when ctx carries no trace to join.
func parentOf(ctx context.Context) (traceID, parentID string, ok bool) {
	if p := SpanFrom(ctx); p != nil {
		return p.rec.traceID, p.rec.spanID, true
	}
	if rc, found := RemoteFrom(ctx); found && rc.TraceID != "" {
		return rc.TraceID, rc.SpanID, true
	}
	return "", "", false
}

// Detach carries src's span identity into dst as a remote parent, for
// work that outlives the request that spawned it (async jobs run under
// the server's base context but must still parent under the submitting
// request's span).
func Detach(dst, src context.Context) context.Context {
	if sp := SpanFrom(src); sp != nil {
		return ContextWithRemote(dst, SpanContext{TraceID: sp.rec.traceID, SpanID: sp.rec.spanID})
	}
	if sc, ok := RemoteFrom(src); ok {
		return ContextWithRemote(dst, sc)
	}
	return dst
}

// StartSpan starts a child of the active span on ctx, inheriting its
// service and ring. Returns (ctx, nil) when there is no active span —
// deep layers (the trace store) can call it unconditionally without
// holding a Spanner.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	parent := SpanFrom(ctx)
	if parent == nil || parent.ring == nil {
		return ctx, nil
	}
	return start(ctx, parent.ring, parent.rec.service, parent.rec.traceID, parent.rec.spanID, name)
}

// --- Spanner: the per-process span starter ---

// Spanner starts spans for one service into one ring. A nil *Spanner
// starts nil spans, so tracing can be threaded through a layer and
// switched off by never wiring a Spanner in.
type Spanner struct {
	service string
	ring    *SpanRing
}

// NewSpanner builds a spanner recording into ring under the given
// service name.
func NewSpanner(service string, ring *SpanRing) *Spanner {
	return &Spanner{service: service, ring: ring}
}

// Service returns the spanner's service label ("" on nil).
func (sp *Spanner) Service() string {
	if sp == nil {
		return ""
	}
	return sp.service
}

// Start opens a span as a child of whatever parent ctx carries: the
// active local span first, else a remote SpanContext. With neither
// there is no trace to join and Start returns (ctx, nil).
func (sp *Spanner) Start(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if sp == nil {
		return ctx, nil
	}
	traceID, parentID, ok := parentOf(ctx)
	if !ok {
		return ctx, nil
	}
	return start(ctx, sp.ring, sp.service, traceID, parentID, name)
}

// StartRemote opens a span in trace traceID under a (possibly empty)
// remote parent span ID — the middleware entry point, where the trace
// ID is the request ID and the parent came in on X-Trace-Parent.
func (sp *Spanner) StartRemote(ctx context.Context, traceID, parentID, name string) (context.Context, *ActiveSpan) {
	if sp == nil || traceID == "" {
		return ctx, nil
	}
	return start(ctx, sp.ring, sp.service, traceID, parentID, name)
}

func start(ctx context.Context, ring *SpanRing, service, traceID, parentID, name string) (context.Context, *ActiveSpan) {
	s := &ActiveSpan{
		rec: spanRecord{
			traceID:  traceID,
			spanID:   NewSpanID(),
			parentID: parentID,
			service:  service,
			name:     name,
			start:    time.Now().UnixNano(),
		},
		ring: ring,
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Event records an instantaneous span (start == end): a point fact like
// a cache-lookup outcome that still belongs in the tree. attrs are
// key/value pairs. It commits the record directly: no open span, no
// context.
func (sp *Spanner) Event(ctx context.Context, name string, attrs ...string) {
	if sp == nil {
		return
	}
	traceID, parentID, ok := parentOf(ctx)
	if !ok {
		return
	}
	now := time.Now().UnixNano()
	rec := spanRecord{
		traceID:  traceID,
		spanID:   NewSpanID(),
		parentID: parentID,
		service:  sp.service,
		name:     name,
		start:    now,
		end:      now,
	}
	if n := len(attrs) / 2; n > 0 {
		rec.attrs = make([]attr, 0, n)
		for i := 0; i+1 < len(attrs); i += 2 {
			rec.attrs = setAttr(rec.attrs, attrs[i], attrs[i+1])
		}
	}
	sp.ring.add(&rec)
}

// --- SpanRing: the bounded collector ---

// DefaultSpanRingCap is the ring capacity NewSpanRing(0) selects.
const DefaultSpanRingCap = 4096

// SpanRing is a bounded, concurrency-safe ring of finished spans: the
// storage behind a process's /debug/spans and its dump files. Commit
// is a mutex plus a copy of the span's record into a preallocated slot
// — cheap enough to leave always-on in the serving layer. A resident
// span costs its slot, its ID and its attribute slice; its Span view is
// built only when the ring is read. Oldest spans drop first.
type SpanRing struct {
	mu      sync.Mutex
	ring    []spanRecord
	head    int
	wrapped bool
	dropped uint64
}

// NewSpanRing returns a ring holding capSpans spans (<= 0 selects
// DefaultSpanRingCap).
func NewSpanRing(capSpans int) *SpanRing {
	if capSpans <= 0 {
		capSpans = DefaultSpanRingCap
	}
	return &SpanRing{ring: make([]spanRecord, capSpans)}
}

func (r *SpanRing) add(rec *spanRecord) {
	r.mu.Lock()
	if r.wrapped {
		r.dropped++
	}
	r.ring[r.head] = *rec
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Len reports how many spans the ring currently holds.
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.ring)
	}
	return r.head
}

// Dropped reports how many spans were overwritten after the ring
// filled.
func (r *SpanRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot builds the views of the resident spans, oldest first.
func (r *SpanRing) Snapshot() []Span {
	return r.filter(func(*spanRecord) bool { return true })
}

// ByTrace builds the views of the resident spans of one trace, oldest
// first.
func (r *SpanRing) ByTrace(traceID string) []Span {
	return r.filter(func(rec *spanRecord) bool { return rec.traceID == traceID })
}

func (r *SpanRing) filter(keep func(*spanRecord) bool) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, 16)
	appendFrom := func(part []spanRecord) {
		for i := range part {
			if keep(&part[i]) {
				out = append(out, part[i].view())
			}
		}
	}
	if r.wrapped {
		appendFrom(r.ring[r.head:])
	}
	appendFrom(r.ring[:r.head])
	return out
}

// SpanDump is the one view of a span ring: the GET /debug/spans wire
// shape on nodes and the gateway (the gateway's collation decodes
// exactly this) and the format of the files WriteDump writes.
type SpanDump struct {
	Service string `json:"service"`
	Spans   []Span `json:"spans"`
	Dropped uint64 `json:"dropped,omitempty"`
}

// Dump snapshots the spanner's ring, oldest span first: every resident
// span, or only those of trace when it is non-empty.
func (sp *Spanner) Dump(trace string) SpanDump {
	d := SpanDump{Service: sp.service, Dropped: sp.ring.Dropped()}
	if trace != "" {
		d.Spans = sp.ring.ByTrace(trace)
	} else {
		d.Spans = sp.ring.Snapshot()
	}
	return d
}

// WriteDump writes the whole ring as indented SpanDump JSON to
// dir/flight-<service>-<tag>.json, overwriting any file of that name,
// and returns the path. dir is created if missing ("" is the working
// directory); <service> is the service name through SanitizeID, or
// "unknown" when SanitizeID rejects it, so a name never escapes dir.
func (sp *Spanner) WriteDump(dir, tag string) (string, error) {
	service := SanitizeID(sp.service)
	if service == "" {
		service = "unknown"
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	b, err := json.MarshalIndent(sp.Dump(""), "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "flight-"+service+"-"+tag+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// --- span trees ---

// SpanNode is one span plus its children in a collated trace tree.
type SpanNode struct {
	Span
	Children []*SpanNode `json:"children,omitempty"`
}

// SpanTree is a collated view of one trace: the GET /v1/trace/{id}
// response body. Connected means the trace forms a single tree — one
// root, every other span's parent present — which is exactly the
// property the cluster tests assert for a failed-over job.
type SpanTree struct {
	TraceID   string      `json:"trace_id"`
	SpanCount int         `json:"span_count"`
	Connected bool        `json:"connected"`
	Services  []string    `json:"services"`
	Roots     []*SpanNode `json:"roots"`
}

// BuildSpanTree assembles the spans of one trace into a tree. Spans
// from other traces are ignored; duplicate span IDs (a collation that
// scraped the same node twice) keep the first occurrence. Orphans —
// spans naming a parent that is not in the set — surface as extra
// roots, turning Connected off.
func BuildSpanTree(traceID string, spans []Span) *SpanTree {
	t := &SpanTree{TraceID: traceID}
	nodes := make(map[string]*SpanNode)
	var order []*SpanNode
	for i := range spans {
		s := spans[i]
		if s.TraceID != traceID || s.SpanID == "" {
			continue
		}
		if _, dup := nodes[s.SpanID]; dup {
			continue
		}
		n := &SpanNode{Span: s}
		nodes[s.SpanID] = n
		order = append(order, n)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if !order[i].Start.Equal(order[j].Start) {
			return order[i].Start.Before(order[j].Start)
		}
		return order[i].SpanID < order[j].SpanID
	})
	seen := map[string]bool{}
	for _, n := range order {
		if parent, ok := nodes[n.ParentID]; ok && n.ParentID != "" {
			parent.Children = append(parent.Children, n)
		} else {
			t.Roots = append(t.Roots, n)
		}
		if !seen[n.Service] {
			seen[n.Service] = true
			t.Services = append(t.Services, n.Service)
		}
	}
	sort.Strings(t.Services)
	t.SpanCount = len(order)
	t.Connected = len(order) > 0 && len(t.Roots) == 1
	return t
}

// Walk visits every node of the tree, parents before children.
func (t *SpanTree) Walk(visit func(*SpanNode)) {
	var rec func(n *SpanNode)
	rec = func(n *SpanNode) {
		visit(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, r := range t.Roots {
		rec(r)
	}
}
