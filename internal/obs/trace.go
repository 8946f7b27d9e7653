package obs

import (
	"context"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The tracer mirrors the lifecycle package's context idiom: a *Trace rides
// the request context, instrumented code calls StartSpan which is nil-safe
// and near-free when no trace is attached (one context value lookup), and a
// per-server Tracer ring retains the N slowest finished traces for
// retrieval by ID. Spans are recorded at stage granularity (admit, rewrite,
// rewrite.assemble, eval, one walk per walk, wrapper.fetch) — never per row
// — so the Figure 8 w=4 bar (~9.5ms / 46.5k allocs) keeps its envelope with
// tracing enabled.

// Attr is one key/value annotation on a span. Values are pre-rendered
// strings; use the typed ActiveSpan setters.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage within a trace. Spans form a tree through Parent
// indices into the trace's span slice; index 0 is the root, whose Parent
// is -1.
type Span struct {
	Name     string        `json:"name"`
	Parent   int           `json:"parent"`
	Start    time.Duration `json:"start_ns"`    // offset from trace start
	Duration time.Duration `json:"duration_ns"` // -1 while the span is open
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Trace is the span tree of one request. All span mutation goes through the
// trace mutex. A query's walks run serially on the request's goroutine, so
// its spans are recorded one at a time; the mutex keeps a trace safe for
// code that records spans from a goroutine of its own.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []Span
	total time.Duration // set by Finish; 0 while running
}

// NewTrace starts a trace whose root span carries the given name (by
// convention the request endpoint). The ID is 16 hex characters.
func NewTrace(rootName string) *Trace {
	t := &Trace{
		id:    strconv.FormatUint(rand.Uint64(), 16),
		start: time.Now(),
		spans: make([]Span, 1, 8),
	}
	t.spans[0] = Span{Name: rootName, Parent: -1, Duration: -1}
	tracesTotal.Inc()
	return t
}

// ID returns the trace identifier.
func (t *Trace) ID() string { return t.id }

// Duration returns the finished trace's total duration (0 while running).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// startSpan appends an open span and returns its index.
func (t *Trace) startSpan(parent int, name string) int {
	off := time.Since(t.start)
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: off, Duration: -1})
	t.mu.Unlock()
	spansTotal.Inc()
	return idx
}

// endSpan closes the span at idx; double-End is a no-op.
func (t *Trace) endSpan(idx int) {
	off := time.Since(t.start)
	t.mu.Lock()
	if sp := &t.spans[idx]; sp.Duration < 0 {
		sp.Duration = off - sp.Start
	}
	t.mu.Unlock()
}

// Finish closes the root span and freezes the total duration. It returns
// the total so callers can feed slow-query accounting from the same clock.
func (t *Trace) Finish() time.Duration {
	off := time.Since(t.start)
	t.mu.Lock()
	if sp := &t.spans[0]; sp.Duration < 0 {
		sp.Duration = off
	}
	if t.total == 0 {
		t.total = t.spans[0].Duration
	}
	d := t.total
	t.mu.Unlock()
	return d
}

// TraceSnapshot is an exported copy of a trace for JSON rendering.
type TraceSnapshot struct {
	ID         string    `json:"id"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Root       string    `json:"root"`
	Spans      []Span    `json:"spans"`
}

// Snapshot copies the trace under its lock. Open spans keep Duration -1.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	for i := range spans {
		spans[i].Attrs = append([]Attr(nil), spans[i].Attrs...)
	}
	return TraceSnapshot{
		ID:         t.id,
		Start:      t.start,
		DurationMs: float64(t.total) / 1e6,
		Root:       spans[0].Name,
		Spans:      spans,
	}
}

// ActiveSpan is a handle over one open span; the zero-value-adjacent nil
// handle is valid and every method on it is a no-op, so instrumented code
// never branches on whether tracing is on.
type ActiveSpan struct {
	trace *Trace
	idx   int
}

// End closes the span.
func (s *ActiveSpan) End() {
	if s != nil {
		s.trace.endSpan(s.idx)
	}
}

// SetAttr annotates the span with a string value.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	sp := &t.spans[s.idx]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
	t.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *ActiveSpan) SetAttrInt(key string, value int64) {
	if s != nil {
		s.SetAttr(key, strconv.FormatInt(value, 10))
	}
}

// spanCtxKey carries the innermost *ActiveSpan (and through it the trace).
type spanCtxKey struct{}

// WithTrace attaches a trace's root span to the context; child spans started
// from the returned context nest under the root.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, &ActiveSpan{trace: t, idx: 0})
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if s, ok := ctx.Value(spanCtxKey{}).(*ActiveSpan); ok {
		return s.trace
	}
	return nil
}

// TraceID returns the attached trace's ID, or "".
func TraceID(ctx context.Context) string {
	if t := TraceFrom(ctx); t != nil {
		return t.id
	}
	return ""
}

// StartSpan opens a child of the context's innermost span. When no trace is
// attached it returns ctx unchanged and a nil handle — the instrumented
// call sites pay one context lookup and nothing else.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	parent, ok := ctx.Value(spanCtxKey{}).(*ActiveSpan)
	if !ok {
		return ctx, nil
	}
	s := &ActiveSpan{trace: parent.trace, idx: parent.trace.startSpan(parent.idx, name)}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Tracer retains the N slowest finished traces in a ring with lookup by ID.
// Each server role (primary, replica) owns one.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	traces []*Trace
	byID   map[string]*Trace
}

// DefaultTraceRetention is the slow-trace ring size.
const DefaultTraceRetention = 64

// NewTracer returns a tracer retaining the capacity slowest traces.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceRetention
	}
	return &Tracer{cap: capacity, byID: map[string]*Trace{}}
}

// Offer records a finished trace, evicting the fastest retained trace when
// the ring is full and the newcomer is slower.
func (tr *Tracer) Offer(t *Trace) {
	if t == nil {
		return
	}
	d := t.Duration()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.traces) < tr.cap {
		tr.traces = append(tr.traces, t)
		tr.byID[t.id] = t
		return
	}
	min := 0
	for i, x := range tr.traces {
		if x.Duration() < tr.traces[min].Duration() {
			min = i
		}
	}
	if tr.traces[min].Duration() >= d {
		return
	}
	delete(tr.byID, tr.traces[min].id)
	tr.traces[min] = t
	tr.byID[t.id] = t
}

// Get returns the retained trace with the given ID.
func (tr *Tracer) Get(id string) (*Trace, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, ok := tr.byID[id]
	return t, ok
}

// Slowest returns snapshots of the retained traces, slowest first.
func (tr *Tracer) Slowest() []TraceSnapshot {
	tr.mu.Lock()
	traces := append([]*Trace(nil), tr.traces...)
	tr.mu.Unlock()
	sort.Slice(traces, func(i, j int) bool { return traces[i].Duration() > traces[j].Duration() })
	out := make([]TraceSnapshot, len(traces))
	for i, t := range traces {
		out[i] = t.Snapshot()
	}
	return out
}

// Tracer self-metrics: exercised by the -race hammer and cheap enough to
// keep on unconditionally.
var (
	tracesTotal = NewCounter("bdi_obs_traces_total",
		"Traces started (one per governed request when tracing is attached).")
	spansTotal = NewCounter("bdi_obs_spans_total",
		"Spans recorded across all traces.")
)
