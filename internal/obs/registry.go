// Package obs is the repo's dependency-free observability substrate: a
// process-global metrics registry (atomic counters and fixed-bucket latency
// histograms with Prometheus text exposition; gauges are written at scrape
// time through a TextWriter) and a lightweight
// per-request span tracer that piggybacks on the context.Context plumbing
// introduced with the query lifecycle governor.
//
// Design constraints, in order:
//
//  1. Zero third-party dependencies — everything here is stdlib.
//  2. Hot-path cost is a handful of atomic operations. Metrics are declared
//     once as package-level vars in the instrumented packages and bumped
//     lock-free; exposition takes no locks on the write path.
//  3. Names follow the `bdi_<subsystem>_<name>_<unit>` convention, enforced
//     by a guard test that walks the registry (see TestMetricNameConvention).
//
// Subsystems with pre-existing per-instance statistics (the rewrite cache,
// the WAL manager, replication) are not duplicated here: the mdm /metrics
// handler renders those with a TextWriter next to the registry exposition.
// The registry owns process-wide hot-path series only.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attaches a fixed label set to one TextWriter sample.
type Labels map[string]string

// metricKind discriminates the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is a programming error and is ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// defBuckets is the latency bucket layout of every histogram, ascending
// upper bounds: wide enough to straddle a 0.5ms store probe and a
// multi-second 100k-row OMQ answer.
var defBuckets = [...]time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Observations are a bucket
// scan over at most len(defBuckets) comparisons plus three atomic adds.
type Histogram struct {
	counts [len(defBuckets) + 1]atomic.Int64 // the last is the +Inf bucket
	sumNs  atomic.Int64
	count  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(defBuckets) && d > defBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// metric is one registered, unlabelled series.
type metric interface {
	// writeSeries emits the series' sample lines under the family name.
	writeSeries(w io.Writer, name string)
}

func (c *Counter) writeSeries(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}

func (h *Histogram) writeSeries(w io.Writer, name string) {
	cum := int64(0)
	for i, ub := range defBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(ub.Seconds()), cum)
	}
	cum += h.counts[len(defBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.sumNs.Load())/1e9))
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// family is one metric name and its single series.
type family struct {
	name string
	help string
	kind metricKind
	m    metric
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is expected at package-init or
// server-construction time; registering a name twice panics so the mistake
// is caught by the first test that imports the package.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-global registry used by the package-level
// constructors; the mdm /metrics endpoint exposes it.
var Default = NewRegistry()

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewHistogram registers a histogram with defBuckets on the Default registry.
func NewHistogram(name, help string) *Histogram { return Default.NewHistogram(name, help) }

// NewCounter registers an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, c)
	return c
}

// NewHistogram registers an unlabelled histogram with defBuckets.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(name, help, kindHistogram, h)
	return h
}

// register adds one family, panicking when the name is already registered.
func (r *Registry) register(name, help string, kind metricKind, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: duplicate registration of %s", name))
	}
	r.families[name] = &family{name: name, help: help, kind: kind, m: m}
}

// Names returns the registered family names, sorted. The metric-name
// convention guard test iterates this.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.families))
	for n := range r.families {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WritePrometheus renders every family in text exposition format, sorted by
// family name for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		f.m.writeSeries(w, f.name)
	}
}

// renderLabels renders a label set as `k="v",k2="v2"` with sorted keys.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + `="` + escapeLabel(labels[k]) + `"`
	}
	return strings.Join(parts, ",")
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// braced wraps a rendered label body in braces, or returns "" when empty.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// TextWriter emits ad-hoc exposition series for values that live outside the
// registry — per-server statistics a handler mirrors at scrape time (rewrite
// cache stats, WAL manager stats, replication status). HELP/TYPE headers are
// emitted once per family; calls for the same family must be consecutive.
type TextWriter struct {
	w     io.Writer
	typed map[string]bool
}

// NewTextWriter returns a TextWriter over w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: w, typed: map[string]bool{}}
}

func (t *TextWriter) header(name, help string, kind metricKind) {
	if t.typed[name] {
		return
	}
	t.typed[name] = true
	fmt.Fprintf(t.w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(t.w, "# TYPE %s %s\n", name, kind)
}

// Counter writes one counter sample.
func (t *TextWriter) Counter(name, help string, labels Labels, v int64) {
	t.header(name, help, kindCounter)
	fmt.Fprintf(t.w, "%s%s %d\n", name, braced(renderLabels(labels)), v)
}

// Gauge writes one integer gauge sample.
func (t *TextWriter) Gauge(name, help string, labels Labels, v int64) {
	t.header(name, help, kindGauge)
	fmt.Fprintf(t.w, "%s%s %d\n", name, braced(renderLabels(labels)), v)
}
