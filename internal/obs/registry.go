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

// Labels attaches a fixed label set to a series at registration time. Label
// values are baked into the series key once; there is no per-observation
// label handling (and therefore no per-observation allocation).
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

// DefBuckets is the default latency bucket layout, in seconds: wide enough to
// straddle a 0.5ms store probe and a multi-second 100k-row OMQ answer.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations are a bucket
// scan over at most len(buckets) int64 comparisons plus three atomic adds;
// bucket bounds are immutable after registration.
type Histogram struct {
	bounds   []float64 // upper bounds, seconds, ascending (exposition)
	boundsNs []int64   // the same bounds in nanoseconds (comparison)
	counts   []atomic.Int64
	sumNs    atomic.Int64
	count    atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	for i, ub := range h.boundsNs {
		if ns <= ub {
			h.counts[i].Add(1)
			h.sumNs.Add(ns)
			h.count.Add(1)
			return
		}
	}
	h.counts[len(h.boundsNs)].Add(1) // +Inf bucket
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// metric is one registered series.
type metric interface {
	// writeSeries emits the series' sample lines. name is the family name,
	// labels the pre-rendered label body ("" or `k="v",...` without braces).
	writeSeries(w io.Writer, name, labels string)
}

func (c *Counter) writeSeries(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), c.Value())
}

func (h *Histogram) writeSeries(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="`+formatFloat(ub)+`"`)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="+Inf"`)), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(float64(h.sumNs.Load())/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.count.Load())
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label keys in registration order (sorted rendering)
	series map[string]metric
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is expected at package-init or
// server-construction time; duplicate registration of the same
// (name, labels) series panics so the mistake is caught by the first test
// that imports the package.
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

// NewHistogram registers a histogram with DefBuckets on the Default registry.
func NewHistogram(name, help string) *Histogram { return Default.NewHistogram(name, help) }

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.NewCounterWith(name, help, nil)
}

// NewCounterWith registers a counter series under the given fixed labels.
func (r *Registry) NewCounterWith(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, labels, c)
	return c
}

// NewHistogram registers an unlabeled histogram with DefBuckets.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	return r.NewHistogramBuckets(name, help, DefBuckets)
}

// NewHistogramBuckets registers a histogram with explicit bucket upper
// bounds (seconds, strictly ascending).
func (r *Registry) NewHistogramBuckets(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	h := &Histogram{
		bounds:   append([]float64(nil), buckets...),
		boundsNs: make([]int64, len(buckets)),
		counts:   make([]atomic.Int64, len(buckets)+1),
	}
	for i, b := range h.bounds {
		if i > 0 && b <= h.bounds[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
		h.boundsNs[i] = int64(b * 1e9)
	}
	r.register(name, help, kindHistogram, nil, h)
	return h
}

// register adds one series, panicking on a duplicate or on a family
// redefinition with a different kind or help string.
func (r *Registry) register(name, help string, kind metricKind, labels Labels, m metric) {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]metric{}}
		r.families[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		if f.help != help {
			panic(fmt.Sprintf("obs: metric %s re-registered with different help", name))
		}
	}
	if _, dup := f.series[key]; dup {
		panic(fmt.Sprintf("obs: duplicate registration of %s%s", name, braced(key)))
	}
	f.series[key] = m
	f.order = append(f.order, key)
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
// family name and label key for deterministic scrapes.
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
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, k := range keys {
			f.series[k].writeSeries(w, f.name, k)
		}
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

// joinLabels appends one rendered label pair to a (possibly empty) body.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
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
