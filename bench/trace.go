package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"bdi/internal/mdm"
	"bdi/internal/obs"
	"bdi/internal/relational"
	"bdi/internal/rewriting"
	"bdi/internal/wrapper"
)

// The traced pass replays a fixed sample of requests after the timed
// window, in process and stage by stage: the benchmark opens a span around
// each call into a layer, and the spans the program already records nest
// beneath them. Nothing here runs while end-to-end metrics are measured.

// Stage spans, opened by the benchmark around the handler's steps.
const (
	stageParse   = "stage.parse"   // rewriting.ParseOMQ
	stageRewrite = "stage.rewrite" // rewriting.Cache.RewriteContext
	stageExec    = "stage.exec"    // rewriting.Rewriter.ExecuteResultLimit
	stageSort    = "stage.sort"    // relational.Relation.Sorted
	stageEncode  = "stage.encode"  // response build + json.Encode
)

// Spans the program records itself.
const (
	spanSPARQLEval = "sparql.eval"
	spanUnion      = "eval"
	spanWalk       = "walk"
	spanFetch      = "wrapper.fetch"
)

// spanStat sums the spans of one name over the traced pass.
type spanStat struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalMs  float64 `json:"total_ms"`
	SelfMs   float64 `json:"self_ms"`
	SharePct float64 `json:"share_pct"`
}

// spanReport is what <out>.trace.json holds. A span's self time is its
// duration minus the part of it its children cover, so the self times of
// one request add up to the time some span was the innermost one: the
// request's wall time when it runs on one goroutine, more when walks run in
// parallel. Shares are of SelfSumMs and sum to 100.
type spanReport struct {
	Workload      string              `json:"workload"`
	Requests      int                 `json:"requests"`
	StagedTotalMs float64             `json:"staged_total_ms"` // wall time of the traced requests
	SelfSumMs     float64             `json:"self_sum_ms"`
	Table         []spanStat          `json:"table"`
	Traces        []obs.TraceSnapshot `json:"traces"` // the first few requests, span by span
}

// spanAgg accumulates finished traces in memory.
type spanAgg struct {
	stats    map[string]*spanStat
	requests int
	total    time.Duration
	keep     []obs.TraceSnapshot
}

func newSpanAgg() *spanAgg { return &spanAgg{stats: map[string]*spanStat{}} }

// keptTraces bounds the span-by-span part of the trace file.
const keptTraces = 8

func (a *spanAgg) add(t *obs.Trace) {
	snap := t.Snapshot()
	a.requests++
	a.total += snap.Spans[0].Duration
	if len(a.keep) < keptTraces {
		a.keep = append(a.keep, snap)
	}
	children := make([][]int, len(snap.Spans))
	for i, sp := range snap.Spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	for i, sp := range snap.Spans {
		st := a.stats[sp.Name]
		if st == nil {
			st = &spanStat{Name: sp.Name}
			a.stats[sp.Name] = st
		}
		st.Count++
		st.TotalMs += ms(sp.Duration)
		st.SelfMs += ms(sp.Duration - covered(snap.Spans, sp, children[i]))
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent: parallel walks overlap and must not be counted twice.
func covered(spans []obs.Span, parent obs.Span, kids []int) time.Duration {
	type interval struct{ from, to time.Duration }
	iv := make([]interval, 0, len(kids))
	for _, k := range kids {
		from, to := spans[k].Start, spans[k].Start+spans[k].Duration
		from, to = max(from, parent.Start), min(to, parent.Start+parent.Duration)
		if to > from {
			iv = append(iv, interval{from, to})
		}
	}
	slices.SortFunc(iv, func(a, b interval) int { return int(a.from - b.from) })
	var sum, end time.Duration
	for _, x := range iv {
		if x.from > end {
			sum += x.to - x.from
			end = x.to
		} else if x.to > end {
			sum += x.to - end
			end = x.to
		}
	}
	return sum
}

// perRequest is the mean time per traced request spent in spans of the
// name, children included.
func (a *spanAgg) perRequest(name string) float64 {
	if st := a.stats[name]; st != nil {
		return ratio(st.TotalMs, float64(a.requests))
	}
	return 0
}

// selfPerRequest is perRequest with the children's time taken out.
func (a *spanAgg) selfPerRequest(name string) float64 {
	if st := a.stats[name]; st != nil {
		return ratio(st.SelfMs, float64(a.requests))
	}
	return 0
}

func (a *spanAgg) report(workload string) *spanReport {
	r := &spanReport{Workload: workload, Requests: a.requests, StagedTotalMs: ms(a.total), Traces: a.keep}
	for _, st := range a.stats {
		r.SelfSumMs += st.SelfMs
	}
	for _, st := range a.stats {
		st.SharePct = 100 * ratio(st.SelfMs, r.SelfSumMs)
		r.Table = append(r.Table, *st)
	}
	sort.Slice(r.Table, func(i, j int) bool { return r.Table[i].SelfMs > r.Table[j].SelfMs })
	return r
}

func (r *spanReport) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// stager answers requests the way the handlers do, one public call per
// stage, on the measured system's ontology and registry but with a cache
// and a rewriter of its own.
type stager struct {
	rewriter *rewriting.Rewriter
	cache    *rewriting.Cache
	resolver *wrapper.Qualified
}

func newStager(sys *system) *stager {
	r := rewriting.NewRewriter(sys.ontology)
	return &stager{rewriter: r, cache: rewriting.NewCache(r), resolver: wrapper.NewQualifiedResolver(sys.registry)}
}

// stage runs f under a span of the given name.
func stage(ctx context.Context, name string, f func(ctx context.Context) error) error {
	ctx, span := obs.StartSpan(ctx, name)
	defer span.End()
	return f(ctx)
}

// rewriteView is mdm's RewriteResponse built from a result, as the handler
// builds it.
func rewriteView(res *rewriting.Result) mdm.RewriteResponse {
	out := mdm.RewriteResponse{Signatures: res.UCQ.Signatures()}
	for _, walk := range res.UCQ.Walks {
		out.Walks = append(out.Walks, walk.String())
	}
	for _, c := range res.Expanded.Concepts {
		out.Concepts = append(out.Concepts, string(c))
	}
	return out
}

// rewrite is POST /api/queries/rewrite, staged.
func (s *stager) rewrite(ctx context.Context, sparql string, w io.Writer) error {
	var omq *rewriting.OMQ
	var res *rewriting.Result
	err := stage(ctx, stageParse, func(context.Context) (err error) {
		omq, err = rewriting.ParseOMQ(sparql)
		return err
	})
	if err != nil {
		return err
	}
	err = stage(ctx, stageRewrite, func(ctx context.Context) (err error) {
		res, err = s.cache.RewriteContext(ctx, omq)
		return err
	})
	if err != nil {
		return err
	}
	return stage(ctx, stageEncode, func(context.Context) error {
		return json.NewEncoder(w).Encode(rewriteView(res))
	})
}

// answer is POST /api/queries/answer, staged. With measureAlloc it returns
// the bytes the compiled engine allocated, which a single goroutine can
// read off the runtime because nothing else runs during the traced pass;
// reading them stops the world, so the pass whose spans are kept does not.
func (s *stager) answer(ctx context.Context, sparql string, w io.Writer, measureAlloc bool) (execAlloc uint64, err error) {
	var omq *rewriting.OMQ
	var res *rewriting.Result
	var rel *relational.Relation
	var sorted []relational.Tuple
	err = stage(ctx, stageParse, func(context.Context) (err error) {
		omq, err = rewriting.ParseOMQ(sparql)
		return err
	})
	if err != nil {
		return 0, err
	}
	err = stage(ctx, stageRewrite, func(ctx context.Context) (err error) {
		res, err = s.cache.RewriteContext(ctx, omq)
		return err
	})
	if err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&before)
	}
	err = stage(ctx, stageExec, func(ctx context.Context) (err error) {
		rel, err = s.rewriter.ExecuteResultLimit(ctx, res, s.resolver, 0)
		return err
	})
	if err != nil {
		return 0, err
	}
	if measureAlloc {
		runtime.ReadMemStats(&after)
	}
	_ = stage(ctx, stageSort, func(context.Context) error {
		sorted = rel.Sorted()
		return nil
	})
	err = stage(ctx, stageEncode, func(context.Context) error {
		resp := mdm.AnswerResponse{RewriteResponse: rewriteView(res), Columns: rel.Schema.Names()}
		for _, t := range sorted {
			row := map[string]any{}
			for k, v := range t {
				row[k] = v
			}
			resp.Rows = append(resp.Rows, row)
		}
		return json.NewEncoder(w).Encode(resp)
	})
	return after.TotalAlloc - before.TotalAlloc, err
}

// countingWriter discards what is written and counts it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
