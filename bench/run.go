package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bdi/internal/obs"
	"bdi/internal/relational"
	"bdi/internal/rewriting"
)

// options is one invocation of one workload.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	scaleName string
	scale     scale
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host says where and on what a result was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GitSHA     string `json:"git_sha"`
	SyncPolicy string `json:"wal_sync"`
	Clients    int    `json:"clients"`
	Scale      string `json:"scale"`
	Seconds    int    `json:"seconds"`
}

// result is one run of one workload. With trace unset Metrics holds every
// end-to-end metric, with trace set every per-layer metric.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	Samples   int      `json:"latency_samples"`
	// StealPct is the share of the host's CPU time that the hypervisor
	// gave to other guests while the process ran. Timings of a run with
	// more than a percent or two of it are the neighbours', not the
	// program's.
	StealPct float64                `json:"cpu_steal_pct"`
	Metrics  map[string]metricValue `json:"metrics"`
	Host     host                   `json:"host"`

	spans *spanReport
}

func hostInfo(opt options) host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		GitSHA:     "unknown",
		SyncPolicy: string(syncPolicy),
		Clients:    clients,
		Scale:      opt.scaleName,
		Seconds:    opt.seconds,
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the SHA is recorded
	// where there is one.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	return h
}

// procStat returns the steal column and the sum of all columns of the
// aggregate cpu line of /proc/stat, in clock ticks; zeros where there is no
// such file.
func procStat() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if i == 0 || i > 8 || err != nil {
			continue // the label, and guest time already counted in user
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

var stealAtStart, ticksAtStart = procStat()

// stealPct is the share of CPU time stolen since the process started.
func stealPct() float64 {
	steal, ticks := procStat()
	return 100 * ratio(steal-stealAtStart, ticks-ticksAtStart)
}

// measures collects a run's numbers by metric name.
type measures map[string]float64

// finish turns the measurements into a result holding exactly the metrics
// of specs, in their units.
func finish(opt options, tl *tally, samples int, m measures, specs []metricSpec, spans *spanReport) *result {
	r := &result{
		Workload:  opt.workload,
		Seed:      opt.seed,
		Trace:     opt.trace,
		Correct:   tl.failed == 0 && tl.attempted > 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Failures:  tl.messages,
		Samples:   samples,
		Metrics:   make(map[string]metricValue, len(specs)),
		StealPct:  stealPct(),
		Host:      hostInfo(opt),
		spans:     spans,
	}
	for _, s := range specs {
		r.Metrics[s.Name] = metricValue{Value: m[s.Name], Unit: s.Unit}
	}
	return r
}

// runWorkload runs one workload once.
func runWorkload(opt options) (*result, error) {
	if w, ok := readWorkloads[opt.workload]; ok {
		return runRead(w, opt)
	}
	if opt.workload == wlEvolve {
		return runEvolve(opt)
	}
	return nil, fmt.Errorf("unknown workload %q", opt.workload)
}

// setUp builds the system under test the scale's number of times (once for
// a traced run, which reports no set-up time) and keeps the last. Each
// set-up runs from building the ontology to the end of the warm-up, which
// is a fixed number of requests, so that work a change moves into lazy
// initialisation still lands in setup_s.
func setUp[T any](opt options, build func(rng *rand.Rand) (*system, T, error), warm func(*system, T)) (sys *system, state T, medianSeconds float64, err error) {
	n := opt.scale.setups
	if opt.trace {
		n = 1
	}
	var took []float64
	for range n {
		if sys != nil {
			sys.discard()
			runtime.GC()
		}
		start := time.Now()
		sys, state, err = build(rand.New(rand.NewSource(opt.seed)))
		if err != nil {
			return nil, state, 0, err
		}
		warm(sys, state)
		took = append(took, time.Since(start).Seconds())
	}
	return sys, state, median(took), nil
}

// window is the length of the timed window of a read workload.
func (opt options) window() time.Duration {
	if opt.scale.window > 0 {
		return opt.scale.window
	}
	return time.Duration(opt.seconds) * time.Second
}

func runRead(w readWorkload, opt options) (*result, error) {
	tl := &tally{}
	request := func(p *poster, q *query, full bool) (time.Duration, error) {
		status, reply, d, err := p.post(w.path, q.body)
		if err != nil {
			return d, err
		}
		walks, err := w.check(q, status, reply, full)
		if err == nil && walks != q.walks {
			err = fmt.Errorf("%s: %d walks, want %d", w.name, walks, q.walks)
		}
		if err == nil && q.length == 0 && full {
			q.length = len(reply)
		}
		return d, err
	}
	warm := func(sys *system, queries []query) {
		// One client makes the first pass: it checks every reply in full
		// and records its length, which the concurrent clients then only
		// read.
		first := &poster{sys: sys}
		for i := range queries {
			_, err := request(first, &queries[i], true)
			tl.check(err)
		}
		closedLoop(sys, clients, cursor(time.Time{}, opt.scale.warmup-len(queries)), func(p *poster, i int) (time.Duration, bool) {
			d, err := request(p, &queries[i%len(queries)], true)
			tl.check(err)
			return d, false
		})
	}
	sys, queries, setupSeconds, err := setUp(opt, func(rng *rand.Rand) (*system, []query, error) { return w.setup(opt.scale, rng) }, warm)
	if err != nil {
		return nil, err
	}
	defer sys.discard()

	before, err := sys.readCounters()
	if err != nil {
		return nil, err
	}
	sampler := startMemSampler()
	latencies, elapsed := closedLoop(sys, clients, cursor(time.Now().Add(opt.window()), 0), func(p *poster, i int) (time.Duration, bool) {
		d, err := request(p, &queries[i%len(queries)], i%fullCheckEvery == 0)
		tl.check(err)
		return d, err == nil
	})
	retainedMB, heapPeakMB := sampler.finish()
	after, err := sys.readCounters()
	if err != nil {
		return nil, err
	}

	m := measures{
		"request_p50_ms": percentile(latencies, 0.50),
		"request_p95_ms": percentile(latencies, 0.95),
		"request_rps":    float64(len(latencies)) / elapsed.Seconds(),
		"setup_s":        setupSeconds,
		"mem_mb":         retainedMB,
	}
	if !opt.trace {
		return finish(opt, tl, len(latencies), m, endToEndSpecs, nil), nil
	}

	ops := float64(len(latencies))
	windowLayers(m, before, after, ops, heapPeakMB)
	m["mdm.request_p99_ms"] = percentile(latencies, 0.99)
	m["rewriting.walks_per_query"] = float64(queries[0].walks)
	if w.path == answerPath {
		answerLayers(m, before, after, ops)
		m["mdm.answer_p50_ms"], m["mdm.answer_p95_ms"], m["mdm.answer_rps"] = m["request_p50_ms"], m["request_p95_ms"], m["request_rps"]
	} else {
		evals := delta(before, after, "bdi_sparql_eval_seconds_count")
		m["sparql.evals_per_rewrite"] = ratio(evals, ops)
		m["sparql.rows_per_eval"] = ratio(delta(before, after, "bdi_sparql_eval_rows_total"), evals)
		m["store.matches_per_rewrite"] = ratio(delta(before, after, "bdi_store_matches_total"), ops)
	}
	spans, err := tracedReads(m, sys, w, sampleOf(queries, w.sample(opt.scale), opt.seed), tl)
	if err != nil {
		return nil, err
	}
	return finish(opt, tl, len(latencies), m, perLayerSpecs, spans.report(w.name)), nil
}

// windowLayers fills in the layer metrics every workload reads off the two
// sides of its timed window.
func windowLayers(m measures, before, after counters, ops, heapPeakMB float64) {
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	unitHits := float64(after.cache.UnitHits - before.cache.UnitHits)
	unitMisses := float64(after.cache.UnitMisses - before.cache.UnitMisses)
	retained := float64(after.cache.EntriesRetained - before.cache.EntriesRetained)
	invalidated := float64(after.cache.EntriesInvalidated - before.cache.EntriesInvalidated)
	m["rewriting.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["rewriting.unit_hit_ratio"] = ratio(unitHits, unitHits+unitMisses)
	m["rewriting.entries_retained_ratio"] = ratio(retained, retained+invalidated)
	m["rewriting.unit_build_ms_total"] = 1000 * delta(before, after, "bdi_rewrite_unit_build_seconds_sum")
	m["runtime.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU)
	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["runtime.alloc_kb_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, ops)
	m["runtime.heap_peak_mb"] = heapPeakMB
}

// answerLayers fills in the per-answer counts of the walk engine and the
// wrappers from /metrics.
func answerLayers(m measures, before, after counters, answers float64) {
	m["relational.rows_per_answer"] = ratio(delta(before, after, "bdi_walk_rows_total"), answers)
	m["relational.walks_per_answer"] = ratio(delta(before, after, "bdi_walk_executions_total"), answers)
	m["wrapper.fetches_per_answer"] = ratio(delta(before, after, "bdi_wrapper_fetches_total"), answers)
	m["wrapper.rows_per_answer"] = ratio(delta(before, after, "bdi_wrapper_rows_total"), answers)
}

// sampleOf picks the n requests of a traced pass: a seeded choice without
// repetition while the query set lasts.
func sampleOf(queries []query, n int, seed int64) []*query {
	perm := rand.New(rand.NewSource(seed)).Perm(len(queries))
	out := make([]*query, n)
	for i := range out {
		out[i] = &queries[perm[i%len(perm)]]
	}
	return out
}

// tracedReads replays the sample single-client three ways: over HTTP,
// staged in process under a trace, and staged without one. It then times
// the public functions of the rewriting and relational layers that the
// program does not yet span.
func tracedReads(m measures, sys *system, w readWorkload, sample []*query, tl *tally) (*spanAgg, error) {
	answers := w.path == answerPath
	p := &poster{sys: sys}
	var httpMs []float64
	for _, q := range sample {
		status, reply, d, err := p.post(w.path, q.body)
		if err == nil {
			_, err = w.check(q, status, reply, true)
		}
		tl.check(err)
		httpMs = append(httpMs, ms(d))
	}

	// Each staged pass has a stager, and so a cache, of its own: on a miss
	// workload the second pass must miss like the first.
	staged := func(traced bool) (*spanAgg, []float64, float64, float64, error) {
		st := newStager(sys)
		if w.hits {
			for _, q := range sample {
				if _, err := st.cache.Rewrite(mustOMQ(q.sparql)); err != nil {
					return nil, nil, 0, 0, err
				}
			}
		}
		agg := newSpanAgg()
		var took []float64
		var written, alloc float64
		for _, q := range sample {
			ctx, out := context.Background(), &countingWriter{}
			var tr *obs.Trace
			if traced {
				tr = obs.NewTrace("staged POST " + w.path)
				ctx = obs.WithTrace(ctx, tr)
			}
			start := time.Now()
			var err error
			if answers {
				var a uint64
				a, err = st.answer(ctx, q.sparql, out, !traced)
				alloc += float64(a)
			} else {
				err = st.rewrite(ctx, q.sparql, out)
			}
			took = append(took, ms(time.Since(start)))
			if err != nil {
				return nil, nil, 0, 0, fmt.Errorf("staged %s: %w", w.path, err)
			}
			if traced {
				tr.Finish()
				agg.add(tr)
			}
			written += float64(out.n)
		}
		n := float64(len(sample))
		return agg, took, written / n, alloc / n, nil
	}
	agg, tracedMs, replyBytes, _, err := staged(true)
	if err != nil {
		return nil, err
	}
	_, untracedMs, _, allocBytes, err := staged(false)
	if err != nil {
		return nil, err
	}

	m["mdm.http_overhead_ms"] = median(httpMs) - median(tracedMs)
	m["obs.trace_overhead_pct"] = 100 * ratio(median(tracedMs)-median(untracedMs), median(untracedMs))
	m["mdm.encode_ms"] = agg.perRequest(stageEncode)
	m["mdm.response_kb"] = replyBytes / 1024
	m["sparql.parse_us"] = 1000 * agg.perRequest(stageParse)
	m["sparql.eval_ms_per_rewrite"] = agg.selfPerRequest(spanSPARQLEval)
	if w.hits {
		m["rewriting.hit_us"] = 1000 * agg.perRequest(stageRewrite)
	}
	if answers {
		m["relational.exec_ms"] = agg.perRequest(stageExec)
		m["relational.walk_self_ms"] = agg.selfPerRequest(spanWalk)
		m["relational.union_self_ms"] = agg.selfPerRequest(spanUnion)
		m["relational.sort_ms"] = agg.perRequest(stageSort)
		m["relational.alloc_mb_per_answer"] = allocBytes / (1 << 20)
		m["wrapper.fetch_ms"] = agg.perRequest(spanFetch)
	}
	if err := rewritingPhases(m, sys, sample); err != nil {
		return nil, err
	}
	if answers {
		if err := relationalSteps(m, sys, sample); err != nil {
			return nil, err
		}
	}
	return agg, nil
}

func mustOMQ(sparql string) *rewriting.OMQ {
	omq, err := rewriting.ParseOMQ(sparql)
	if err != nil {
		panic(err) // the oracle parsed the same text at set-up
	}
	return omq
}

// rewritingPhases times a cold rewrite and Algorithms 2 to 5 one by one
// through their public functions, without any cache.
func rewritingPhases(m measures, sys *system, sample []*query) error {
	o, r := sys.ontology, rewriting.NewRewriter(sys.ontology)
	var cold, wellFormed, expand, intra, inter []float64
	for _, q := range sample {
		omq := mustOMQ(q.sparql)
		d, err := timed(func() error { _, err := r.RewriteContext(context.Background(), omq); return err })
		if err != nil {
			return err
		}
		cold = append(cold, ms(d))

		var wf *rewriting.OMQ
		var eq *rewriting.ExpandedQuery
		var partials []rewriting.PartialWalks
		d, err = timed(func() (err error) { wf, err = rewriting.WellFormedQuery(o, omq); return err })
		if err != nil {
			return err
		}
		wellFormed = append(wellFormed, us(d))
		d, err = timed(func() (err error) { eq, err = rewriting.QueryExpansion(o, wf); return err })
		if err != nil {
			return err
		}
		expand = append(expand, us(d))
		d, err = timed(func() (err error) { partials, err = rewriting.IntraConceptGeneration(o, eq); return err })
		if err != nil {
			return err
		}
		intra = append(intra, us(d))
		d, err = timed(func() error {
			_, err := rewriting.InterConceptGenerationContext(context.Background(), o, eq, partials)
			return err
		})
		if err != nil {
			return err
		}
		inter = append(inter, us(d))
	}
	m["rewriting.cold_ms"] = median(cold)
	m["rewriting.wellformed_us"] = median(wellFormed)
	m["rewriting.expand_us"] = median(expand)
	m["rewriting.intra_us"] = median(intra)
	m["rewriting.inter_us"] = median(inter)
	return nil
}

// relationalSteps sizes what the walk span hides: encoding the fetched
// wrapper relations into columns and decoding an answer back into tuples.
func relationalSteps(m measures, sys *system, sample []*query) error {
	st := newStager(sys)
	var ingest, decode []float64
	for _, q := range sample {
		res, err := st.cache.Rewrite(mustOMQ(q.sparql))
		if err != nil {
			return err
		}
		fetched := map[string]*relational.Relation{}
		for _, walk := range res.UCQ.Walks {
			for _, name := range walk.WrapperNames() {
				if fetched[name] == nil {
					if fetched[name], err = st.resolver.FetchContext(context.Background(), name); err != nil {
						return err
					}
				}
			}
		}
		dict := relational.NewValueDict()
		d, _ := timed(func() error {
			for _, rel := range fetched {
				relational.IngestRelation(rel, dict)
			}
			return nil
		})
		ingest = append(ingest, ms(d))

		answer, err := st.rewriter.ExecuteResultLimit(context.Background(), res, st.resolver, 0)
		if err != nil {
			return err
		}
		dict = relational.NewValueDict()
		col := relational.IngestRelation(answer, dict)
		d, _ = timed(func() error { col.Decode(dict); return nil })
		decode = append(decode, ms(d))
	}
	m["relational.ingest_ms"] = median(ingest)
	m["relational.decode_ms"] = median(decode)
	return nil
}
