package bdi

// Benchmarks regenerating the paper's tables and figures (one benchmark per
// experiment) plus the ablations called out in DESIGN.md. The printed
// per-op times are the raw material for EXPERIMENTS.md; the shapes (growth
// trends, who wins) are the reproduction target, not absolute numbers. Run:
//
//	go test -bench=. -benchmem
//
// cmd/benchrunner prints the same experiments as human-readable tables.

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"bdi/internal/core"
	"bdi/internal/evolution"
	"bdi/internal/gav"
	"bdi/internal/obs"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/rewriting"
	"bdi/internal/sparql"
	"bdi/internal/store"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// --------------------------------------------------------------------------
// Tables 3-5 (E1-E3): functional evaluation of the change taxonomy.
// --------------------------------------------------------------------------

func benchmarkChangeTable(b *testing.B, level evolution.Level) {
	changes := make([]evolution.Change, 0, 64)
	for _, c := range evolution.ByLevel(level) {
		for i := 0; i < 8; i++ {
			changes = append(changes, evolution.Change{Kind: c.Kind, API: "bench"})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := evolution.Summarize(changes)
		if s.Unknown != 0 {
			b.Fatal("unexpected unknown changes")
		}
	}
}

func BenchmarkTable3APILevelClassification(b *testing.B) {
	benchmarkChangeTable(b, evolution.APILevel)
}

func BenchmarkTable4MethodLevelClassification(b *testing.B) {
	benchmarkChangeTable(b, evolution.MethodLevel)
}

func BenchmarkTable5ParameterLevelClassification(b *testing.B) {
	benchmarkChangeTable(b, evolution.ParameterLevel)
}

// --------------------------------------------------------------------------
// Table 6 (E4): industrial applicability over the five API change profiles.
// --------------------------------------------------------------------------

func BenchmarkTable6IndustrialApplicability(b *testing.B) {
	profiles := evolution.Table6Profiles()
	var changes []evolution.Change
	for _, p := range profiles {
		changes = append(changes, evolution.ChangesFromProfile(p)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := evolution.Applicability(profiles)
		if rep.AggregateTotal < 70 || rep.AggregateTotal > 73 {
			b.Fatalf("aggregate total out of range: %f", rep.AggregateTotal)
		}
		s := evolution.Summarize(changes)
		if s.Total != 303 {
			b.Fatalf("total changes = %d", s.Total)
		}
	}
}

// --------------------------------------------------------------------------
// Figure 8 (E5): query answering time in the worst case (5-concept query,
// disjoint wrappers per concept). The sub-benchmarks sweep the number of
// wrappers per concept; walk counts grow as W^5.
// --------------------------------------------------------------------------

func BenchmarkFigure8QueryAnsweringWorstCase(b *testing.B) {
	for _, wrappers := range []int{1, 2, 3, 4} {
		wc, err := workload.BuildWorstCase(5, wrappers)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("wrappersPerConcept=%d", wrappers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				walks, err := wc.Rewrite()
				if err != nil {
					b.Fatal(err)
				}
				if walks != wc.ExpectedWalks() {
					b.Fatalf("walks = %d, want %d", walks, wc.ExpectedWalks())
				}
			}
			b.ReportMetric(float64(wc.ExpectedWalks()), "walks")
		})
	}
}

// BenchmarkFigure8WalkExecution executes the Figure 8 UCQ (the rewriting
// happens once, outside the loop): W^5 walks of 3 rows over 5·W wrappers, so
// the measured cost is per-walk compile, execution and union overhead, not
// row volume. It is the in-process guard of the answer-walks workload.
func BenchmarkFigure8WalkExecution(b *testing.B) {
	for _, wrappers := range []int{1, 2, 3, 4} {
		wc, err := workload.BuildWorstCase(5, wrappers)
		if err != nil {
			b.Fatal(err)
		}
		r := rewriting.NewRewriter(wc.Ontology)
		res, err := r.Rewrite(wc.Query)
		if err != nil {
			b.Fatal(err)
		}
		if res.UCQ.Len() != wc.ExpectedWalks() {
			b.Fatalf("walks = %d, want %d", res.UCQ.Len(), wc.ExpectedWalks())
		}
		resolver := wrapper.NewQualifiedResolver(wc.Registry)
		b.Run(fmt.Sprintf("wrappersPerConcept=%d", wrappers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				answer, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
				if err != nil {
					b.Fatal(err)
				}
				if answer.Cardinality() != 3 {
					b.Fatalf("answer = %d rows, want 3", answer.Cardinality())
				}
			}
			b.ReportMetric(float64(wc.ExpectedWalks()), "walks")
		})
	}
}

// BenchmarkFigure8Parallel runs the worst-case rewriting workload from all
// GOMAXPROCS goroutines against one shared ontology. The store's lock-free
// snapshot reads plus the mutex-guarded (but hit-dominated) generation
// caches should let aggregate throughput scale with cores: compare ns/op
// here (wall time per rewrite across all goroutines) against the
// single-goroutine BenchmarkFigure8QueryAnsweringWorstCase.
func BenchmarkFigure8Parallel(b *testing.B) {
	for _, wrappers := range []int{2, 4} {
		wc, err := workload.BuildWorstCase(5, wrappers)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("wrappersPerConcept=%d", wrappers), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					walks, err := wc.Rewrite()
					if err != nil {
						b.Fatal(err)
					}
					if walks != wc.ExpectedWalks() {
						b.Fatalf("walks = %d, want %d", walks, wc.ExpectedWalks())
					}
				}
			})
		})
	}
}

// BenchmarkFigure8EvolutionChurn measures warm rewrite latency while the
// ontology evolves: each op registers a wrapper release for a concept the
// query never touches, then rewrites the 5-concept worst-case OMQ.
//
//   - mode=cached is the floor: no releases, pure cache hit.
//   - mode=incremental goes through the delta-validating cache: the
//     unrelated release must leave the memoized result valid, so the op
//     should sit within ~2x of the cached floor and >=5x under the full
//     recompute (the acceptance bars of the incremental engine).
//   - mode=fullRecompute is the pre-delta behaviour: any release forces
//     Algorithms 2-5 from scratch.
func BenchmarkFigure8EvolutionChurn(b *testing.B) {
	const concepts, wrappers, side = 5, 4, 3
	build := func(b *testing.B) (*workload.EvolutionChurn, *rewriting.Cache) {
		ec, err := workload.BuildEvolutionChurn(concepts, wrappers, side)
		if err != nil {
			b.Fatal(err)
		}
		cache := rewriting.NewCache(rewriting.NewRewriter(ec.Ontology))
		if res, err := cache.Rewrite(ec.Query); err != nil {
			b.Fatal(err)
		} else if res.UCQ.Len() != ec.ExpectedWalks() {
			b.Fatalf("walks = %d, want %d", res.UCQ.Len(), ec.ExpectedWalks())
		}
		return ec, cache
	}
	b.Run("mode=cached", func(b *testing.B) {
		ec, cache := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Rewrite(ec.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=incremental", func(b *testing.B) {
		ec, cache := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := ec.RegisterUnrelatedRelease(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := cache.Rewrite(ec.Query)
			if err != nil {
				b.Fatal(err)
			}
			if res.UCQ.Len() != ec.ExpectedWalks() {
				b.Fatalf("walks = %d, want %d", res.UCQ.Len(), ec.ExpectedWalks())
			}
		}
		st := cache.Stats()
		b.ReportMetric(float64(st.EntriesRetained), "retained")
	})
	b.Run("mode=fullRecompute", func(b *testing.B) {
		ec, _ := build(b)
		r := rewriting.NewRewriter(ec.Ontology)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := ec.RegisterUnrelatedRelease(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := r.Rewrite(ec.Query)
			if err != nil {
				b.Fatal(err)
			}
			if res.UCQ.Len() != ec.ExpectedWalks() {
				b.Fatalf("walks = %d, want %d", res.UCQ.Len(), ec.ExpectedWalks())
			}
		}
	})
}

// BenchmarkFigure8ScalingInConcepts complements Figure 8 by scaling the
// query length at a fixed number of wrappers per concept.
func BenchmarkFigure8ScalingInConcepts(b *testing.B) {
	for _, concepts := range []int{2, 3, 4, 5, 6} {
		wc, err := workload.BuildWorstCase(concepts, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("concepts=%d", concepts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wc.Rewrite(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------------------------
// Figure 11 (E6): Source-graph growth over the Wordpress release trace.
// --------------------------------------------------------------------------

func BenchmarkFigure11WordpressGrowth(b *testing.B) {
	releases := workload.WordpressPostsTrace()
	b.ReportAllocs()
	b.ResetTimer()
	var lastCumulative int
	for i := 0; i < b.N; i++ {
		_, points, err := workload.SimulateWordpressGrowth(releases, workload.WordpressGrowthOptions{ReuseAttributes: true})
		if err != nil {
			b.Fatal(err)
		}
		lastCumulative = points[len(points)-1].CumulativeTriples
	}
	b.ReportMetric(float64(lastCumulative), "finalTriplesInS")
}

// --------------------------------------------------------------------------
// E7 (ablation): LAV rewriting vs GAV unfolding under source evolution.
// --------------------------------------------------------------------------

func BenchmarkAblationLAVAnswerAfterEvolution(b *testing.B) {
	o, err := core.BuildSupersedeOntology(true)
	if err != nil {
		b.Fatal(err)
	}
	reg := workload.SupersedeTable1Registry(true)
	r := rewriting.NewRewriter(o)
	resolver := wrapper.NewQualifiedResolver(reg)
	omq := runningExampleOMQ()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Rewrite(omq)
		if err != nil {
			b.Fatal(err)
		}
		answer, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.UCQ.Len() != 2 || answer.Cardinality() != 4 {
			b.Fatalf("unexpected result: %d walks, %d rows", res.UCQ.Len(), answer.Cardinality())
		}
	}
}

func BenchmarkAblationGAVAnswerAfterEvolution(b *testing.B) {
	reg := workload.SupersedeTable1Registry(true)
	g := gav.New()
	g.Define(gav.Mapping{Feature: core.SupApplicationID, Wrapper: "w3", Source: "D3", Attr: "TargetApp", IsID: true})
	g.Define(gav.Mapping{Feature: core.SupLagRatio, Wrapper: "w1", Source: "D1", Attr: "lagRatio"})
	g.AddJoin(relational.JoinCondition{LeftWrapper: "w3", LeftAttr: "MonitorId", RightWrapper: "w1", RightAttr: "VoDmonitorId"})
	features := []rdf.IRI{core.SupApplicationID, core.SupLagRatio}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answer, err := g.Answer(features, reg)
		if err != nil {
			b.Fatal(err)
		}
		// GAV misses the evolved version's rows (3 instead of 4).
		if answer.Cardinality() != 3 {
			b.Fatalf("rows = %d", answer.Cardinality())
		}
	}
}

// --------------------------------------------------------------------------
// Ablation: intra-concept pruning (phase #2 keeps only wrappers covering all
// requested features of a concept). Disabling it is not supported by design,
// so the benchmark quantifies the work pruning saves by comparing a query
// whose concepts are fully covered against one with many partial providers.
// --------------------------------------------------------------------------

func BenchmarkIntraConceptPruning(b *testing.B) {
	o, err := core.BuildSupersedeOntology(true)
	if err != nil {
		b.Fatal(err)
	}
	// Register eight additional wrappers that only provide monitorId (partial
	// providers for the Monitor concept): pruning must discard them.
	for i := 0; i < 8; i++ {
		g := rdf.NewGraph("")
		g.Add(rdf.T(core.SupMonitor, core.GHasFeature, core.SupMonitorID))
		spec := core.WrapperSpec{
			Name:         fmt.Sprintf("partial%d", i),
			Source:       fmt.Sprintf("P%d", i),
			IDAttributes: []string{"mid"},
		}
		if _, err := o.NewRelease(core.Release{Wrapper: spec, Subgraph: g, F: map[string]rdf.IRI{"mid": core.SupMonitorID}}); err != nil {
			b.Fatal(err)
		}
	}
	r := rewriting.NewRewriter(o)
	omq := runningExampleOMQ()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Rewrite(omq)
		if err != nil {
			b.Fatal(err)
		}
		// The partial providers appear for the Monitor concept but are never
		// part of a covering minimal walk.
		if res.UCQ.Len() != 2 {
			b.Fatalf("walks = %d", res.UCQ.Len())
		}
	}
}

// --------------------------------------------------------------------------
// Supporting micro-benchmarks: the building blocks the experiments rely on.
// --------------------------------------------------------------------------

func BenchmarkAlgorithm1NewRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o := core.NewOntology()
		if err := core.BuildSupersedeGlobalGraph(o); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, r := range []core.Release{core.SupersedeReleaseW1(), core.SupersedeReleaseW2(), core.SupersedeReleaseW3(), core.SupersedeReleaseW4()} {
			if _, err := o.NewRelease(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAlgorithm1NewReleaseAtDepth times one release into an ontology
// that already holds 256, then 2,048, chain releases (a wrapper for the
// first chain concept of the Figure 8 setting): the in-process view of how a
// release's cost grows with history. Every 64 releases the timer stops and
// the ontology is restored from a clone taken at the starting depth, so every
// timed release lands within 64 of it.
func BenchmarkAlgorithm1NewReleaseAtDepth(b *testing.B) {
	const restoreEvery = 64
	for _, depth := range []int{256, 2048} {
		b.Run(fmt.Sprintf("releases=%d", depth), func(b *testing.B) {
			ec, err := workload.BuildEvolutionChurn(2, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < depth; i++ {
				if _, err := ec.RegisterRelatedRelease(); err != nil {
					b.Fatal(err)
				}
			}
			base := ec.Ontology.Store().Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%restoreEvery == 0 {
					b.StopTimer()
					ec.Ontology = core.RestoreOntology(base.Clone())
					b.StartTimer()
				}
				if _, err := ec.RegisterRelatedRelease(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRunningExampleRewriteOnly(b *testing.B) {
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		b.Fatal(err)
	}
	r := rewriting.NewRewriter(o)
	omq := runningExampleOMQ()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Rewrite(omq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPARQLParseRunningExample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(exampleQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorePatternMatch(b *testing.B) {
	o, err := core.BuildSupersedeOntology(true)
	if err != nil {
		b.Fatal(err)
	}
	s := o.Store()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if quads := s.Snapshot().Match(store.WildcardGraph(nil, core.GHasFeature, nil)); len(quads) == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkWalkExecutionScaledData(b *testing.B) {
	o, err := core.BuildSupersedeOntology(true)
	if err != nil {
		b.Fatal(err)
	}
	reg := workload.SupersedeScaledRegistry(200, 20, 7, true)
	r := rewriting.NewRewriter(o)
	resolver := wrapper.NewQualifiedResolver(reg)
	res, err := r.Rewrite(runningExampleOMQ())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answer, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
		if err != nil {
			b.Fatal(err)
		}
		if answer.Cardinality() == 0 {
			b.Fatal("empty answer")
		}
	}
}

// runningExampleOMQ is the paper's exemplary query (shared by benchmarks).
func runningExampleOMQ() *rewriting.OMQ {
	return rewriting.NewOMQ(
		[]rdf.IRI{core.SupApplicationID, core.SupLagRatio},
		rdf.T(core.SupSoftwareApplication, core.GHasFeature, core.SupApplicationID),
		rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
		rdf.T(core.SupMonitor, core.SupGeneratesQoS, core.SupInfoMonitor),
		rdf.T(core.SupInfoMonitor, core.GHasFeature, core.SupLagRatio),
	)
}

// --------------------------------------------------------------------------
// Walk execution engine: OMQ → answer at Figure 8 shape with scaled rows.
// --------------------------------------------------------------------------

// benchmarkOMQAnswer measures the full execution half of query answering
// (rewrite once outside the loop, then OMQ result → answer rows) over the
// Figure 8 worst-case shape with rowsPerWrapper rows in every wrapper.
func benchmarkOMQAnswer(b *testing.B, rows int, execute func(*rewriting.Rewriter, *rewriting.Result, relational.WrapperResolver) (*relational.Relation, error)) {
	const concepts, wrappers = 3, 2
	wc, err := workload.BuildWorstCaseRows(concepts, wrappers, rows)
	if err != nil {
		b.Fatal(err)
	}
	r := rewriting.NewRewriter(wc.Ontology)
	res, err := r.Rewrite(wc.Query)
	if err != nil {
		b.Fatal(err)
	}
	resolver := wrapper.NewQualifiedResolver(wc.Registry)
	b.ReportAllocs()
	reused, fresh := dictValues()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answer, err := execute(r, res, resolver)
		if err != nil {
			b.Fatal(err)
		}
		if answer.Cardinality() != rows {
			b.Fatalf("answer = %d rows, want %d", answer.Cardinality(), rows)
		}
	}
	reportDictValues(b, reused, fresh)
}

// BenchmarkOMQAnswer runs the compiled slot-based engine.
func BenchmarkOMQAnswer(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchmarkOMQAnswer(b, rows, func(r *rewriting.Rewriter, res *rewriting.Result, resolver relational.WrapperResolver) (*relational.Relation, error) {
				return r.ExecuteResultLimit(context.Background(), res, resolver, 0)
			})
		})
	}
}

// churning serves a wrapper's rows with every value moved by a new offset on
// each fetch, so that no fetch returns a value an earlier fetch returned;
// with keepIDs set, the ID attributes keep theirs.
type churning struct {
	wrapper.Wrapper
	rows    []relational.Tuple
	keepIDs bool
	fetches atomic.Int64
}

func (c *churning) Rows(ctx context.Context, p relational.Pushdown, d *relational.ValueDict) (*relational.ColRelation, error) {
	shift := int(c.fetches.Add(1)) * 10_000_000
	moves := map[string]bool{}
	for _, a := range c.Schema().Attributes {
		moves[a.Name] = !a.ID || !c.keepIDs
	}
	_, src := p.Project(c.Schema())
	cells := make([]relational.Value, len(src))
	rows := func(yield func([]relational.Value) bool) {
		for _, t := range c.rows {
			for i, a := range src {
				cells[i] = relational.Absent
				switch x := t[a].(type) {
				case int:
					if moves[a] {
						x += shift
					}
					cells[i] = x
				case float64:
					if moves[a] {
						x += float64(shift)
					}
					cells[i] = x
				}
			}
			if !yield(cells) {
				return
			}
		}
	}
	return p.Apply(c.Name(), c.Schema(), rows, d), nil
}

// BenchmarkOMQAnswerChurn is BenchmarkOMQAnswer over wrappers whose values all
// change on every fetch: the result's union never finds a value in the
// dictionary it keeps, so this is the cold execution path.
func BenchmarkOMQAnswerChurn(b *testing.B) {
	benchmarkOMQAnswerChurning(b, false)
}

// BenchmarkOMQAnswerRecurringIDs is BenchmarkOMQAnswer over wrappers whose
// integer IDs recur on every fetch while every measured value changes, as a
// monitor's IDs and its lagRatio do: an execution finds the IDs in the
// dictionary its union keeps and interns the values anew.
func BenchmarkOMQAnswerRecurringIDs(b *testing.B) {
	benchmarkOMQAnswerChurning(b, true)
}

// benchmarkOMQAnswerChurning runs BenchmarkOMQAnswer's query over churning
// copies of its wrappers, encoding every answer to JSON.
func benchmarkOMQAnswerChurning(b *testing.B, keepIDs bool) {
	for _, rows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			wc, err := workload.BuildWorstCaseRows(3, 2, rows)
			if err != nil {
				b.Fatal(err)
			}
			reg := wrapper.NewRegistry()
			for _, name := range wc.Registry.Names() {
				w, _ := wc.Registry.Get(name)
				d := relational.NewValueDict()
				full, err := w.Rows(context.Background(), relational.Pushdown{}, d)
				if err != nil {
					b.Fatal(err)
				}
				reg.Register(&churning{Wrapper: w, rows: full.Decode(d).Tuples, keepIDs: keepIDs})
			}
			r := rewriting.NewRewriter(wc.Ontology)
			res, err := r.Rewrite(wc.Query)
			if err != nil {
				b.Fatal(err)
			}
			resolver := wrapper.NewQualifiedResolver(reg)
			b.ReportAllocs()
			reused, fresh := dictValues()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				answer, err := res.Execute(context.Background(), resolver, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := answer.AppendJSON(nil); err != nil || len(answer.Rows) != rows {
					b.Fatalf("answer = %d rows (%v), want %d", len(answer.Rows), err, rows)
				}
			}
			reportDictValues(b, reused, fresh)
		})
	}
}

// dictValues reads the engine's counts of values its executions found in
// and added to their unions' kept dictionaries.
func dictValues() (reused, fresh int64) {
	var buf bytes.Buffer
	obs.Default.WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		name, v, _ := strings.Cut(line, " ")
		n, _ := strconv.ParseInt(v, 10, 64)
		switch name {
		case "bdi_walk_dict_reused_values_total":
			reused = n
		case "bdi_walk_dict_new_values_total":
			fresh = n
		}
	}
	return reused, fresh
}

// reportDictValues reports the values an iteration found in its union's kept
// dictionary and added to it, from the counts before the loop.
func reportDictValues(b *testing.B, reused, fresh int64) {
	r, f := dictValues()
	b.ReportMetric(float64(r-reused)/float64(b.N), "dict_reused/op")
	b.ReportMetric(float64(f-fresh)/float64(b.N), "dict_new/op")
}

// BenchmarkOMQAnswerReference runs the preserved tuple-at-a-time executor on
// the same workload, quantifying the engine's speedup.
func BenchmarkOMQAnswerReference(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchmarkOMQAnswer(b, rows, func(r *rewriting.Rewriter, res *rewriting.Result, resolver relational.WrapperResolver) (*relational.Relation, error) {
				return r.ExecuteResultReference(res, resolver)
			})
		})
	}
}
