package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bdi/internal/rdf"
)

func mustBuildSupersede(t *testing.T) *Ontology {
	t.Helper()
	o := NewOntology()
	if err := BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	return o
}

func containsIRI(s []rdf.IRI, iri rdf.IRI) bool { return slices.Contains(s, iri) }

func TestReleaseDeltaW1(t *testing.T) {
	o := mustBuildSupersede(t)
	res, err := o.NewRelease(SupersedeReleaseW1())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Delta
	if d == nil {
		t.Fatal("release result carries no delta")
	}
	if d.Wrapper != WrapperURI("w1") || d.Source != SourceURI("D1") {
		t.Errorf("delta identity = %s / %s", d.Wrapper, d.Source)
	}
	if d.Sequence != res.Sequence {
		t.Errorf("delta sequence = %d, release sequence = %d", d.Sequence, res.Sequence)
	}
	// W1's LAV subgraph covers Monitor and InfoMonitor with monitorId and
	// lagRatio, plus the generatesQoS edge.
	for _, c := range []rdf.IRI{SupMonitor, SupInfoMonitor} {
		if !containsIRI(d.Concepts, c) {
			t.Errorf("delta concepts %v miss %s", d.Concepts, c)
		}
	}
	for _, f := range []rdf.IRI{SupMonitorID, SupLagRatio} {
		if !containsIRI(d.Features, f) {
			t.Errorf("delta features %v miss %s", d.Features, f)
		}
	}
	if containsIRI(d.Concepts, SupUserFeedback) || containsIRI(d.Features, SupDescription) {
		t.Errorf("delta leaks untouched elements: %v / %v", d.Concepts, d.Features)
	}
	wantEdge := [2]rdf.IRI{SupMonitor, SupInfoMonitor}
	if !slices.Contains(d.Edges, wantEdge) {
		t.Errorf("delta edges %v miss %v", d.Edges, wantEdge)
	}
	if !d.Touches(SupMonitor) || !d.Touches(SupLagRatio) || d.Touches(SupUserFeedback) {
		t.Error("Touches misclassifies delta membership")
	}
}

func TestReleaseDeltaAttributeReuse(t *testing.T) {
	// A release of a new schema version for the same source reuses the
	// attribute URIs; its delta must include the features those attributes
	// were already linked to (a new owl:sameAs link can change how an
	// existing attribute resolves) — not only the range of its own F.
	o := mustBuildSupersede(t)
	if _, err := o.NewRelease(SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	other := rdf.IRI(NSSupersede + "otherFeature")
	if err := o.AddFeatureTo(SupInfoMonitor, other, rdf.XSDDouble); err != nil {
		t.Fatal(err)
	}
	// w1b reuses D1's lagRatio attribute but maps it to the new feature.
	release := Release{
		Wrapper: WrapperSpec{
			Name:            "w1b",
			Source:          "D1",
			IDAttributes:    []string{"VoDmonitorId"},
			NonIDAttributes: []string{"lagRatio"},
		},
		Subgraph: func() *rdf.Graph {
			g := rdf.NewGraph("")
			g.Add(
				rdf.T(SupMonitor, GHasFeature, SupMonitorID),
				rdf.T(SupInfoMonitor, GHasFeature, other),
			)
			return g
		}(),
		F: map[string]rdf.IRI{
			"VoDmonitorId": SupMonitorID,
			"lagRatio":     other,
		},
	}
	res, err := o.NewRelease(release)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReusedAttributes) != 2 {
		t.Fatalf("reused attributes = %v", res.ReusedAttributes)
	}
	d := res.Delta
	if !containsIRI(d.Features, other) {
		t.Errorf("delta misses the newly mapped feature: %v", d.Features)
	}
	// lagRatio is the feature the reused attribute was previously linked to.
	if !containsIRI(d.Features, SupLagRatio) {
		t.Errorf("delta misses the prior feature of the reused attribute: %v", d.Features)
	}
	// ... and its owning concept must be marked too.
	if !containsIRI(d.Concepts, SupInfoMonitor) {
		t.Errorf("delta misses the owner of an affected feature: %v", d.Concepts)
	}
}

func TestReleaseDeltaSameAsOnlyRelease(t *testing.T) {
	// A release whose LAV subgraph repeats already-registered triples adds
	// (almost) nothing to the store beyond owl:sameAs links and wrapper
	// bookkeeping — its delta must still name the mapped features and their
	// concepts so caches drop the affected rewritings.
	o := mustBuildSupersede(t)
	if _, err := o.NewRelease(SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	release := Release{
		Wrapper: WrapperSpec{
			Name:         "w1sameas",
			Source:       "D9",
			IDAttributes: []string{"mid"},
		},
		Subgraph: func() *rdf.Graph {
			g := rdf.NewGraph("")
			g.Add(rdf.T(SupMonitor, GHasFeature, SupMonitorID))
			return g
		}(),
		F: map[string]rdf.IRI{"mid": SupMonitorID},
	}
	res, err := o.NewRelease(release)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Delta
	if !containsIRI(d.Features, SupMonitorID) || !containsIRI(d.Concepts, SupMonitor) {
		t.Errorf("sameAs-only delta = concepts %v features %v", d.Concepts, d.Features)
	}
	if containsIRI(d.Concepts, SupInfoMonitor) || containsIRI(d.Features, SupLagRatio) {
		t.Errorf("sameAs-only delta over-approximates: %v / %v", d.Concepts, d.Features)
	}
	if len(d.Edges) != 0 {
		t.Errorf("sameAs-only delta has edges: %v", d.Edges)
	}
}

func TestDeltasBetweenCoversReleaseOnlyIntervals(t *testing.T) {
	o := mustBuildSupersede(t)
	g0 := o.Store().Generation()
	r1, err := o.NewRelease(SupersedeReleaseW1())
	if err != nil {
		t.Fatal(err)
	}
	g1 := o.Store().Generation()
	r2, err := o.NewRelease(SupersedeReleaseW2())
	if err != nil {
		t.Fatal(err)
	}
	g2 := o.Store().Generation()

	deltas, ok := o.DeltasBetween(g0, g2)
	if !ok || len(deltas) != 2 {
		t.Fatalf("DeltasBetween(g0, g2) = %v, %v", deltas, ok)
	}
	if deltas[0] != r1.Delta || deltas[1] != r2.Delta {
		t.Error("deltas not returned oldest-first")
	}
	if deltas, ok := o.DeltasBetween(g1, g2); !ok || len(deltas) != 1 || deltas[0] != r2.Delta {
		t.Fatalf("DeltasBetween(g1, g2) = %v, %v", deltas, ok)
	}
	if deltas, ok := o.DeltasBetween(g2, g2); !ok || len(deltas) != 0 {
		t.Fatalf("DeltasBetween(g2, g2) = %v, %v", deltas, ok)
	}
	// Backwards intervals are never covered.
	if _, ok := o.DeltasBetween(g2, g0); ok {
		t.Error("backwards interval reported as covered")
	}
}

func TestDeltasBetweenRejectsNonReleaseMutations(t *testing.T) {
	o := mustBuildSupersede(t)
	g0 := o.Store().Generation()
	if _, err := o.NewRelease(SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	// A Global-graph edit is not a release: the interval is not covered.
	if err := o.AddConcept(rdf.IRI(NSSupersede + "Extra")); err != nil {
		t.Fatal(err)
	}
	g2 := o.Store().Generation()
	if _, ok := o.DeltasBetween(g0, g2); ok {
		t.Error("interval containing a Global-graph edit reported as covered by releases")
	}
	// A release after the edit is covered from the edit onwards.
	gEdit := o.Store().Generation()
	if _, err := o.NewRelease(SupersedeReleaseW2()); err != nil {
		t.Fatal(err)
	}
	if deltas, ok := o.DeltasBetween(gEdit, o.Store().Generation()); !ok || len(deltas) != 1 {
		t.Errorf("post-edit release interval = %v, %v", deltas, ok)
	}
}

// TestDeltaSpanPublishedBeforeSnapshot hammers the lock-free delta log:
// while releases land, readers loop DeltasBetween from the pre-release
// generation to the store's current one, and every interval must be
// covered. A release that published its snapshot before its span would
// leave a window in which a reader sees the generation unexplained.
func TestDeltaSpanPublishedBeforeSnapshot(t *testing.T) {
	const readers, releases = 4, 120
	o := mustBuildSupersede(t)
	g0 := o.Store().Generation()
	var done atomic.Bool
	var wg sync.WaitGroup
	failures := make(chan string, readers)
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				gen := o.Store().Generation()
				if _, ok := o.DeltasBetween(g0, gen); !ok {
					failures <- fmt.Sprintf("DeltasBetween(%d, %d) not covered", g0, gen)
					return
				}
			}
		}()
	}
	for i := range releases {
		r := SupersedeReleaseW1()
		r.Wrapper.Name = fmt.Sprintf("hammer%d", i)
		if _, err := o.NewRelease(r); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if deltas, ok := o.DeltasBetween(g0, o.Store().Generation()); !ok || len(deltas) != releases {
		t.Fatalf("final interval = %d deltas, covered %v; want %d", len(deltas), ok, releases)
	}
}

func TestFootprintIntersects(t *testing.T) {
	d := &ReleaseDelta{
		Concepts: []rdf.IRI{"b", "d"},
		Features: []rdf.IRI{"f2"},
	}
	cases := []struct {
		fp   Footprint
		want bool
	}{
		{NewFootprint([]rdf.IRI{"a", "c"}, []rdf.IRI{"f1"}), false},
		{NewFootprint([]rdf.IRI{"a", "b"}, nil), true},
		{NewFootprint(nil, []rdf.IRI{"f2"}), true},
		{NewFootprint(nil, nil), false},
		{NewFootprint([]rdf.IRI{"e"}, []rdf.IRI{"f3"}), false},
	}
	for i, c := range cases {
		if got := c.fp.Intersects(d); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
	}
	fp := NewFootprint([]rdf.IRI{"a", "b", "d"}, nil)
	touched := fp.TouchedConcepts([]*ReleaseDelta{d})
	if len(touched) != 2 || touched[0] != "b" || touched[1] != "d" {
		t.Errorf("TouchedConcepts = %v", touched)
	}
}

func TestQueryCacheSurvivesUnrelatedRelease(t *testing.T) {
	// Every release installs a fresh view: nothing memoized against an
	// earlier generation is served after a release, related or not, and the
	// fresh probe sees the release's wrapper.
	o := mustBuildSupersede(t)
	if _, err := o.NewRelease(SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	triple := rdf.T(SupInfoMonitor, GHasFeature, SupLagRatio)
	if ws := o.View().WrappersCoveringTriple(triple); len(ws) != 1 || ws[0] != WrapperURI("w1") {
		t.Fatalf("covering wrappers = %v", ws)
	}
	qcBefore := o.View()

	// Unrelated release: W2 covers FeedbackGathering/UserFeedback.
	if _, err := o.NewRelease(SupersedeReleaseW2()); err != nil {
		t.Fatal(err)
	}
	qcAfter := o.View()
	if qcAfter == qcBefore {
		t.Fatal("a release must install a view of the new snapshot")
	}
	if ws := qcAfter.WrappersCoveringTriple(triple); len(ws) != 1 || ws[0] != WrapperURI("w1") {
		t.Fatalf("post-W2 covering wrappers = %v", ws)
	}
	key := coveringKeyFor(t, qcAfter, triple)

	// Related release: W4 is a new D1 schema version touching InfoMonitor.
	if _, err := o.NewRelease(SupersedeReleaseW4()); err != nil {
		t.Fatal(err)
	}
	qcFinal := o.View()
	qcFinal.mu.Lock()
	_, stale := qcFinal.covering[key]
	qcFinal.mu.Unlock()
	if stale {
		t.Error("covering entry touching the released concepts must be retired")
	}
	// And the fresh probe sees both wrappers.
	if ws := o.View().WrappersCoveringTriple(triple); len(ws) != 2 {
		t.Errorf("post-W4 covering wrappers = %v", ws)
	}
}

func coveringKeyFor(t *testing.T, qc *View, tr rdf.Triple) [3]rdf.TermID {
	t.Helper()
	d := qc.snap.Dict()
	s, okS := d.Lookup(tr.Subject)
	p, okP := d.Lookup(tr.Predicate)
	o, okO := d.Lookup(tr.Object)
	if !okS || !okP || !okO {
		t.Fatal("triple terms not interned")
	}
	return [3]rdf.TermID{s, p, o}
}

func TestQueryCacheFlushedByNonReleaseMutation(t *testing.T) {
	o := mustBuildSupersede(t)
	if _, err := o.NewRelease(SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	triple := rdf.T(SupInfoMonitor, GHasFeature, SupLagRatio)
	o.View().WrappersCoveringTriple(triple)
	key := coveringKeyFor(t, o.View(), triple)
	if err := o.AddConcept(rdf.IRI(NSSupersede + "Unexplained")); err != nil {
		t.Fatal(err)
	}
	qc := o.View()
	qc.mu.Lock()
	_, retained := qc.covering[key]
	qc.mu.Unlock()
	if retained {
		t.Error("non-release mutation must flush the query cache wholesale")
	}
}
