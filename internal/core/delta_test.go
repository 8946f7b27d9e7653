package core

import (
	"reflect"
	"slices"
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

// union is the footprint union of release deltas.
func union(deltas ...*ReleaseDelta) Footprint {
	var concepts, features []rdf.IRI
	for _, d := range deltas {
		concepts = append(concepts, d.Concepts...)
		features = append(features, d.Features...)
	}
	return NewFootprint(concepts, features)
}

func TestChangedSinceCoversReleaseOnlyIntervals(t *testing.T) {
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
	v := o.View()

	if got, ok := v.ChangedSince(g0); !ok || !reflect.DeepEqual(got, union(r1.Delta, r2.Delta)) {
		t.Fatalf("ChangedSince(g0) = %+v, %v; want the union of both releases", got, ok)
	}
	if got, ok := v.ChangedSince(g1); !ok || !reflect.DeepEqual(got, r2.Delta.Footprint) {
		t.Fatalf("ChangedSince(g1) = %+v, %v; want w2's footprint %+v", got, ok, r2.Delta.Footprint)
	}
	if got, ok := v.ChangedSince(g2); !ok || len(got.Concepts)+len(got.Features) != 0 {
		t.Fatalf("ChangedSince(g2) = %+v, %v", got, ok)
	}
	// A generation after the view's is never covered.
	if _, ok := v.ChangedSince(g2 + 1); ok {
		t.Error("an interval ending before it starts reported as covered")
	}
	// The metamodel and the G build are not releases.
	if _, ok := v.ChangedSince(0); ok {
		t.Error("an interval holding the metamodel reported as covered")
	}
}

func TestChangedSinceRejectsNonReleaseMutations(t *testing.T) {
	o := mustBuildSupersede(t)
	g0 := o.Store().Generation()
	if _, err := o.NewRelease(SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	// A Global-graph edit is not a release: the interval is not covered.
	if err := o.AddConcept(rdf.IRI(NSSupersede + "Extra")); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.View().ChangedSince(g0); ok {
		t.Error("interval containing a Global-graph edit reported as covered by releases")
	}
	// A release after the edit is covered from the edit onwards.
	gEdit := o.Store().Generation()
	r2, err := o.NewRelease(SupersedeReleaseW2())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := o.View().ChangedSince(gEdit); !ok || !reflect.DeepEqual(got, r2.Delta.Footprint) {
		t.Errorf("post-edit release interval = %+v, %v", got, ok)
	}
	// A direct store write of another shape is not a release either.
	gRelease := o.Store().Generation()
	if _, err := o.Store().Add(rdf.Quad{Triple: rdf.T(SupMonitor, rdf.RDFSLabel, rdf.IRI(NSSupersede+"label")), Graph: SourceGraphName}); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.View().ChangedSince(gRelease); ok {
		t.Error("a direct non-release store write reported as covered")
	}
}

func TestFootprintIntersects(t *testing.T) {
	d := NewFootprint([]rdf.IRI{"b", "d"}, []rdf.IRI{"f2"})
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
		if got := d.Intersects(c.fp); got != c.want {
			t.Errorf("case %d: reversed Intersects = %v, want %v", i, got, c.want)
		}
	}
	for iri, want := range map[rdf.IRI]bool{"b": true, "d": true, "f2": true, "a": false, "f1": false} {
		if got := d.Touches(iri); got != want {
			t.Errorf("Touches(%s) = %v, want %v", iri, got, want)
		}
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
