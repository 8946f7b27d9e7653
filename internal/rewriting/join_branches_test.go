package rewriting

import (
	"context"
	"slices"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/wrapper"
)

// Two concepts X and Y, each with one identifier, over which the tests below
// pin the join shapes of Algorithm 5 and run the walks it emits on one row
// per wrapper (RequireWalksRun). Y's only feature is its identifier, so
// every wrapper that provides the X → Y edge (with Y's identifier, the join
// attribute) also covers Y.
const branchNS = "http://ex/branch/"

var (
	branchX    = rdf.IRI(branchNS + "X")
	branchY    = rdf.IRI(branchNS + "Y")
	branchFX   = rdf.IRI(branchNS + "fx")
	branchFY   = rdf.IRI(branchNS + "fy")
	branchXtoY = rdf.IRI(branchNS + "xToY")
	branchYtoX = rdf.IRI(branchNS + "yToX")
)

// branchOntology builds G over X and Y, related both ways, and registers the
// given releases.
func branchOntology(t *testing.T, releases ...core.Release) *core.Ontology {
	t.Helper()
	o := core.NewOntology()
	for _, step := range []func() error{
		func() error { return o.AddConcept(branchX) },
		func() error { return o.AddConcept(branchY) },
		func() error { return o.AddIdentifier(branchX, branchFX, rdf.XSDInteger) },
		func() error { return o.AddIdentifier(branchY, branchFY, rdf.XSDInteger) },
		func() error { return o.Relate(branchX, branchXtoY, branchY) },
		func() error { return o.Relate(branchY, branchYtoX, branchX) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range releases {
		if _, err := o.NewRelease(r); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func branchRelease(name, source string, ids []string, f map[string]rdf.IRI, lav ...rdf.Triple) core.Release {
	g := rdf.NewGraph("")
	g.Add(lav...)
	return core.Release{
		Wrapper:  core.WrapperSpec{Name: name, Source: source, IDAttributes: ids},
		Subgraph: g,
		F:        f,
	}
}

// branchResolver is a OneRowResolver over the wrappers of the releases.
func branchResolver(releases ...core.Release) relational.WrapperResolver {
	reg := wrapper.NewRegistry()
	for _, r := range releases {
		reg.Register(wrapper.NewMemory(r.Wrapper.Name, r.Wrapper.Source, relational.NewSchema(r.Wrapper.IDAttributes, nil), nil))
	}
	return OneRowResolver(reg)
}

// candidates runs Algorithms 2-5 on branchOMQ and returns Algorithm 5's
// candidate walks, before the coverage and minimality filters.
func candidates(t *testing.T, o *core.Ontology) ([]*relational.Walk, error) {
	t.Helper()
	wf, err := WellFormedQuery(o, branchOMQ())
	if err != nil {
		t.Fatal(err)
	}
	eq, err := QueryExpansion(o, wf)
	if err != nil {
		t.Fatal(err)
	}
	partials, err := IntraConceptGeneration(o, eq)
	if err != nil {
		t.Fatal(err)
	}
	return InterConceptGenerationContext(context.Background(), o, eq, partials)
}

// branchOMQ asks for both identifiers across the X → Y edge, so X precedes
// Y in traversal order.
func branchOMQ() *OMQ {
	return NewOMQ(
		[]rdf.IRI{branchFX, branchFY},
		rdf.T(branchX, core.GHasFeature, branchFX),
		rdf.T(branchX, branchXtoY, branchY),
		rdf.T(branchY, core.GHasFeature, branchFY),
	)
}

func assertUCQ(t *testing.T, ucq *relational.UnionOfConjunctiveQueries, wantString string, wantSignatures []string) {
	t.Helper()
	if got := ucq.String(); got != wantString {
		t.Errorf("UCQ =\n%s\nwant\n%s", got, wantString)
	}
	if got := ucq.Signatures(); !slices.Equal(got, wantSignatures) {
		t.Errorf("signatures = %v, want %v", got, wantSignatures)
	}
}

// TestJoinAgainstTraversalOrder pins Algorithm 5 where no wrapper provides
// the query's X → Y edge and the only edge provider, wy, relates the two
// concepts the other way (Y → X). The join plan follows φ's edges in
// traversal order only, so wx and wy are not joined: the one candidate is wy
// alone, which serves both concepts, and it runs. No walk covers the
// query's X → Y triple, so the pair is pinned on Algorithm 5's candidate
// walks, and the rewrite fails.
func TestJoinAgainstTraversalOrder(t *testing.T) {
	releases := []core.Release{
		branchRelease("wx", "Sx", []string{"xid"}, map[string]rdf.IRI{"xid": branchFX},
			rdf.T(branchX, core.GHasFeature, branchFX)),
		branchRelease("wy", "Sy", []string{"yid", "yx"}, map[string]rdf.IRI{"yid": branchFY, "yx": branchFX},
			rdf.T(branchY, core.GHasFeature, branchFY),
			rdf.T(branchY, branchYtoX, branchX),
			rdf.T(branchX, core.GHasFeature, branchFX)),
	}
	o := branchOntology(t, releases...)
	walks, err := candidates(t, o)
	if err != nil {
		t.Fatal(err)
	}
	assertUCQ(t, &relational.UnionOfConjunctiveQueries{Walks: walks},
		"Π̃Sy/yid,Sy/yx(wy)",
		[]string{"wy"})
	RequireWalksRun(t, walks, branchResolver(releases...))
	if _, err := NewRewriter(o).Rewrite(branchOMQ()); err == nil {
		t.Error("no walk covers the query's X → Y triple, yet the rewrite succeeded")
	}
}

// TestJoinEdgeProviderIsIDSide pins Algorithm 5 where the wrapper providing
// the X → Y edge, wxy, is also the wrapper providing Y's identifier on the
// right. The edge then adds no join condition, and wx and wxy share no
// wrapper, so nothing joins them: the merged candidate is disconnected,
// Validate rejects it with the error both executors would raise, and the
// rewrite fails.
func TestJoinEdgeProviderIsIDSide(t *testing.T) {
	releases := []core.Release{
		branchRelease("wx", "Sx", []string{"xid"}, map[string]rdf.IRI{"xid": branchFX},
			rdf.T(branchX, core.GHasFeature, branchFX)),
		branchRelease("wxy", "Sxy", []string{"yid"}, map[string]rdf.IRI{"yid": branchFY},
			rdf.T(branchX, branchXtoY, branchY),
			rdf.T(branchY, core.GHasFeature, branchFY)),
	}
	o := branchOntology(t, releases...)
	want := "rewriting: concepts http://ex/branch/X and http://ex/branch/Y cannot be joined with the registered wrappers"
	if walks, err := candidates(t, o); err == nil || err.Error() != want {
		t.Fatalf("Algorithm 5 = %v, %v, want %q", walks, err, want)
	}
	if _, err := NewRewriter(o).Rewrite(branchOMQ()); err == nil || err.Error() != want {
		t.Fatalf("rewrite error = %v, want %q", err, want)
	}
	merged := relational.NewWalk("wx", "Sx", "Sx/xid").Merge(relational.NewWalk("wxy", "Sxy", "Sxy/yid"))
	wantInvalid := "relational: wrapper wxy is not connected by any join in the walk"
	resolver := branchResolver(releases...)
	_, engineErr := merged.Execute(context.Background(), resolver)
	_, refErr := merged.ExecuteReference(context.Background(), resolver)
	for _, err := range []error{merged.Validate(), engineErr, refErr} {
		if err == nil || err.Error() != wantInvalid {
			t.Errorf("candidate %s: error %v, want %q", merged, err, wantInvalid)
		}
	}
}

// TestJoinWrapperSpansBothConcepts pins Algorithm 5 where one wrapper, wxy,
// provides X, Y and the X → Y edge, next to wx (X only) and wy (Y only).
// wxy serves both concepts alone, and joins wy as the edge provider; wx
// meets no edge provider, so its candidates are disconnected and Validate
// drops them. Coverage and minimality then keep wxy alone. Every candidate
// and the rewrite run.
func TestJoinWrapperSpansBothConcepts(t *testing.T) {
	releases := []core.Release{
		branchRelease("wx", "Sx", []string{"xid"}, map[string]rdf.IRI{"xid": branchFX},
			rdf.T(branchX, core.GHasFeature, branchFX)),
		branchRelease("wy", "Sy", []string{"yid"}, map[string]rdf.IRI{"yid": branchFY},
			rdf.T(branchY, core.GHasFeature, branchFY)),
		branchRelease("wxy", "Sxy", []string{"xyx", "xyy"}, map[string]rdf.IRI{"xyx": branchFX, "xyy": branchFY},
			rdf.T(branchX, core.GHasFeature, branchFX),
			rdf.T(branchX, branchXtoY, branchY),
			rdf.T(branchY, core.GHasFeature, branchFY)),
	}
	o := branchOntology(t, releases...)
	resolver := branchResolver(releases...)
	walks, err := candidates(t, o)
	if err != nil {
		t.Fatal(err)
	}
	assertUCQ(t, &relational.UnionOfConjunctiveQueries{Walks: walks},
		"Π̃Sxy/xyx,Sxy/xyy(wxy)\n  ∪ Π̃Sxy/xyx,Sy/yid(wxy ⋈ wy on Sxy/xyy=Sy/yid)",
		[]string{"wxy", "wxy|wy"})
	RequireWalksRun(t, walks, resolver)
	res, err := NewRewriter(o).Rewrite(branchOMQ())
	if err != nil {
		t.Fatal(err)
	}
	assertUCQ(t, res.UCQ, "Π̃Sxy/xyx,Sxy/xyy(wxy)", []string{"wxy"})
	RequireResultRuns(t, res, resolver)
}

// TestJoinTwoWrappersOfOneSource pins Algorithm 5 where two wrappers of one
// source S serve different concepts: ws provides X, Y and the X → Y edge,
// wy provides Y only. ws joins wy2, of a source of its own, as the edge
// provider, but a walk over ws and wy would join two schema versions of S,
// so Validate drops it. Coverage and minimality then keep ws alone. Every
// candidate and the rewrite run.
func TestJoinTwoWrappersOfOneSource(t *testing.T) {
	releases := []core.Release{
		branchRelease("ws", "S", []string{"sx", "sy"}, map[string]rdf.IRI{"sx": branchFX, "sy": branchFY},
			rdf.T(branchX, core.GHasFeature, branchFX),
			rdf.T(branchX, branchXtoY, branchY),
			rdf.T(branchY, core.GHasFeature, branchFY)),
		branchRelease("wy", "S", []string{"yid"}, map[string]rdf.IRI{"yid": branchFY},
			rdf.T(branchY, core.GHasFeature, branchFY)),
		branchRelease("wy2", "Sy2", []string{"yid"}, map[string]rdf.IRI{"yid": branchFY},
			rdf.T(branchY, core.GHasFeature, branchFY)),
	}
	o := branchOntology(t, releases...)
	resolver := branchResolver(releases...)
	walks, err := candidates(t, o)
	if err != nil {
		t.Fatal(err)
	}
	assertUCQ(t, &relational.UnionOfConjunctiveQueries{Walks: walks},
		"Π̃S/sx,S/sy(ws)\n  ∪ Π̃S/sx,Sy2/yid(ws ⋈ wy2 on S/sy=Sy2/yid)",
		[]string{"ws", "ws|wy2"})
	RequireWalksRun(t, walks, resolver)
	res, err := NewRewriter(o).Rewrite(branchOMQ())
	if err != nil {
		t.Fatal(err)
	}
	assertUCQ(t, res.UCQ, "Π̃S/sx,S/sy(ws)", []string{"ws"})
	RequireResultRuns(t, res, resolver)
}
