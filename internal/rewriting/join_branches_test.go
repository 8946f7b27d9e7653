package rewriting

import (
	"context"
	"slices"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
)

// Two concepts X and Y, each with one identifier, over which the tests below
// pin two pairs of partial walks that Algorithm 5 cannot join.
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

func branchRelease(wrapper, source string, ids []string, f map[string]rdf.IRI, lav ...rdf.Triple) core.Release {
	g := rdf.NewGraph("")
	g.Add(lav...)
	return core.Release{
		Wrapper:  core.WrapperSpec{Name: wrapper, Source: source, IDAttributes: ids},
		Subgraph: g,
		F:        f,
	}
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
// alone, which serves both concepts. No walk covers the query's X → Y
// triple, so the pair is pinned on Algorithm 5's candidate walks, and the
// rewrite fails.
func TestJoinAgainstTraversalOrder(t *testing.T) {
	o := branchOntology(t,
		branchRelease("wx", "Sx", []string{"xid"}, map[string]rdf.IRI{"xid": branchFX},
			rdf.T(branchX, core.GHasFeature, branchFX)),
		branchRelease("wy", "Sy", []string{"yid", "yx"}, map[string]rdf.IRI{"yid": branchFY, "yx": branchFX},
			rdf.T(branchY, core.GHasFeature, branchFY),
			rdf.T(branchY, branchYtoX, branchX),
			rdf.T(branchX, core.GHasFeature, branchFX)),
	)
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
	walks, err := InterConceptGenerationContext(context.Background(), o, eq, partials)
	if err != nil {
		t.Fatal(err)
	}
	assertUCQ(t, &relational.UnionOfConjunctiveQueries{Walks: walks},
		"Π̃Sy/yid,Sy/yx(wy)",
		[]string{"wy"})
	if _, err := NewRewriter(o).Rewrite(branchOMQ()); err == nil {
		t.Error("no walk covers the query's X → Y triple, yet the rewrite succeeded")
	}
}

// TestJoinEdgeProviderIsIDSide pins Algorithm 5 where the wrapper providing
// the X → Y edge, wxy, is also the wrapper providing Y's identifier on the
// right. The edge then adds no join condition, and wx and wxy share no
// wrapper, so nothing joins them: a walk over both could not run, and the
// rewrite fails.
func TestJoinEdgeProviderIsIDSide(t *testing.T) {
	o := branchOntology(t,
		branchRelease("wx", "Sx", []string{"xid"}, map[string]rdf.IRI{"xid": branchFX},
			rdf.T(branchX, core.GHasFeature, branchFX)),
		branchRelease("wxy", "Sxy", []string{"yid"}, map[string]rdf.IRI{"yid": branchFY},
			rdf.T(branchX, branchXtoY, branchY),
			rdf.T(branchY, core.GHasFeature, branchFY)),
	)
	_, err := NewRewriter(o).Rewrite(branchOMQ())
	want := "rewriting: concepts http://ex/branch/X and http://ex/branch/Y cannot be joined with the registered wrappers"
	if err == nil || err.Error() != want {
		t.Fatalf("rewrite error = %v, want %q", err, want)
	}
}
