package core

import (
	"slices"
	"testing"

	"bdi/internal/rdf"
)

// TestViewAnswersForItsGeneration pins a view, registers a release that
// adds a provider (w4, a new schema version of D1), and checks that the
// pinned view still answers for its own generation — also for lookups it
// is first asked after the release — while a new view answers for the
// next one; that two views of one generation are the same memo; and that
// the same holds for the Global-graph readers across a G edit.
func TestViewAnswersForItsGeneration(t *testing.T) {
	o, err := BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	v := o.View()
	if o.View() != v {
		t.Fatal("two views of one generation must be the same memo")
	}
	gen := v.Generation()
	triple := rdf.T(SupInfoMonitor, GHasFeature, SupLagRatio)
	w1 := []rdf.IRI{WrapperURI("w1")}
	if got := v.WrappersCoveringTriple(triple); !slices.Equal(got, w1) {
		t.Fatalf("covering before the release = %v, want %v", got, w1)
	}

	if _, err := o.NewRelease(SupersedeReleaseW4()); err != nil {
		t.Fatal(err)
	}

	if v.Generation() != gen {
		t.Errorf("pinned view moved from generation %d to %d", gen, v.Generation())
	}
	if got := v.WrappersCoveringTriple(triple); !slices.Equal(got, w1) {
		t.Errorf("pinned view: covering = %v, want %v", got, w1)
	}
	if got := v.WrappersProvidingFeature(SupInfoMonitor, SupLagRatio); !slices.Equal(got, w1) {
		t.Errorf("pinned view: providers = %v, want %v", got, w1)
	}
	if got, ok := v.LatestWrapperOfSource("D1"); !ok || got != WrapperURI("w1") {
		t.Errorf("pinned view: latest wrapper of D1 = %v, %v, want w1", got, ok)
	}
	if got, ok := v.SourceOfWrapper(WrapperURI("w4")); ok {
		t.Errorf("pinned view: w4 belongs to %v, want no such wrapper", got)
	}

	next := o.View()
	if next == v || next.Generation() <= gen {
		t.Fatalf("after the release the view is at generation %d, pinned %d", next.Generation(), gen)
	}
	if o.View() != next {
		t.Error("two views of one generation must be the same memo")
	}
	both := []rdf.IRI{WrapperURI("w1"), WrapperURI("w4")}
	if got := next.WrappersCoveringTriple(triple); !slices.Equal(got, both) {
		t.Errorf("new view: covering = %v, want %v", got, both)
	}
	if got := next.WrappersProvidingFeature(SupInfoMonitor, SupLagRatio); !slices.Equal(got, both) {
		t.Errorf("new view: providers = %v, want %v", got, both)
	}
	if got, ok := next.LatestWrapperOfSource("D1"); !ok || got != WrapperURI("w4") {
		t.Errorf("new view: latest wrapper of D1 = %v, %v, want w4", got, ok)
	}

	// A G edit: a new concept with a typed feature. The view pinned before
	// it knows neither; the view after it knows both.
	concept, feature := rdf.IRI("http://ex/view/Player"), rdf.IRI("http://ex/view/bitrate")
	if err := o.AddConcept(concept); err != nil {
		t.Fatal(err)
	}
	if err := o.AddFeatureTo(concept, feature, rdf.XSDInteger); err != nil {
		t.Fatal(err)
	}
	if got, ok := next.ConceptOfFeature(feature); ok {
		t.Errorf("pinned view: concept of the new feature = %v, want none", got)
	}
	if got, ok := next.DatatypeOf(feature); ok {
		t.Errorf("pinned view: datatype of the new feature = %v, want none", got)
	}
	if slices.Contains(next.Features(), feature) {
		t.Error("pinned view lists the new feature")
	}
	edited := o.View()
	if got, ok := edited.ConceptOfFeature(feature); !ok || got != concept {
		t.Errorf("new view: concept of the new feature = %v, %v, want %v", got, ok, concept)
	}
	if got, ok := edited.DatatypeOf(feature); !ok || got != rdf.XSDInteger {
		t.Errorf("new view: datatype of the new feature = %v, %v, want %v", got, ok, rdf.XSDInteger)
	}
	if !slices.Contains(edited.Features(), feature) {
		t.Error("new view does not list the new feature")
	}
}
