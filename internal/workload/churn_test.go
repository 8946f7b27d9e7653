package workload

import (
	"context"
	"slices"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/rewriting"
	"bdi/internal/store"
	"bdi/internal/wrapper"
)

func TestBuildEvolutionChurnStructure(t *testing.T) {
	ec, err := BuildEvolutionChurn(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ec.ExpectedWalks() != 8 {
		t.Errorf("expected walks = %d, want 8", ec.ExpectedWalks())
	}
	if walks, err := ec.Rewrite(); err != nil || walks != 8 {
		t.Fatalf("rewrite = %d walks, err %v", walks, err)
	}
	if _, err := BuildEvolutionChurn(3, 2, 0); err == nil {
		t.Error("zero side concepts must be rejected")
	}
}

func TestEvolutionChurnUnrelatedReleaseDeltaIsDisjoint(t *testing.T) {
	ec, err := BuildEvolutionChurn(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ec.RegisterUnrelatedRelease()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta == nil {
		t.Fatal("no delta")
	}
	for i := 0; i < ec.Concepts; i++ {
		if res.Delta.Touches(conceptIRI(i)) || res.Delta.Touches(valueFeature(i)) {
			t.Fatalf("unrelated delta touches chain concept %d: %v", i, res.Delta)
		}
	}
	if !res.Delta.Touches(sideConceptIRI(0)) {
		t.Errorf("unrelated delta misses its side concept: %v", res.Delta)
	}
	// The worst-case walk set is unchanged.
	if walks, err := ec.Rewrite(); err != nil || walks != 8 {
		t.Fatalf("post-unrelated rewrite = %d walks, err %v", walks, err)
	}
	// The side query is now answerable with exactly the new wrapper.
	r := rewriting.NewRewriter(ec.Ontology)
	side, err := r.Rewrite(ec.SideQuery(0))
	if err != nil {
		t.Fatal(err)
	}
	if side.UCQ.Len() != 1 {
		t.Errorf("side query walks = %d, want 1", side.UCQ.Len())
	}
}

func TestEvolutionChurnRelatedReleaseGrowsWalks(t *testing.T) {
	ec, err := BuildEvolutionChurn(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ec.RegisterRelatedRelease()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delta.Touches(conceptIRI(0)) {
		t.Errorf("related delta misses concept 0: %v", res.Delta)
	}
	if ec.ExpectedWalks() != 12 {
		t.Errorf("expected walks after one related release = %d, want 12", ec.ExpectedWalks())
	}
	if walks, err := ec.Rewrite(); err != nil || walks != 12 {
		t.Fatalf("rewrite = %d walks, err %v", walks, err)
	}
	// The new walks are executable like the builder's.
	r := rewriting.NewRewriter(ec.Ontology)
	resw, err := r.Rewrite(ec.Query)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := r.ExecuteResultLimit(context.Background(), resw, wrapper.NewQualifiedResolver(ec.Registry), 0)
	if err != nil {
		t.Fatal(err)
	}
	if answer.Cardinality() == 0 {
		t.Error("empty answer after related release")
	}
}

// TestChurnReleaseRegistersWrapperBeforePublish checks, from the store's
// commit hook, which sees every batch before its generation is published,
// that the churn workload's wrapper is registered by the time its release
// is published, so a reader rewriting to the new walk can execute it; and
// that a release Algorithm 1 rejects leaves no wrapper behind.
func TestChurnReleaseRegistersWrapperBeforePublish(t *testing.T) {
	ec, err := BuildEvolutionChurn(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	released := 0
	ec.Ontology.Store().SetCommitHook(func(b store.Batch) error {
		for _, q := range b.Quads {
			if q.Graph != core.SourceGraphName || q.Predicate != rdf.RDFType || q.Object != core.SWrapper {
				continue
			}
			released++
			name := core.WrapperLocalName(q.Subject.(rdf.IRI))
			if _, ok := ec.Registry.Get(name); !ok {
				missing = append(missing, name)
			}
		}
		return nil
	})
	for k := 0; k < 2; k++ {
		if _, err := ec.RegisterRelatedRelease(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ec.RegisterUnrelatedRelease(); err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 || released != 3 {
		t.Errorf("of %d releases (want 3), these were published before their wrappers were registered: %v", released, missing)
	}

	// Claim a second side concept G does not have: the next unrelated
	// release maps into it, so Algorithm 1 rejects it.
	ec.SideConcepts = 2
	before := ec.Registry.Names()
	if _, err := ec.RegisterUnrelatedRelease(); err == nil {
		t.Fatal("a release over a concept outside G was accepted")
	}
	if got := ec.Registry.Names(); !slices.Equal(got, before) {
		t.Errorf("rejected release changed the registry: %v, want %v", got, before)
	}
}
