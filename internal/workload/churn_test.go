package workload

import (
	"context"
	"testing"

	"bdi/internal/rewriting"
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
