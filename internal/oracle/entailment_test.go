package oracle

import (
	"testing"

	"bdi/internal/core"
)

// identifierTaxonomyQuery asks for every identifier feature of G: the
// question the paper's RDFS entailment regime answers (§2).
const identifierTaxonomyQuery = `
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX sc: <http://schema.org/>
SELECT ?f WHERE { ?f rdfs:subClassOf sc:identifier . }`

// TestEntailmentStrategiesAgree checks the two ways of honouring RDFS
// entailment on the SUPERSEDE ontology: query-time inference, and
// materializing the closure before a plain evaluation. Both return the same
// three identifier features.
func TestEntailmentStrategiesAgree(t *testing.T) {
	build := func() *core.Ontology {
		o, err := core.BuildSupersedeOntology(true)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	inferred, err := NewEvaluator(build().Store()).Select(identifierTaxonomyQuery)
	if err != nil {
		t.Fatal(err)
	}
	s := build().Store()
	added, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("materialization added nothing")
	}
	materialized, err := NewPlainEvaluator(s).Select(identifierTaxonomyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if inferred.Len() != 3 {
		t.Fatalf("query-time inference returned %d solutions, want 3\n%s", inferred.Len(), inferred)
	}
	if got, want := materialized.String(), inferred.String(); got != want {
		t.Fatalf("strategies disagree\nquery-time:\n%s\nmaterialized:\n%s", want, got)
	}
}
