package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bdi/internal/oracle"
	"bdi/internal/rdf"
)

// TestIdentifierWalkMatchesClosure holds isIdentifier and IdentifiersOf to
// the RDFS closure of the oracle package on random subclass graphs: chains
// and cycles among features, plain classes and sc:identifier, edges with
// literal and blank-node objects, some edges in G and some only in a
// mapping graph. It checks again after a release, which View.ChangedSince
// must explain.
func TestIdentifierWalkMatchesClosure(t *testing.T) {
	const ns = "http://ex/idparity/"
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := NewOntology()
		concepts := make([]rdf.IRI, 3)
		for i := range concepts {
			concepts[i] = rdf.IRI(fmt.Sprintf("%sC%d", ns, i))
			if err := o.AddConcept(concepts[i]); err != nil {
				t.Fatal(err)
			}
		}
		features := make([]rdf.IRI, 8)
		for i := range features {
			features[i] = rdf.IRI(fmt.Sprintf("%sf%d", ns, i))
			if err := o.AddFeatureTo(concepts[rng.Intn(len(concepts))], features[i], ""); err != nil {
				t.Fatal(err)
			}
		}
		nodes := append(slices.Clone(features), rdf.SchemaIdentifier)
		for i := 0; i < 4; i++ {
			nodes = append(nodes, rdf.IRI(fmt.Sprintf("%sK%d", ns, i)))
		}
		var inG []rdf.Triple
		for range 4 + rng.Intn(10) {
			var obj rdf.Term = nodes[rng.Intn(len(nodes))]
			switch rng.Intn(8) {
			case 0:
				obj = rdf.NewLiteral(string(rdf.SchemaIdentifier))
			case 1:
				obj = rdf.BlankNode("b")
			}
			tr := rdf.Triple{Subject: nodes[rng.Intn(len(nodes))], Predicate: rdf.RDFSSubClassOf, Object: obj}
			graph := GlobalGraphName
			if rng.Intn(3) == 0 {
				graph = MappingGraphURI("elsewhere")
			}
			if _, err := o.Store().Add(rdf.Quad{Triple: tr, Graph: graph}); err != nil {
				t.Fatal(err)
			}
			if graph == GlobalGraphName {
				inG = append(inG, tr)
			}
		}
		// The blank node reaches sc:identifier, which an IRI-only closure
		// must not follow.
		if _, err := o.Store().Add(rdf.Quad{Triple: rdf.Triple{Subject: rdf.BlankNode("b"), Predicate: rdf.RDFSSubClassOf, Object: rdf.SchemaIdentifier}, Graph: GlobalGraphName}); err != nil {
			t.Fatal(err)
		}

		check := func(when string) {
			t.Helper()
			cl := oracle.ClosureAt(o.Store().Snapshot())
			for _, n := range nodes {
				if got, want := isIdentifier(o.Store().Snapshot(), n), cl.IsSubClassOf(n, rdf.SchemaIdentifier); got != want {
					t.Fatalf("seed %d %s: isIdentifier(%s) = %v, closure says %v", seed, when, n, got, want)
				}
			}
			for _, c := range concepts {
				var want []rdf.IRI
				for _, f := range o.View().FeaturesOf(c) {
					if cl.IsSubClassOf(f, rdf.SchemaIdentifier) {
						want = append(want, f)
					}
				}
				if got := o.View().IdentifiersOf(c); !slices.Equal(got, want) {
					t.Fatalf("seed %d %s: IdentifiersOf(%s) = %v, closure says %v", seed, when, c, got, want)
				}
			}
		}
		check("before the release")

		// A release over a subgraph of G: the concept edge of one feature
		// plus, when there is one, a subclass edge of G.
		f := features[rng.Intn(len(features))]
		c, _ := o.View().ConceptOfFeature(f)
		sub := rdf.NewGraph("")
		sub.Add(rdf.T(c, GHasFeature, f))
		if len(inG) > 0 {
			sub.Add(inG[rng.Intn(len(inG))])
		}
		r := Release{
			Wrapper:  WrapperSpec{Name: "w", Source: "S", IDAttributes: []string{"id"}},
			Subgraph: sub,
			F:        map[string]rdf.IRI{"id": f},
		}
		before := o.Store().Snapshot().Generation()
		if _, err := o.NewRelease(r); err != nil {
			t.Fatal(err)
		}
		if _, ok := o.View().ChangedSince(before); !ok {
			t.Fatalf("seed %d: ChangedSince does not explain the release's generation", seed)
		}
		check("after the release")
	}
}
