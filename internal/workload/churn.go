package workload

import (
	"fmt"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/rewriting"
	"bdi/internal/wrapper"
)

// EvolutionChurn is the evolution-churn workload: the Figure 8 worst-case
// query interleaved with wrapper releases. Unrelated releases register new
// wrappers for side concepts the query never touches — under delta-driven
// invalidation the memoized rewriting must survive them — while related
// releases add a wrapper to the first chain concept, growing the walk count
// and forcing an (incremental) recompute.
type EvolutionChurn struct {
	*WorstCase
	// SideConcepts is the number of side concepts available for unrelated
	// releases.
	SideConcepts int

	unrelated int
	related   int
}

// sideConceptIRI returns the IRI of the i-th side concept (0-based).
func sideConceptIRI(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%sSide%d", NSWorst, i)) }

// sideIDFeature returns the identifier feature of the i-th side concept.
func sideIDFeature(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%sside%d_id", NSWorst, i)) }

// sideValueFeature returns the non-identifier feature of the i-th side concept.
func sideValueFeature(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%sside%d_value", NSWorst, i)) }

// BuildEvolutionChurn builds the worst-case setting plus sideConcepts
// disconnected side concepts (each with an ID and a value feature, no
// wrappers yet). Side-concept releases are registered by
// RegisterUnrelatedRelease during the run.
func BuildEvolutionChurn(concepts, wrappersPerConcept, sideConcepts int) (*EvolutionChurn, error) {
	if sideConcepts < 1 {
		return nil, fmt.Errorf("workload: side concepts must be positive")
	}
	wc, err := BuildWorstCase(concepts, wrappersPerConcept)
	if err != nil {
		return nil, err
	}
	o := wc.Ontology
	for i := 0; i < sideConcepts; i++ {
		if err := o.AddConcept(sideConceptIRI(i)); err != nil {
			return nil, err
		}
		if err := o.AddIdentifier(sideConceptIRI(i), sideIDFeature(i), rdf.XSDInteger); err != nil {
			return nil, err
		}
		if err := o.AddFeatureTo(sideConceptIRI(i), sideValueFeature(i), rdf.XSDDouble); err != nil {
			return nil, err
		}
	}
	return &EvolutionChurn{WorstCase: wc, SideConcepts: sideConcepts}, nil
}

// RegisterUnrelatedRelease registers a new wrapper (from a fresh data
// source) for the next side concept, round-robin. Its delta touches only
// that side concept and its features — never the chain the worst-case
// query navigates.
func (ec *EvolutionChurn) RegisterUnrelatedRelease() (*core.ReleaseResult, error) {
	i := ec.unrelated % ec.SideConcepts
	ec.unrelated++
	name := fmt.Sprintf("w_side%d_%d", i, ec.unrelated)
	source := fmt.Sprintf("S_side%d_%d", i, ec.unrelated)
	idAttr := fmt.Sprintf("side%d_id", i)
	valueAttr := fmt.Sprintf("side%d_value", i)
	spec := core.WrapperSpec{
		Name:            name,
		Source:          source,
		IDAttributes:    []string{idAttr},
		NonIDAttributes: []string{valueAttr},
	}
	g := rdf.NewGraph("")
	g.Add(
		rdf.T(sideConceptIRI(i), core.GHasFeature, sideIDFeature(i)),
		rdf.T(sideConceptIRI(i), core.GHasFeature, sideValueFeature(i)),
	)
	f := map[string]rdf.IRI{idAttr: sideIDFeature(i), valueAttr: sideValueFeature(i)}
	schema := relational.NewSchema([]string{idAttr}, []string{valueAttr})
	rows := []relational.Tuple{{idAttr: 0, valueAttr: float64(i)}}
	return ec.release(core.Release{Wrapper: spec, Subgraph: g, F: f}, wrapper.NewMemory(name, source, schema, rows))
}

// RegisterRelatedRelease registers one more wrapper for the first chain
// concept (same shape as the builder's wrappers: the concept's ID and
// value plus, when the chain continues, the edge and the next concept's
// ID). Its delta intersects the worst-case query footprint, so memoized
// results for that query must be retired; the expected walk count becomes
// ExpectedWalks().
func (ec *EvolutionChurn) RegisterRelatedRelease() (*core.ReleaseResult, error) {
	ec.related++
	name := fmt.Sprintf("w_c0_rel%d", ec.related)
	source := fmt.Sprintf("S_c0_rel%d", ec.related)
	spec := core.WrapperSpec{
		Name:            name,
		Source:          source,
		IDAttributes:    []string{"c0_id"},
		NonIDAttributes: []string{"c0_value"},
	}
	g := rdf.NewGraph("")
	g.Add(
		rdf.T(conceptIRI(0), core.GHasFeature, idFeature(0)),
		rdf.T(conceptIRI(0), core.GHasFeature, valueFeature(0)),
	)
	f := map[string]rdf.IRI{"c0_id": idFeature(0), "c0_value": valueFeature(0)}
	if ec.Concepts > 1 {
		spec.IDAttributes = append(spec.IDAttributes, "c1_id")
		g.Add(
			rdf.T(conceptIRI(0), edgeProperty(0), conceptIRI(1)),
			rdf.T(conceptIRI(1), core.GHasFeature, idFeature(1)),
		)
		f["c1_id"] = idFeature(1)
	}
	return ec.release(core.Release{Wrapper: spec, Subgraph: g, F: f}, worstCaseWrapper(name, source, 0, ec.Concepts > 1, 3))
}

// release registers the wrapper before Algorithm 1 publishes the release,
// so a reader that rewrites to the release's walks finds the wrapper, and
// undoes the registration if the release is not published.
func (ec *EvolutionChurn) release(r core.Release, w wrapper.Wrapper) (*core.ReleaseResult, error) {
	undo := ec.Registry.Register(w)
	res, err := ec.Ontology.NewRelease(r)
	if res == nil {
		undo()
	}
	return res, err
}

// ExpectedWalks returns the covering and minimal walk count of the
// worst-case query given the related releases registered so far:
// (W + related) * W^(C-1).
func (ec *EvolutionChurn) ExpectedWalks() int {
	n := ec.WrappersPerConcept + ec.related
	for i := 1; i < ec.Concepts; i++ {
		n *= ec.WrappersPerConcept
	}
	return n
}

// SideQuery returns an OMQ over one side concept (projecting its value
// feature). It is answerable once RegisterUnrelatedRelease has registered
// a wrapper for that side concept.
func (ec *EvolutionChurn) SideQuery(i int) *rewriting.OMQ {
	return rewriting.NewOMQ(
		[]rdf.IRI{sideValueFeature(i)},
		rdf.T(sideConceptIRI(i), core.GHasFeature, sideValueFeature(i)),
	)
}

// RelatedReleases returns how many related releases were registered.
func (ec *EvolutionChurn) RelatedReleases() int { return ec.related }
