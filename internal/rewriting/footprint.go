package rewriting

import (
	"bdi/internal/core"
	"bdi/internal/rdf"
)

// queryFootprint derives the invalidation footprint of an expanded OMQ: the
// concepts the query navigates and the features it mentions (projected
// features plus every G:hasFeature object of the expanded pattern,
// including the identifier features added by Algorithm 3). Every ontology
// lookup Algorithms 4-5 and the coverage check issue is keyed on one of
// these elements, so a release whose delta is disjoint from the footprint
// cannot change the rewriting result (edge lookups need no separate
// tracking: a delta providing an edge always lists both endpoint concepts).
func queryFootprint(expanded *ExpandedQuery) core.Footprint {
	features := append([]rdf.IRI(nil), expanded.Query.Pi...)
	for _, t := range expanded.Query.Phi.Triples {
		if p, ok := t.Predicate.(rdf.IRI); ok && p == core.GHasFeature {
			if f, ok := t.Object.(rdf.IRI); ok {
				features = append(features, f)
			}
		}
	}
	return core.NewFootprint(expanded.Concepts, features)
}
