package rewriting

import (
	"fmt"

	"bdi/internal/core"
	"bdi/internal/rdf"
)

// wellFormedError describes why a query is not well-formed.
type wellFormedError struct {
	Reason string
}

// Error implements error.
func (e *wellFormedError) Error() string { return "rewriting: query is not well-formed: " + e.Reason }

// isWellFormed reports whether the OMQ satisfies Definition 5.1: φ has a
// topological sorting (it is a DAG) and every projected element is a feature
// that appears as a node of φ.
func isWellFormed(v *core.View, omq *OMQ) bool {
	if _, ok := omq.Phi.TopologicalSort(); !ok {
		return false
	}
	for _, p := range omq.Pi {
		if !v.IsFeature(p) || !omq.Phi.ContainsNode(p) {
			return false
		}
	}
	return true
}

// wellFormedQuery implements Algorithm 2: it verifies that the graph pattern
// is acyclic and rewrites projections of concepts into projections of their
// identifier features (IDs are "the default feature"). It returns a new OMQ;
// the input is not modified. An error is raised when the pattern is cyclic
// or a projected concept has no identifier feature.
func wellFormedQuery(v *core.View, omq *OMQ) (*OMQ, error) {
	out := omq.Clone()
	// Line 2-4: the pattern must have a topological sorting.
	if _, ok := out.Phi.TopologicalSort(); !ok {
		return nil, &wellFormedError{Reason: "the graph pattern has at least one cycle"}
	}
	// Lines 5-19: replace concept projections with their ID features.
	for _, p := range append([]rdf.IRI(nil), out.Pi...) {
		if v.IsFeature(p) {
			// Already a feature; ensure it appears in the pattern.
			if !out.Phi.ContainsNode(p) {
				return nil, &wellFormedError{Reason: fmt.Sprintf("projected feature %s does not appear in the graph pattern", v.Compact(p))}
			}
			continue
		}
		if !v.IsConcept(p) {
			return nil, &wellFormedError{Reason: fmt.Sprintf("projected element %s is neither a feature nor a concept of G", v.Compact(p))}
		}
		// Lines 7-14: replace the concept with its first ID feature.
		ids := v.IdentifiersOf(p)
		if len(ids) == 0 {
			return nil, &wellFormedError{Reason: fmt.Sprintf("concept %s has no identifier feature mapped to the sources", v.Compact(p))}
		}
		out.replaceProjection(p, ids[0])
		out.Phi.Add(rdf.T(p, core.GHasFeature, ids[0]))
	}
	if !isWellFormed(v, out) {
		return nil, &wellFormedError{Reason: "projected elements are not features of the graph pattern after rewriting"}
	}
	return out, nil
}
