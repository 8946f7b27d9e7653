package rewriting

import (
	"context"
	"fmt"
	"slices"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
)

// ExpandedQuery is the output of phase #1 (Algorithm 3): the list of
// query-related concepts in traversal order plus the query expanded with the
// identifier features of every concept.
type ExpandedQuery struct {
	Concepts []rdf.IRI
	Query    *OMQ
}

// QueryExpansion implements Algorithm 3 (phase #1): identify the concepts of
// the query in topological order (step 1) and expand the graph pattern with
// the ID features of every concept, which are needed to perform joins in the
// later phases (step 2).
func queryExpansion(v *core.View, omq *OMQ) (*ExpandedQuery, error) {
	concepts, err := QueryConcepts(v, omq)
	if err != nil {
		return nil, err
	}
	expanded := omq.Clone()
	for _, c := range concepts {
		for _, fID := range v.IdentifiersOf(c) {
			expanded.Phi.Add(rdf.T(c, core.GHasFeature, fID))
		}
	}
	return &ExpandedQuery{Concepts: concepts, Query: expanded}, nil
}

// PartialWalks groups, for one concept of the query, the alternative partial
// walks (one per wrapper surviving the pruning step) that provide all the
// requested features of that concept.
type PartialWalks struct {
	Concept rdf.IRI
	Walks   []*relational.Walk
}

// intraConceptGeneration implements Algorithm 4 (phase #2): for each concept
// of the expanded query, find the wrappers whose LAV mapping provides the
// requested features (steps 3-5), build one partial walk per wrapper, and
// prune wrappers that do not provide every requested feature of the concept
// (step 6). ctx is checked before each concept's unit.
func intraConceptGeneration(ctx context.Context, v *core.View, eq *ExpandedQuery) ([]PartialWalks, error) {
	out := make([]PartialWalks, 0, len(eq.Concepts))
	for _, c := range eq.Concepts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pw, err := intraConceptUnit(v, c, featuresRequestedFor(eq.Query, c))
		if err != nil {
			return nil, err
		}
		out = append(out, pw)
	}
	return out, nil
}

// intraConceptUnit runs the per-concept body of Algorithm 4 for one concept
// and its requested features (sorted, including the identifiers added by
// expansion).
func intraConceptUnit(v *core.View, c rdf.IRI, features []rdf.IRI) (PartialWalks, error) {
	// Step 3: the features requested for this concept.
	if len(features) == 0 {
		return PartialWalks{}, fmt.Errorf("rewriting: concept %s has no requested features after expansion (it lacks an identifier)", v.Compact(c))
	}
	// Steps 4-5: per wrapper, project the attributes mapping to the
	// requested features.
	walksPerWrapper := map[rdf.IRI]*relational.Walk{}
	for _, f := range features {
		for _, w := range v.WrappersProvidingFeature(c, f) {
			attr, ok := v.AttributeOfFeatureInWrapper(w, f)
			if !ok {
				continue
			}
			walk, exists := walksPerWrapper[w]
			if !exists {
				source, _ := v.SourceOfWrapper(w)
				walk = relational.NewWalk(core.WrapperLocalName(w), core.SourceLocalName(source))
				walksPerWrapper[w] = walk
			}
			ref, _ := walk.Ref(core.WrapperLocalName(w))
			ref.Projection = append(ref.Projection, core.AttributeName(attr))
		}
	}
	// Step 6: prune wrappers that do not cover all requested features.
	pw := PartialWalks{Concept: c}
	wrapperIRIs := make([]rdf.IRI, 0, len(walksPerWrapper))
	for w := range walksPerWrapper {
		wrapperIRIs = append(wrapperIRIs, w)
	}
	slices.Sort(wrapperIRIs)
	for _, w := range wrapperIRIs {
		walk := walksPerWrapper[w]
		walk.MergeProjections()
		featuresInWalk := map[rdf.IRI]bool{}
		ref, _ := walk.Ref(core.WrapperLocalName(w))
		for _, attrName := range ref.Projection {
			attrURI := core.AttributeURI(ref.Source, trimSourcePrefix(attrName, ref.Source))
			if f, ok := v.FeatureOfAttribute(attrURI); ok {
				featuresInWalk[f] = true
			}
		}
		covers := true
		for _, f := range features {
			if !featuresInWalk[f] {
				covers = false
				break
			}
		}
		if covers {
			pw.Walks = append(pw.Walks, walk)
		}
	}
	if len(pw.Walks) == 0 {
		return PartialWalks{}, fmt.Errorf("rewriting: no wrapper provides all requested features of concept %s", v.Compact(c))
	}
	return pw, nil
}

// trimSourcePrefix removes a leading "source/" from a qualified attribute
// name so that AttributeURI does not double-prefix it.
func trimSourcePrefix(attrName, source string) string {
	prefix := source + "/"
	if len(attrName) > len(prefix) && attrName[:len(prefix)] == prefix {
		return attrName[len(prefix):]
	}
	return attrName
}

// rewriteCheckEvery is the chunk granularity of cooperative cancellation
// checks in the rewriting loops: the cartesian product of Algorithm 5 grows
// exponentially in the worst case (W^C walks), so a cancelled client must be
// able to abort it mid-window without paying a per-merge check.
const rewriteCheckEvery = 256

// interConceptGeneration implements Algorithm 5 (phase #3): iterate
// over the per-concept partial walks with a sliding window, compute the
// cartesian product of the partial-walk lists (step 7), merge each pair
// (step 8) and, when the two sides share no wrapper, discover the wrapper
// providing the edge between the two concepts and the ID attributes to join
// on (steps 9-10). The result is the list of candidate walks joining all
// concepts. The cartesian-product loop checks ctx every rewriteCheckEvery
// merges.
func interConceptGeneration(ctx context.Context, v *core.View, eq *ExpandedQuery, partials []PartialWalks) ([]*relational.Walk, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("rewriting: no partial walks to join")
	}
	merges := 0
	current := partials[0]
	for i := 1; i < len(partials); i++ {
		next := partials[i]
		var joined []*relational.Walk
		// Step 7: cartesian product of the partial walk lists.
		for _, left := range current.Walks {
			for _, right := range next.Walks {
				if merges++; merges >= rewriteCheckEvery {
					merges = 0
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				// Step 8: merge the two partial walks.
				merged := left.Merge(right)
				if sharesWrapper(left, right) {
					// The join is already materialized by the shared wrapper.
					joined = appendValidWalk(joined, merged)
					continue
				}
				// Steps 9-10: discover how to join the two concepts.
				extended, ok := discoverJoin(v, eq, current.Concept, next.Concept, left, right, merged)
				if ok {
					joined = appendValidWalk(joined, extended)
				}
			}
		}
		if len(joined) == 0 {
			return nil, fmt.Errorf("rewriting: concepts %s and %s cannot be joined with the registered wrappers",
				v.Compact(current.Concept), v.Compact(next.Concept))
		}
		current = PartialWalks{Concept: next.Concept, Walks: joined}
	}
	return current.Walks, nil
}

func sharesWrapper(a, b *relational.Walk) bool {
	for _, ref := range a.Wrappers {
		if b.HasWrapper(ref.Wrapper) {
			return true
		}
	}
	return false
}

func appendValidWalk(walks []*relational.Walk, w *relational.Walk) []*relational.Walk {
	if err := w.Validate(); err != nil {
		return walks
	}
	return append(walks, w)
}

// discoverJoin implements steps 9-10 of Algorithm 5 for one direction (and
// its mirror): find the wrappers providing the edge between the two
// concepts, the ID feature of the concept on the ID side, and the physical
// attributes to equi-join on.
func discoverJoin(v *core.View, eq *ExpandedQuery, currentC, nextC rdf.IRI, left, right, merged *relational.Walk) (*relational.Walk, bool) {
	if !edgeInQuery(eq.Query, currentC, nextC) && !edgeInQuery(eq.Query, nextC, currentC) {
		return nil, false
	}
	// Step 9: wrappers providing the edge, in both directions.
	wrappersLtoR := v.WrappersProvidingEdge(currentC, nextC)
	wrappersRtoL := v.WrappersProvidingEdge(nextC, currentC)
	switch {
	case len(wrappersLtoR) > 0:
		return joinViaEdge(v, nextC, wrappersLtoR, right, merged)
	case len(wrappersRtoL) > 0:
		return joinViaEdge(v, currentC, wrappersRtoL, left, merged)
	default:
		return nil, false
	}
}

// edgeInQuery reports whether the expanded query contains an object-property
// edge from one concept to the other.
func edgeInQuery(q *OMQ, from, to rdf.IRI) bool {
	for _, t := range q.Phi.Triples {
		s, okS := t.Subject.(rdf.IRI)
		obj, okO := t.Object.(rdf.IRI)
		if okS && okO && s == from && obj == to {
			return true
		}
	}
	return false
}

// joinViaEdge adds the restricted join between the wrapper(s) providing the
// concept edge and the wrapper providing the ID of the concept on the "ID
// side" (idConcept). idSideWalk is the partial walk whose wrapper provides
// idConcept's data (Algorithm 5, lines 12-17).
func joinViaEdge(v *core.View, idConcept rdf.IRI, edgeWrappers []rdf.IRI, idSideWalk, merged *relational.Walk) (*relational.Walk, bool) {
	// Line 12: the ID feature of the concept.
	ids := v.IdentifiersOf(idConcept)
	if len(ids) == 0 {
		return nil, false
	}
	fID := ids[0]
	// Line 13: the wrapper of the ID-side partial walk that provides fID.
	idWrapper, idAttr, ok := findWrapperWithID(v, idSideWalk, fID)
	if !ok {
		return nil, false
	}
	// Lines 15-17: for each wrapper contributing the edge, join it with the
	// ID-side wrapper on the physical attributes of fID. Joins are collected
	// first so the (allocation-heavy) walk clone only happens for candidate
	// walks that actually join.
	var joins []relational.JoinCondition
	added := false
	for _, ew := range edgeWrappers {
		edgeWrapperName := core.WrapperLocalName(ew)
		if !merged.HasWrapper(edgeWrapperName) {
			// The edge provider is not part of this candidate walk; joining
			// through it would silently add a wrapper the analyst's concepts do
			// not require, so skip it (another cartesian-product pair covers it).
			continue
		}
		attLeft, ok := v.AttributeOfFeatureInWrapper(ew, fID)
		if !ok {
			continue
		}
		if edgeWrapperName == idWrapper {
			// Same wrapper on both sides: the join is already materialized.
			added = true
			continue
		}
		joins = append(joins, relational.JoinCondition{
			LeftWrapper:  edgeWrapperName,
			LeftAttr:     core.AttributeName(attLeft),
			RightWrapper: idWrapper,
			RightAttr:    idAttr,
		})
		added = true
	}
	if !added {
		return nil, false
	}
	out := merged.Clone()
	for _, j := range joins {
		out.AddJoin(j)
	}
	return out, true
}

// findWrapperWithID returns the wrapper of the walk that provides the given
// ID feature, along with the qualified physical attribute name (Algorithm 5,
// lines 13-14).
func findWrapperWithID(v *core.View, walk *relational.Walk, fID rdf.IRI) (wrapperName, attrName string, ok bool) {
	for _, name := range walk.WrapperNames() {
		w := core.WrapperURI(name)
		if attr, found := v.AttributeOfFeatureInWrapper(w, fID); found {
			return name, core.AttributeName(attr), true
		}
	}
	return "", "", false
}

// The frozen bench module times the phases one by one on an *core.Ontology;
// each of these adapters pins the ontology's current view for its phase.

// WellFormedQuery is Algorithm 2 on the ontology's current view.
func WellFormedQuery(o *core.Ontology, omq *OMQ) (*OMQ, error) {
	return wellFormedQuery(o.View(), omq)
}

// QueryExpansion is Algorithm 3 on the ontology's current view.
func QueryExpansion(o *core.Ontology, omq *OMQ) (*ExpandedQuery, error) {
	return queryExpansion(o.View(), omq)
}

// IntraConceptGeneration is Algorithm 4 on the ontology's current view.
func IntraConceptGeneration(o *core.Ontology, eq *ExpandedQuery) ([]PartialWalks, error) {
	return intraConceptGeneration(context.Background(), o.View(), eq)
}

// InterConceptGenerationContext is Algorithm 5 on the ontology's current
// view.
func InterConceptGenerationContext(ctx context.Context, o *core.Ontology, eq *ExpandedQuery, partials []PartialWalks) ([]*relational.Walk, error) {
	return interConceptGeneration(ctx, o.View(), eq, partials)
}
