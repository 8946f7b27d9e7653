package rewriting

import (
	"context"
	"fmt"
	"maps"
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
	concepts, err := queryConcepts(v, omq)
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
// (step 6) or that the version policy does not admit. ctx is checked before
// each concept's unit.
func intraConceptGeneration(ctx context.Context, v *core.View, eq *ExpandedQuery, opts PolicyOptions) ([]PartialWalks, error) {
	out := make([]PartialWalks, 0, len(eq.Concepts))
	for _, c := range eq.Concepts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pw, err := intraConceptUnit(v, c, featuresRequestedFor(eq.Query, c), opts)
		if err != nil {
			return nil, err
		}
		out = append(out, pw)
	}
	return out, nil
}

// intraConceptUnit runs the per-concept body of Algorithm 4 for one concept
// and its requested features (sorted, including the identifiers added by
// expansion), under the version policy.
func intraConceptUnit(v *core.View, c rdf.IRI, features []rdf.IRI, opts PolicyOptions) (PartialWalks, error) {
	// Step 3: the features requested for this concept.
	if len(features) == 0 {
		return PartialWalks{}, fmt.Errorf("rewriting: concept %s has no requested features after expansion (it lacks an identifier)", v.Compact(c))
	}
	// Steps 4-5: per wrapper, project the attributes mapping to the
	// requested features, counting the features each projection covers.
	type projection struct {
		walk    *relational.Walk
		covered int
	}
	perWrapper := map[rdf.IRI]*projection{}
	for _, f := range features {
		for _, w := range v.WrappersProvidingFeature(c, f) {
			attr, ok := v.AttributeOfFeatureInWrapper(w, f)
			if !ok {
				continue
			}
			p := perWrapper[w]
			if p == nil {
				source, _ := v.SourceOfWrapper(w)
				p = &projection{walk: relational.NewWalk(core.WrapperLocalName(w), core.SourceLocalName(source))}
				perWrapper[w] = p
			}
			ref := &p.walk.Wrappers[0]
			ref.Projection = append(ref.Projection, core.AttributeName(attr))
			p.covered++
		}
	}
	// Step 6: prune wrappers that do not cover all requested features, then
	// those the policy does not admit.
	pw := PartialWalks{Concept: c}
	covering := 0
	for _, w := range slices.Sorted(maps.Keys(perWrapper)) {
		p := perWrapper[w]
		if p.covered < len(features) {
			continue
		}
		covering++
		if wrapperAdmitted(v, opts, w) {
			p.walk.MergeProjections()
			pw.Walks = append(pw.Walks, p.walk)
		}
	}
	switch {
	case covering == 0:
		return PartialWalks{}, fmt.Errorf("rewriting: no wrapper provides all requested features of concept %s", v.Compact(c))
	case len(pw.Walks) == 0:
		return PartialWalks{}, fmt.Errorf("rewriting: under policy %s no wrapper provides concept %s", opts.Policy, v.Compact(c))
	}
	return pw, nil
}

// rewriteCheckEvery is the chunk granularity of cooperative cancellation
// checks in the rewriting loops: the cartesian product of Algorithm 5 grows
// exponentially in the worst case (W^C walks), so a cancelled client must be
// able to abort it mid-window without paying a per-merge check.
const rewriteCheckEvery = 256

// interConceptGeneration implements Algorithm 5 (phase #3): iterate
// over the per-concept partial walks with a sliding window, compute the
// cartesian product of the partial-walk lists (step 7), merge each pair
// (step 8) and, when the two sides share no wrapper, join them through the
// wrapper providing the edge between the two concepts on the ID attributes
// (steps 9-10), as the window's join plan says. A candidate is kept exactly
// when Walk.Validate accepts it, so a pair the plan left unjoined is dropped
// there. The result is the list of candidate walks joining all concepts.
// The cartesian-product loop checks ctx every rewriteCheckEvery merges.
func interConceptGeneration(ctx context.Context, v *core.View, eq *ExpandedQuery, partials []PartialWalks) ([]*relational.Walk, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("rewriting: no partial walks to join")
	}
	merges := 0
	current := partials[0]
	for i := 1; i < len(partials); i++ {
		next := partials[i]
		plan := planJoin(v, eq.Query, current, next)
		var joined []*relational.Walk
		// Step 7: cartesian product of the partial walk lists.
		for _, left := range current.Walks {
			for r, right := range next.Walks {
				if merges++; merges >= rewriteCheckEvery {
					merges = 0
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				// Step 8: merge the two partial walks. A shared wrapper
				// already materializes the join; otherwise steps 9-10 join
				// the two concepts through the plan.
				merged := left.Merge(right)
				if !sharesWrapper(left, right) {
					plan.join(merged, r)
				}
				joined = appendValidWalk(joined, merged)
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

// joinPlan is steps 9-10 of Algorithm 5 resolved once for a pair of
// consecutive concepts. The traversal order is a topological order of φ, so
// an edge of φ between the two runs from the current concept to the next
// one. providers are the wrappers providing that edge that hold an attribute
// of the next concept's first identifier, in the view's order. ids holds,
// per partial walk of the next concept, its wrapper and attribute providing
// that identifier: the first such wrapper in name order (lines 13-14), or
// the zero value. A plan without providers joins nothing: φ has no edge
// between the two concepts, no wrapper provides one, the next concept has
// no identifier, or no edge provider holds it.
type joinPlan struct {
	providers []wrapperAttr
	ids       []wrapperAttr
}

// wrapperAttr names a wrapper of a walk and one of its attributes, as a
// join condition names them.
type wrapperAttr struct{ wrapper, attr string }

func planJoin(v *core.View, q *OMQ, current, next PartialWalks) joinPlan {
	if !edgeInQuery(q, current.Concept, next.Concept) {
		return joinPlan{}
	}
	// Line 12: the ID feature of the concept.
	ids := v.IdentifiersOf(next.Concept)
	if len(ids) == 0 {
		return joinPlan{}
	}
	fID := ids[0]
	var plan joinPlan
	for _, w := range v.WrappersProvidingEdge(current.Concept, next.Concept) {
		if attr, ok := v.AttributeOfFeatureInWrapper(w, fID); ok {
			plan.providers = append(plan.providers, wrapperAttr{core.WrapperLocalName(w), core.AttributeName(attr)})
		}
	}
	if len(plan.providers) == 0 {
		return joinPlan{}
	}
	plan.ids = make([]wrapperAttr, len(next.Walks))
	for i, walk := range next.Walks {
		for _, name := range walk.WrapperNames() {
			if attr, ok := v.AttributeOfFeatureInWrapper(core.WrapperURI(name), fID); ok {
				plan.ids[i] = wrapperAttr{name, core.AttributeName(attr)}
				break
			}
		}
	}
	return plan
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

// join adds to merged, in place, the restricted joins between each edge
// provider of the walk and the next concept's wrapper on the identifier
// (Algorithm 5, lines 15-17). merged is the merge of a current and the r-th
// next partial walk. An edge provider that is itself the identifier's
// wrapper adds no condition; a walk joined through nothing else is
// disconnected, and Validate drops it.
func (p *joinPlan) join(merged *relational.Walk, r int) {
	if len(p.providers) == 0 {
		return
	}
	id := p.ids[r]
	if id.wrapper == "" {
		return
	}
	for _, edge := range p.providers {
		// An edge provider outside this candidate walk would add a wrapper
		// the analyst's concepts do not require; another pair covers it.
		if !merged.HasWrapper(edge.wrapper) || edge.wrapper == id.wrapper {
			continue
		}
		merged.AddJoin(relational.JoinCondition{
			LeftWrapper: edge.wrapper, LeftAttr: edge.attr,
			RightWrapper: id.wrapper, RightAttr: id.attr,
		})
	}
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

// IntraConceptGeneration is Algorithm 4 on the ontology's current view,
// under AllVersions.
func IntraConceptGeneration(o *core.Ontology, eq *ExpandedQuery) ([]PartialWalks, error) {
	return intraConceptGeneration(context.Background(), o.View(), eq, PolicyOptions{})
}

// InterConceptGenerationContext is Algorithm 5 on the ontology's current
// view.
func InterConceptGenerationContext(ctx context.Context, o *core.Ontology, eq *ExpandedQuery, partials []PartialWalks) ([]*relational.Walk, error) {
	return interConceptGeneration(ctx, o.View(), eq, partials)
}
