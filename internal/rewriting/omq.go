// Package rewriting implements the paper's query answering machinery:
// ontology-mediated queries (OMQs) over the Global graph are checked for
// well-formedness (Algorithm 2), expanded with identifiers (Algorithm 3),
// resolved against the LAV mappings per concept (Algorithm 4, intra-concept
// generation) and joined across concepts (Algorithm 5, inter-concept
// generation), producing a union of conjunctive queries (walks) over the
// wrappers that can be executed by the relational layer.
//
// This is the read-dominated hot path of Figure 8: a rewrite issues many
// small ontology lookups (covering wrappers per triple, edge providers,
// identifier features, attribute resolution). A rewrite pins one core.View
// and makes every lookup on it: the view reads one lock-free store snapshot
// and memoizes its lookups, so a rewrite sees one generation of the ontology
// and concurrent rewrites never block each other.
//
// # Incremental rewriting under evolution
//
// Rewriting results only depend on the ontology, and release-based
// evolution (Algorithm 1) bounds what one release can change: core
// publishes, per release, a ReleaseDelta naming the concepts, features,
// attributes and edges the release can affect. Cache (cache.go) exploits
// this: it memoizes whole rewriting results tagged with a Footprint — the
// query's concepts and requested features (footprint.go). When the store
// generation moves, only entries whose footprint intersects a release delta
// are retired; queries over untouched concepts keep their memoized UCQ even
// though the ontology evolved, and a retired entry is rebuilt by Algorithms
// 2-5 on its next lookup.
//
// Mutations not explained by release deltas (Global-graph edits, direct
// store writes) flush the cache wholesale — correctness never depends on a
// generation being explained. A parity test proves the cache's UCQ output
// byte-identical to from-scratch Algorithm 2-5 runs across randomized
// release schedules, and a race hammer proves no served walk set ever
// mixes two store generations.
package rewriting

import (
	"fmt"
	"slices"
	"strings"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/sparql"
)

// OMQ is an ontology-mediated query in the paper's formalization
// Q_G = ⟨π, φ⟩: π is the set of projected feature IRIs and φ is a connected
// subgraph pattern of G.
type OMQ struct {
	// Pi is the list of projected elements (feature IRIs after
	// well-formedness rewriting; possibly concept IRIs before). Pi keeps
	// its insertion order: it determines the output column order.
	Pi []rdf.IRI
	// Phi is the graph pattern over G.
	Phi *rdf.Graph
}

// Clone returns a deep copy of the query.
func (q *OMQ) Clone() *OMQ {
	return &OMQ{Pi: append([]rdf.IRI(nil), q.Pi...), Phi: q.Phi.Clone()}
}

// replaceProjection substitutes old with new in π (used by Algorithm 2 to
// replace concept projections with their IDs).
func (q *OMQ) replaceProjection(old, new rdf.IRI) {
	for i, p := range q.Pi {
		if p == old {
			q.Pi[i] = new
			return
		}
	}
}

// String renders the OMQ compactly.
func (q *OMQ) String() string {
	parts := make([]string, len(q.Pi))
	for i, p := range q.Pi {
		parts[i] = p.LocalName()
	}
	return fmt.Sprintf("⟨π={%s}, φ=%d triples⟩", strings.Join(parts, ", "), q.Phi.Len())
}

// NewOMQ builds an OMQ directly from projected elements and pattern triples.
func NewOMQ(pi []rdf.IRI, pattern ...rdf.Triple) *OMQ {
	g := rdf.NewGraph("")
	g.Add(pattern...)
	return &OMQ{Pi: append([]rdf.IRI(nil), pi...), Phi: g}
}

// fromSPARQL converts a restricted SPARQL query (the template of Code 3)
// into its ⟨π, φ⟩ representation: the projected variables must be bound by
// the VALUES table to attribute IRIs, and the WHERE clause must contain only
// constant triple patterns over G. A clause ⟨π, φ⟩ cannot express — FILTER,
// LIMIT, OFFSET, or a FROM or GRAPH naming another graph than G — is an
// error, not dropped; DISTINCT is accepted, as answers are sets anyway.
func fromSPARQL(q *sparql.Query) (*OMQ, error) {
	if err := unexpressibleClause(q); err != nil {
		return nil, err
	}
	bindings, err := q.ValueBindings()
	if err != nil {
		return nil, err
	}
	omq := &OMQ{Phi: rdf.NewGraph("")}
	for _, v := range q.ProjectedVariables() {
		bound, ok := bindings[v]
		if !ok {
			return nil, fmt.Errorf("rewriting: projected variable ?%s is not bound by the VALUES clause (the restricted OMQ template requires it)", v)
		}
		iri, ok := bound.(rdf.IRI)
		if !ok {
			return nil, fmt.Errorf("rewriting: projected variable ?%s must be bound to an IRI, got %v", v, bound)
		}
		omq.Pi = append(omq.Pi, iri)
	}
	for _, tp := range q.Where {
		s, okS := tp.Subject.(rdf.IRI)
		p, okP := tp.Predicate.(rdf.IRI)
		o, okO := tp.Object.(rdf.IRI)
		if !okS || !okP || !okO {
			return nil, fmt.Errorf("rewriting: the restricted OMQ template only allows constant IRIs in the graph pattern, got %v", tp)
		}
		omq.Phi.Add(rdf.T(s, p, o))
	}
	if omq.Phi.Len() == 0 {
		return nil, fmt.Errorf("rewriting: the OMQ graph pattern is empty")
	}
	if !omq.Phi.IsConnected() {
		return nil, fmt.Errorf("rewriting: the OMQ graph pattern must be a connected subgraph of G")
	}
	return omq, nil
}

// unexpressibleClause names the first clause of q that an OMQ cannot carry.
func unexpressibleClause(q *sparql.Query) error {
	const template = "rewriting: the restricted OMQ template (Code 3) has no "
	switch {
	case len(q.Filters) > 0:
		return fmt.Errorf(template+"FILTER clause, got %s", q.Filters[0])
	case q.Limit >= 0:
		return fmt.Errorf(template+"LIMIT clause, got LIMIT %d", q.Limit)
	case q.Offset != 0:
		return fmt.Errorf(template+"OFFSET clause, got OFFSET %d", q.Offset)
	case q.From != "" && q.From != core.GlobalGraphName:
		return fmt.Errorf(template+"FROM clause other than FROM <%s>, got FROM <%s>", core.GlobalGraphName, q.From)
	}
	for _, tp := range q.Where {
		if tp.Graph != nil && tp.Graph != core.GlobalGraphName {
			return fmt.Errorf(template+"GRAPH block other than GRAPH <%s>, got %s", core.GlobalGraphName, tp)
		}
	}
	return nil
}

// ParseOMQ parses SPARQL text and converts it to an OMQ.
func ParseOMQ(text string) (*OMQ, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	return fromSPARQL(q)
}

// queryConcepts returns the concepts mentioned in the pattern, in
// topological order of φ (the traversal order used by Algorithm 3).
func queryConcepts(v *core.View, omq *OMQ) ([]rdf.IRI, error) {
	order, ok := omq.Phi.TopologicalSort()
	if !ok {
		return nil, fmt.Errorf("rewriting: the OMQ graph pattern has at least one cycle")
	}
	var concepts []rdf.IRI
	for _, node := range order {
		iri, isIRI := node.(rdf.IRI)
		if !isIRI {
			continue
		}
		if v.IsConcept(iri) {
			concepts = append(concepts, iri)
		}
	}
	if len(concepts) == 0 {
		return nil, fmt.Errorf("rewriting: the OMQ does not mention any concept of G")
	}
	return concepts, nil
}

// featuresRequestedFor returns the features of concept c requested by the
// pattern (objects of ⟨c, G:hasFeature, f⟩ triples in φ), sorted.
func featuresRequestedFor(omq *OMQ, c rdf.IRI) []rdf.IRI {
	var out []rdf.IRI
	for _, t := range omq.Phi.Triples {
		p, okP := t.Predicate.(rdf.IRI)
		s, okS := t.Subject.(rdf.IRI)
		f, okO := t.Object.(rdf.IRI)
		if okP && okS && okO && p == core.GHasFeature && s == c {
			out = append(out, f)
		}
	}
	slices.Sort(out)
	return out
}
