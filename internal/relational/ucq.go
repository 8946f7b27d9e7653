package relational

import (
	"context"
	"sort"
	"strings"

	"bdi/internal/lifecycle"
)

// UnionOfConjunctiveQueries is the result of the paper's query rewriting: the
// union of all covering and minimal walks found for an OMQ, plus the
// attributes the analyst actually requested (projected at execution time).
type UnionOfConjunctiveQueries struct {
	Walks []*Walk
	// RequestedAttributes holds the source-level attributes corresponding to
	// the features the analyst projected; the final result is restricted to
	// per-walk subsets of these.
	RequestedAttributes []string
	// RequestedFeatures holds the ontology-level feature IRIs that the
	// analyst projected, aligned with the walk projections through the
	// attribute-to-feature mapping at execution time.
	RequestedFeatures []string

	// signatures indexes the walks already added so that equivalence
	// deduplication stays O(1) per insertion even for the worst-case
	// experiment, which generates an exponential number of walks.
	signatures map[string]bool
}

// NewUCQ returns an empty union of conjunctive queries.
func NewUCQ() *UnionOfConjunctiveQueries {
	return &UnionOfConjunctiveQueries{signatures: map[string]bool{}}
}

// Add appends a walk, skipping walks equivalent to one already present.
func (u *UnionOfConjunctiveQueries) Add(w *Walk) {
	if u.signatures == nil {
		u.signatures = map[string]bool{}
		for _, existing := range u.Walks {
			u.signatures[existing.Signature()] = true
		}
	}
	sig := w.Signature()
	if u.signatures[sig] {
		return
	}
	u.signatures[sig] = true
	u.Walks = append(u.Walks, w)
}

// Len returns the number of walks.
func (u *UnionOfConjunctiveQueries) Len() int { return len(u.Walks) }

// IsEmpty reports whether no walk answers the query.
func (u *UnionOfConjunctiveQueries) IsEmpty() bool { return len(u.Walks) == 0 }

// Signatures returns the sorted walk signatures, useful for deterministic
// assertions in tests and experiment output.
func (u *UnionOfConjunctiveQueries) Signatures() []string {
	out := make([]string, len(u.Walks))
	for i, w := range u.Walks {
		out[i] = w.Signature()
	}
	sort.Strings(out)
	return out
}

// String renders the UCQ as the union of its walks.
func (u *UnionOfConjunctiveQueries) String() string {
	if u.IsEmpty() {
		return "∅"
	}
	parts := make([]string, len(u.Walks))
	for i, w := range u.Walks {
		parts[i] = w.String()
	}
	return strings.Join(parts, "\n  ∪ ")
}

// WrapperResolver provides access to wrapper outputs during execution: the
// one contract between the executors (compiled and reference) and the
// sources. The wrapper package provides the standard implementations.
type WrapperResolver interface {
	// Fetch returns the current output of the named wrapper, with the
	// pushdown applied at the source, interned into d as a relation in first
	// normal form whose schema marks ID attributes. The zero Pushdown asks
	// for the full output. A cancelled ctx aborts the in-flight source query.
	Fetch(ctx context.Context, wrapper string, p Pushdown, d *ValueDict) (*ColRelation, error)
}

// chargeRelation charges a materialized relation against the tracker using
// the deterministic tuple cost model. Nil-safe on the tracker.
func chargeRelation(t *lifecycle.Tracker, rel *Relation) error {
	n := int64(len(rel.Tuples))
	if err := t.AddRows(n); err != nil {
		return err
	}
	return t.AddBytes(n * int64(lifecycle.TupleCost+lifecycle.CellCost*len(rel.Schema.Attributes)))
}

// Execute evaluates a single walk against the resolver through
// DefaultEngine: it fetches each wrapper, applies the restricted projection,
// then applies the restricted joins. Wrappers without join conditions
// (single-wrapper walks) are returned projected. Source fetches honor ctx,
// materialized relations are charged against the context's
// lifecycle.Tracker, and the join loops check cancellation at chunk
// granularity. ExecuteReference preserves the original tuple-at-a-time
// executor.
func (w *Walk) Execute(ctx context.Context, resolver WrapperResolver) (*Relation, error) {
	return DefaultEngine.ExecuteWalk(ctx, w, resolver)
}

// Execute evaluates the union of conjunctive queries: each walk is executed
// and its result restricted to the requested attributes available in that
// walk; results are unioned and deduplicated. Walks execute in parallel
// through DefaultEngine; the compile loop checks cancellation and the
// wall-time budget between walks and the join loops check at chunk
// granularity, so an exhausted budget or disconnected client aborts
// mid-flight. ExecuteReference preserves the original serial executor.
func (u *UnionOfConjunctiveQueries) Execute(ctx context.Context, resolver WrapperResolver) (*Relation, error) {
	if u.IsEmpty() {
		return NewRelation("∅", Schema{}), nil
	}
	answer, err := DefaultEngine.ExecuteUnion(ctx, u.Walks, resolver, u.execOptions())
	if err != nil {
		return nil, err
	}
	return answer.Relation(), nil
}

// execOptions restricts every walk to the requested attributes it carries.
func (u *UnionOfConjunctiveQueries) execOptions() ExecOptions {
	opts := ExecOptions{Name: "answer"}
	for _, a := range u.RequestedAttributes {
		opts.Output = append(opts.Output, OutputColumn{
			Name: a,
			Attr: func(string) (string, bool) { return a, true },
		})
	}
	return opts
}
