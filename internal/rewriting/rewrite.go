package rewriting

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"bdi/internal/core"
	"bdi/internal/obs"
	"bdi/internal/rdf"
	"bdi/internal/relational"
)

// coverageChecker decides the two properties of the problem statement (§2.3)
// for candidate walks over one query pattern: a walk is covering when the
// union of the LAV mapping graphs of its wrappers subsumes the pattern, and
// minimal when it is covering and removing any wrapper breaks coverage. It
// holds, for each triple of the pattern, the names of the wrappers whose LAV
// mapping graph contains it. Built once per pattern (the per-triple wrapper
// sets are memoized by the view), it turns every coverage and minimality
// check into set membership on the names walks carry — no mapping graphs are
// materialized or merged per walk.
type coverageChecker struct {
	sets []map[string]bool
	sole []bool // covers' scratch: per wrapper, whether it alone covers a triple
}

func newCoverageChecker(v *core.View, phi *rdf.Graph) *coverageChecker {
	if phi == nil {
		return &coverageChecker{}
	}
	c := &coverageChecker{sets: make([]map[string]bool, len(phi.Triples))}
	for i, t := range phi.Triples {
		covering := v.WrappersCoveringTriple(t)
		set := make(map[string]bool, len(covering))
		for _, w := range covering {
			set[core.WrapperLocalName(w)] = true
		}
		c.sets[i] = set
	}
	return c
}

// covers reports, in one pass over the pattern, whether the named wrappers,
// all distinct, jointly cover every triple of it, and whether they are
// minimal too: no single one can be dropped without breaking coverage. A
// wrapper can be dropped exactly when no triple is covered by it alone.
func (c *coverageChecker) covers(names []string) (covering, minimal bool) {
	c.sole = append(c.sole[:0], make([]bool, len(names))...)
	needed := 0
	for _, set := range c.sets {
		coverer, n := 0, 0
		for i, name := range names {
			if set[name] {
				coverer, n = i, n+1
			}
		}
		switch {
		case n == 0:
			return false, false
		case n == 1 && !c.sole[coverer]:
			c.sole[coverer] = true
			needed++
		}
	}
	return true, len(names) == 1 || needed == len(names)
}

// Rewriter is the uncached rewriting of an ontology, kept for the frozen
// bench module, which pins its constructor and methods. Cache and
// RewriteWithPolicy are the rewriting entry points; Result.Execute runs a
// result.
type Rewriter struct {
	Ontology *core.Ontology
}

// NewRewriter returns a rewriter over the ontology.
func NewRewriter(o *core.Ontology) *Rewriter {
	return &Rewriter{Ontology: o}
}

// Result captures the outcome of rewriting an OMQ on one view of the
// ontology. It is immutable, and it keeps what serving it again would
// re-derive: its rendered view and, once executed, its compiled union
// program. It holds no ontology and no core.View, so it pins no store
// snapshot, and its output columns stay those of the generation it was
// rewritten on.
type Result struct {
	// Expanded is the query after Algorithm 3, with the traversal order of
	// its concepts: the cache's footprint and the view's concepts.
	Expanded *ExpandedQuery
	// UCQ is the union of covering and minimal walks over the wrappers.
	UCQ *relational.UnionOfConjunctiveQueries

	// columns are the answer's output columns, one per requested feature,
	// and union is UCQ projected onto them.
	columns  []relational.OutputColumn
	union    *relational.Union
	viewOnce sync.Once
	viewJSON []byte
}

// View is the rendered rewriting every query reply opens with: the walks in
// the paper's notation, their sorted signatures and the traversed concepts.
type View struct {
	Walks      []string `json:"walks"`
	Signatures []string `json:"signatures"`
	Concepts   []string `json:"concepts"`
}

// ViewJSON returns the result's View as encoding/json marshals it, rendered
// on first use and kept with the result. Callers must not modify it.
func (r *Result) ViewJSON() []byte {
	r.viewOnce.Do(func() {
		v := View{Signatures: r.UCQ.Signatures()}
		if n := len(r.UCQ.Walks); n > 0 {
			v.Walks = make([]string, 0, n)
		}
		for _, walk := range r.UCQ.Walks {
			v.Walks = append(v.Walks, walk.String())
		}
		for _, c := range r.Expanded.Concepts {
			v.Concepts = append(v.Concepts, string(c))
		}
		r.viewJSON, _ = json.Marshal(v) // strings always marshal
	})
	return r.viewJSON
}

// Rewrite is RewriteContext without cancellation.
func (r *Rewriter) Rewrite(omq *OMQ) (*Result, error) {
	return r.RewriteContext(context.Background(), omq)
}

// RewriteContext is RewriteWithPolicy under AllVersions: Algorithms 2-5 on
// the ontology's current view, uncached.
func (r *Rewriter) RewriteContext(ctx context.Context, omq *OMQ) (*Result, error) {
	return RewriteWithPolicy(ctx, r.Ontology, omq, PolicyOptions{Policy: AllVersions})
}

// RewriteWithPolicy runs Algorithms 2-5 on the given OMQ, all on one view of
// the ontology, and returns the union of conjunctive queries over the
// wrappers the policy admits: Algorithm 4 drops the other wrappers, which is
// the only difference a policy makes. The phase boundaries and the
// (potentially exponential) inter-concept generation and coverage loops
// check ctx cooperatively, so a cancelled client or an expired deadline
// aborts a pathological rewrite mid-flight.
func RewriteWithPolicy(ctx context.Context, o *core.Ontology, omq *OMQ, opts PolicyOptions) (*Result, error) {
	return rewriteOn(ctx, o.View(), omq, opts)
}

// rewriteOn runs Algorithms 2-5 on one view: the one sequence behind the
// policy rewrite and the rewriting cache.
func rewriteOn(ctx context.Context, v *core.View, omq *OMQ, opts PolicyOptions) (*Result, error) {
	wf, err := wellFormedQuery(v, omq)
	if err != nil {
		return nil, err
	}
	expanded, err := queryExpansion(v, wf)
	if err != nil {
		return nil, err
	}
	partials, err := intraConceptGeneration(ctx, v, expanded, opts)
	if err != nil {
		return nil, err
	}
	actx, aspan := obs.StartSpan(ctx, "rewrite.assemble")
	defer aspan.End()
	return assemble(actx, v, wf, expanded, partials)
}

// assemble runs Algorithm 5 over the per-concept partial walks, filters the
// candidates with the coverage and minimality properties and declares the
// output columns, all on the view.
func assemble(ctx context.Context, v *core.View, wf *OMQ, expanded *ExpandedQuery, partials []PartialWalks) (*Result, error) {
	walks, err := interConceptGeneration(ctx, v, expanded, partials)
	if err != nil {
		return nil, err
	}

	ucq := relational.NewUCQ()
	checker := newCoverageChecker(v, wf.Phi)
	for i, w := range walks {
		if i%rewriteCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if _, minimal := checker.covers(w.WrapperNames()); !minimal {
			continue
		}
		ucq.Add(w)
	}
	if ucq.IsEmpty() {
		return nil, fmt.Errorf("rewriting: no covering and minimal walk answers the query %s", wf)
	}
	// A result can live long in the cache; the dedup index Add kept need not.
	ucq = &relational.UnionOfConjunctiveQueries{Walks: ucq.Walks}
	columns := featureColumns(v, wf.Pi, ucq.Walks)
	return &Result{Expanded: expanded, UCQ: ucq,
		columns: columns, union: relational.NewUnion(ucq.Walks, "answer", columns)}, nil
}

// Execute executes the result's union of walks on the compiled engine
// (relational.Union.Execute), one column per requested feature: the first
// execution compiles the program and later ones reuse it, ctx and its budget
// bound every walk, and limit > 0 keeps the first limit distinct rows in
// walk order. The rows are in canonical order, still in the ID domain.
func (r *Result) Execute(ctx context.Context, resolver relational.WrapperResolver, limit int) (*relational.IDRelation, error) {
	return r.union.Execute(ctx, resolver, limit)
}

// ExecuteResultLimit is Result.Execute decoded into tuples. The frozen bench
// module pins it; the MDM server encodes the ID-domain answer instead.
func (r *Rewriter) ExecuteResultLimit(ctx context.Context, res *Result, resolver relational.WrapperResolver, limit int) (*relational.Relation, error) {
	answer, err := res.Execute(ctx, resolver, limit)
	if err != nil {
		return nil, err
	}
	return answer.Relation(), nil
}

// featureColumns declares the answer's columns: one per projected feature,
// named by the feature's local name and fed, in every walk, by the first
// wrapper attribute providing it. Each distinct wrapper of the walks is
// resolved against the view once per feature.
func featureColumns(v *core.View, features []rdf.IRI, walks []*relational.Walk) []relational.OutputColumn {
	var wrappers []string
	for _, w := range walks {
		for _, ref := range w.Wrappers {
			if !slices.Contains(wrappers, ref.Wrapper) {
				wrappers = append(wrappers, ref.Wrapper)
			}
		}
	}
	feeds := make([][2]string, 0, len(features)*len(wrappers))
	cols := make([]relational.OutputColumn, len(features))
	for i, f := range features {
		start := len(feeds)
		for _, name := range wrappers {
			if attr, ok := v.AttributeOfFeatureInWrapper(core.WrapperURI(name), f); ok {
				feeds = append(feeds, [2]string{name, core.AttributeName(attr)})
			}
		}
		cols[i] = relational.OutputColumn{Name: f.LocalName(), Feeds: feeds[start:len(feeds):len(feeds)]}
	}
	return cols
}

// ExecuteResultReference preserves the original tuple-at-a-time execution of
// a rewriting result, for differential testing against the compiled engine,
// projecting onto the result's own output columns. The frozen bench oracle
// pins its context-less signature; it takes ctx first when the bench next
// moves.
func (r *Rewriter) ExecuteResultReference(res *Result, resolver relational.WrapperResolver) (*relational.Relation, error) {
	var answer *relational.Relation
	for _, w := range res.UCQ.Walks {
		rel, err := w.ExecuteReference(context.Background(), resolver)
		if err != nil {
			return nil, err
		}
		// Build the per-walk rename map: qualified attribute -> feature local
		// name, considering only the wrappers of this walk.
		rename := map[string]string{}
		var keep []string
		for _, col := range res.columns {
			for _, name := range w.WrapperNames() {
				qualified, ok := col.AttrOf(name)
				if ok && rel.Schema.Has(qualified) {
					rename[qualified] = col.Name
					keep = append(keep, qualified)
					break
				}
			}
		}
		projected := rel.StrictProject(keep).Rename(rename)
		if answer == nil {
			answer = projected
		} else {
			answer = answer.Union(projected)
		}
	}
	if answer == nil {
		answer = relational.NewRelation("answer", relational.Schema{})
	}
	answer.Name = "answer"
	return answer.Distinct(), nil
}
