package oracle

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"bdi/internal/rdf"
	"bdi/internal/sparql"
	"bdi/internal/store"
)

// Binding is a single solution mapping from variable names to terms.
type Binding map[rdf.Variable]rdf.Term

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Get returns the term bound to the variable.
func (b Binding) Get(v rdf.Variable) (rdf.Term, bool) {
	t, ok := b[v]
	return t, ok
}

// Key returns a canonical representation used for DISTINCT elimination.
func (b Binding) Key(vars []rdf.Variable) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		if t, ok := b[v]; ok {
			parts[i] = rdf.TermKey(t)
		}
	}
	return strings.Join(parts, "\x00")
}

// Solutions is an ordered sequence of bindings plus the projected variables.
type Solutions struct {
	Variables []rdf.Variable
	Bindings  []Binding
}

// Len returns the number of solutions.
func (s *Solutions) Len() int { return len(s.Bindings) }

// Terms returns, for each solution, the terms bound to the projected
// variables in order.
func (s *Solutions) Terms() [][]rdf.Term {
	out := make([][]rdf.Term, len(s.Bindings))
	for i, b := range s.Bindings {
		row := make([]rdf.Term, len(s.Variables))
		for j, v := range s.Variables {
			row[j] = b[v]
		}
		out[i] = row
	}
	return out
}

// Column returns all terms bound to the given variable, in solution order.
func (s *Solutions) Column(v rdf.Variable) []rdf.Term {
	out := make([]rdf.Term, 0, len(s.Bindings))
	for _, b := range s.Bindings {
		if t, ok := b[v]; ok {
			out = append(out, t)
		}
	}
	return out
}

// String renders the solutions as a simple table.
func (s *Solutions) String() string {
	var b strings.Builder
	for i, v := range s.Variables {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(v.String())
	}
	b.WriteByte('\n')
	for _, row := range s.Terms() {
		for i, t := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			if t == nil {
				b.WriteString("UNDEF")
			} else {
				b.WriteString(t.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Evaluator evaluates restricted SPARQL queries against a store, optionally
// applying the RDFS entailment regime (subclass-aware rdf:type and
// subproperty-aware predicate matching), as assumed in §2 of the paper.
//
// Bindings are maps from variables to terms; each pattern extends every
// binding through one store probe. Every evaluation pins one
// store.Snapshot up front — base matching, entailment and the hierarchy
// closure all read from that pinned generation — so a query returns an
// answer consistent with a single store state even while writers publish
// new snapshots concurrently. The Evaluator is safe for concurrent use.
type Evaluator struct {
	store      *store.Store
	Entailment bool
}

// NewEvaluator returns an evaluator with RDFS entailment enabled.
func NewEvaluator(s *store.Store) *Evaluator {
	return &Evaluator{store: s, Entailment: true}
}

// NewPlainEvaluator returns an evaluator without entailment.
func NewPlainEvaluator(s *store.Store) *Evaluator {
	return &Evaluator{store: s}
}

// Store returns the underlying store.
func (e *Evaluator) Store() *store.Store { return e.store }

// Select parses and evaluates a query text.
func (e *Evaluator) Select(queryText string) (*Solutions, error) {
	q, err := sparql.Parse(queryText)
	if err != nil {
		return nil, err
	}
	return e.Evaluate(context.Background(), q)
}

// Evaluate evaluates a parsed query against the store's current snapshot,
// under the context's cancellation and deadline.
func (e *Evaluator) Evaluate(ctx context.Context, q *sparql.Query) (*Solutions, error) {
	return e.EvaluateAt(ctx, e.store.Snapshot(), q)
}

// EvaluateAt evaluates a parsed query against a pinned snapshot: every
// probe — base matching, entailment expansion and the hierarchy closure —
// reads from sn, so the answer reflects exactly one store generation. Callers
// coordinating several queries (or a query plus other reads) pin one
// snapshot and pass it to each. The join checks ctx once per binding it
// extends, so a cancelled client or an expired deadline aborts mid-join with
// the context's error.
func (e *Evaluator) EvaluateAt(ctx context.Context, sn store.Snapshot, q *sparql.Query) (*Solutions, error) {
	ev := &evaluation{ctx: ctx, sn: sn, entailment: e.Entailment}
	return ev.evaluate(q)
}

// Ask reports whether the query has at least one solution.
func (e *Evaluator) Ask(q *sparql.Query) (bool, error) {
	sols, err := e.Evaluate(context.Background(), q)
	if err != nil {
		return false, err
	}
	return sols.Len() > 0, nil
}

// evaluation is the state of one EvaluateAt: the pinned snapshot every probe
// reads and the hierarchy closure at that snapshot, built on first use so
// that queries whose patterns never need subclass entailment skip it.
type evaluation struct {
	ctx        context.Context
	sn         store.Snapshot
	entailment bool
	cl         *Closure
}

func (ev *evaluation) closure() *Closure {
	if ev.cl == nil {
		ev.cl = ClosureAt(ev.sn)
	}
	return ev.cl
}

func (ev *evaluation) evaluate(q *sparql.Query) (*Solutions, error) {
	// Seed bindings from the VALUES table (cartesian of rows, usually one).
	seeds := []Binding{{}}
	if !q.Values.IsEmpty() {
		seeds = nil
		for _, row := range q.Values.Rows {
			if len(row) != len(q.Values.Variables) {
				return nil, fmt.Errorf("sparql: VALUES row arity mismatch")
			}
			b := Binding{}
			for i, v := range q.Values.Variables {
				b[v] = row[i]
			}
			seeds = append(seeds, b)
		}
	}

	bindings := seeds
	// Order patterns to keep joins selective: patterns with constants first.
	patterns := append([]sparql.TriplePattern(nil), q.Where...)
	sort.SliceStable(patterns, func(i, j int) bool {
		return selectivity(patterns[i]) < selectivity(patterns[j])
	})
	for _, tp := range patterns {
		var err error
		if bindings, err = ev.extend(bindings, tp, q.From); err != nil {
			return nil, err
		}
		if len(bindings) == 0 {
			break
		}
	}

	// Filters.
	var filtered []Binding
	for _, b := range bindings {
		ok := true
		for _, f := range q.Filters {
			if !evalFilter(f, b) {
				ok = false
				break
			}
		}
		if ok {
			filtered = append(filtered, b)
		}
	}

	vars := q.ProjectedVariables()
	// Projection + DISTINCT.
	var projected []Binding
	var projectedKeys []string
	seen := map[string]bool{}
	for _, b := range filtered {
		pb := Binding{}
		for _, v := range vars {
			if t, ok := b[v]; ok {
				pb[v] = t
			}
		}
		k := pb.Key(vars)
		if q.Distinct {
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		projected = append(projected, pb)
		projectedKeys = append(projectedKeys, k)
	}

	// Deterministic ordering.
	if len(projected) > 1 {
		order := make([]int, len(projected))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			return projectedKeys[order[i]] < projectedKeys[order[j]]
		})
		ordered := make([]Binding, len(projected))
		for i, j := range order {
			ordered[i] = projected[j]
		}
		projected = ordered
	}

	// OFFSET / LIMIT.
	if q.Offset > 0 {
		if q.Offset >= len(projected) {
			projected = nil
		} else {
			projected = projected[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(projected) {
		projected = projected[:q.Limit]
	}

	return &Solutions{Variables: vars, Bindings: projected}, nil
}

func selectivity(tp sparql.TriplePattern) int {
	score := 0
	for _, t := range []rdf.Term{tp.Subject, tp.Predicate, tp.Object} {
		if t == nil || t.Kind() == rdf.KindVariable {
			score++
		}
	}
	return score
}

// extend joins the current bindings with the matches of a single pattern.
func (ev *evaluation) extend(bindings []Binding, tp sparql.TriplePattern, from rdf.IRI) ([]Binding, error) {
	var out []Binding
	for _, b := range bindings {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		s := substitute(tp.Subject, b)
		p := substitute(tp.Predicate, b)
		o := substitute(tp.Object, b)

		var matches []rdf.Quad
		switch g := tp.Graph.(type) {
		case nil:
			if from != "" {
				matches = ev.match(store.InGraph(from, s, p, o), p, o)
			} else {
				matches = ev.matchUnion(store.WildcardGraph(s, p, o), p, o)
			}
		case rdf.IRI:
			matches = ev.match(store.InGraph(g, s, p, o), p, o)
		case rdf.Variable:
			if bound, ok := b[g]; ok {
				if gi, isIRI := bound.(rdf.IRI); isIRI {
					matches = ev.match(store.InGraph(gi, s, p, o), p, o)
				}
			} else {
				matches = ev.match(store.WildcardGraph(s, p, o), p, o)
			}
		}

		for _, m := range matches {
			nb := b.Clone()
			if !bindTerm(nb, tp.Subject, m.Subject) ||
				!bindTerm(nb, tp.Predicate, m.Predicate) ||
				!bindTerm(nb, tp.Object, m.Object) {
				continue
			}
			if gv, ok := tp.Graph.(rdf.Variable); ok {
				if !bindTerm(nb, gv, m.Graph) {
					continue
				}
			}
			out = append(out, nb)
		}
	}
	return out, nil
}

func (ev *evaluation) match(p store.Pattern, predicate, object rdf.Term) []rdf.Quad {
	return ev.entail(p, predicate, object, ev.sn.Match(p))
}

// matchUnion matches the union of all graphs, collapsing quads that repeat
// a triple in several graphs (the originating graph is not observable).
func (ev *evaluation) matchUnion(p store.Pattern, predicate, object rdf.Term) []rdf.Quad {
	ms := ev.sn.MatchWithIDs(p)
	seen := make(map[[3]rdf.TermID]bool, len(ms))
	base := make([]rdf.Quad, 0, len(ms))
	for _, m := range ms {
		k := [3]rdf.TermID{m.ID.Subject, m.ID.Predicate, m.ID.Object}
		if seen[k] {
			continue
		}
		seen[k] = true
		base = append(base, m.Quad)
	}
	return ev.entail(p, predicate, object, base)
}

// entail extends base matches with RDFS-entailed quads for the pattern:
// subclass-aware rdf:type, subproperty-aware concrete predicates, and the
// transitive rdfs:subClassOf closure. Entailed quads deduplicate against
// everything already present on the triple alone.
func (ev *evaluation) entail(p store.Pattern, predicate, object rdf.Term, base []rdf.Quad) []rdf.Quad {
	if !ev.entailment {
		return base
	}
	out := base
	if predIRI, ok := predicate.(rdf.IRI); ok && predIRI == rdf.RDFType {
		if classIRI, ok := object.(rdf.IRI); ok {
			for _, sub := range ev.closure().SubClassesOf(classIRI) {
				p2 := p
				p2.Object = sub
				for _, q := range ev.sn.Match(p2) {
					q.Object = classIRI // entailed type
					out = appendUniqueQuad(out, q)
				}
			}
		}
	}
	if predIRI, ok := predicate.(rdf.IRI); ok && predIRI != rdf.RDFType {
		for _, sub := range ev.subPropertiesOf(predIRI) {
			p2 := p
			p2.Predicate = sub
			for _, q := range ev.sn.Match(p2) {
				q.Predicate = predIRI
				out = appendUniqueQuad(out, q)
			}
		}
	}
	if predIRI, ok := predicate.(rdf.IRI); ok && predIRI == rdf.RDFSSubClassOf {
		out = ev.extendSubClassMatches(p, out)
	}
	return out
}

// extendSubClassMatches adds the transitive rdfs:subClassOf closure (the
// rewriting algorithms ask e.g. whether a feature is a subclass of
// sc:identifier, possibly through intermediate domains). Closure quads are
// synthesized from the closure without consulting the graph restriction;
// they carry the pattern's graph.
func (ev *evaluation) extendSubClassMatches(p store.Pattern, out []rdf.Quad) []rdf.Quad {
	subj, subjConcrete := p.Subject.(rdf.IRI)
	obj, objConcrete := p.Object.(rdf.IRI)
	switch {
	case subjConcrete && objConcrete:
		if ev.closure().IsSubClassOf(subj, obj) && subj != obj {
			out = appendUniqueQuad(out, rdf.Quad{Triple: rdf.T(subj, rdf.RDFSSubClassOf, obj), Graph: p.Graph})
		}
	case subjConcrete:
		for _, sup := range ev.closure().SuperClasses(subj) {
			out = appendUniqueQuad(out, rdf.Quad{Triple: rdf.T(subj, rdf.RDFSSubClassOf, sup), Graph: p.Graph})
		}
	case objConcrete:
		for _, sub := range ev.closure().SubClassesOf(obj) {
			out = appendUniqueQuad(out, rdf.Quad{Triple: rdf.T(sub, rdf.RDFSSubClassOf, obj), Graph: p.Graph})
		}
	}
	return out
}

// subPropertiesOf returns the direct subproperties of prop.
func (ev *evaluation) subPropertiesOf(prop rdf.IRI) []rdf.IRI {
	var out []rdf.IRI
	for _, q := range ev.sn.Match(store.WildcardGraph(nil, rdf.RDFSSubPropertyOf, prop)) {
		if sub, ok := q.Subject.(rdf.IRI); ok {
			out = append(out, sub)
		}
	}
	return out
}

func appendUniqueQuad(quads []rdf.Quad, q rdf.Quad) []rdf.Quad {
	for _, existing := range quads {
		if existing.Triple.Equal(q.Triple) {
			return quads
		}
	}
	return append(quads, q)
}

func substitute(t rdf.Term, b Binding) rdf.Term {
	if v, ok := t.(rdf.Variable); ok {
		if bound, exists := b[v]; exists {
			return bound
		}
		return nil
	}
	return t
}

func bindTerm(b Binding, patternTerm rdf.Term, value rdf.Term) bool {
	v, ok := patternTerm.(rdf.Variable)
	if !ok {
		if patternTerm == nil {
			return true
		}
		return patternTerm.Equal(value)
	}
	if existing, bound := b[v]; bound {
		return existing.Equal(value)
	}
	b[v] = value
	return true
}

func evalFilter(f sparql.Filter, b Binding) bool {
	return filterSatisfied(f.Op, resolveFilterTerm(f.Left, b), resolveFilterTerm(f.Right, b))
}

func resolveFilterTerm(t rdf.Term, b Binding) rdf.Term {
	if v, ok := t.(rdf.Variable); ok {
		bound, exists := b[v]
		if !exists {
			return nil
		}
		return bound
	}
	return t
}

// filterSatisfied applies a FILTER comparison to two resolved terms; an
// unresolved (nil) operand fails the filter.
func filterSatisfied(op sparql.FilterOp, left, right rdf.Term) bool {
	if left == nil || right == nil {
		return false
	}
	// Numeric comparison when both sides are numeric literals.
	ll, lok := left.(rdf.Literal)
	rl, rok := right.(rdf.Literal)
	if lok && rok {
		if lf, ok1 := ll.Float(); ok1 {
			if rf, ok2 := rl.Float(); ok2 {
				return compareFloats(lf, rf, op)
			}
		}
	}
	switch op {
	case sparql.OpEq:
		return left.Equal(right)
	case sparql.OpNeq:
		return !left.Equal(right)
	default:
		return compareStrings(left.Value(), right.Value(), op)
	}
}

func compareFloats(a, b float64, op sparql.FilterOp) bool {
	switch op {
	case sparql.OpEq:
		return a == b
	case sparql.OpNeq:
		return a != b
	case sparql.OpLt:
		return a < b
	case sparql.OpLe:
		return a <= b
	case sparql.OpGt:
		return a > b
	case sparql.OpGe:
		return a >= b
	}
	return false
}

func compareStrings(a, b string, op sparql.FilterOp) bool {
	switch op {
	case sparql.OpLt:
		return a < b
	case sparql.OpLe:
		return a <= b
	case sparql.OpGt:
		return a > b
	case sparql.OpGe:
		return a >= b
	}
	return false
}
