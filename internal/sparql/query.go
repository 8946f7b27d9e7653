// Package sparql implements the restricted SPARQL dialect used by the BDI
// ontology (paper §2.2, Codes 3-5 and 8-10): SELECT queries with PREFIX
// declarations, an optional FROM clause naming the queried graph, a VALUES
// table binding the projected variables to attribute IRIs, a basic graph
// pattern (BGP), GRAPH blocks, and simple FILTER expressions.
//
// The package is the front end of ontology-mediated queries: Parse reads
// every /api/queries/* body (rewriting.ParseOMQ), and Query.String renders
// a query back to text that parses to the same rendering. Nothing in
// production evaluates SPARQL; the reference evaluator the tests use lives
// in internal/oracle.
package sparql

import (
	"fmt"
	"slices"
	"strings"

	"bdi/internal/rdf"
)

// TriplePattern is a triple whose terms may be variables.
type TriplePattern struct {
	Subject   rdf.Term
	Predicate rdf.Term
	Object    rdf.Term
	// Graph, when non-nil, indicates the pattern appears inside a GRAPH
	// block; it is either an IRI or a Variable.
	Graph rdf.Term
}

// String renders the pattern in SPARQL-ish syntax.
func (tp TriplePattern) String() string {
	base := fmt.Sprintf("%s %s %s", tp.Subject, tp.Predicate, tp.Object)
	if tp.Graph != nil {
		return fmt.Sprintf("GRAPH %s { %s }", tp.Graph, base)
	}
	return base
}

// Variables returns the distinct variables mentioned by the pattern.
func (tp TriplePattern) Variables() []rdf.Variable {
	var out []rdf.Variable
	seen := map[rdf.Variable]bool{}
	for _, t := range []rdf.Term{tp.Subject, tp.Predicate, tp.Object, tp.Graph} {
		if v, ok := t.(rdf.Variable); ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// FilterOp enumerates the comparison operators supported in FILTER clauses.
type FilterOp int

// Supported filter operators.
const (
	OpEq FilterOp = iota
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op FilterOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Filter is a simple binary comparison between a variable and a term (or two
// variables).
type Filter struct {
	Left  rdf.Term
	Op    FilterOp
	Right rdf.Term
}

// String renders the filter in SPARQL syntax.
func (f Filter) String() string {
	return fmt.Sprintf("FILTER (%s %s %s)", f.Left, f.Op, f.Right)
}

// ValuesClause is the inline VALUES table of the restricted query template
// (Code 3): it binds the projected variables to attribute IRIs.
type ValuesClause struct {
	Variables []rdf.Variable
	Rows      [][]rdf.Term
}

// IsEmpty reports whether the clause binds nothing.
func (v ValuesClause) IsEmpty() bool { return len(v.Variables) == 0 }

// Query is a parsed SPARQL SELECT query in the restricted dialect.
type Query struct {
	Prefixes *rdf.PrefixMap
	// Select lists the projected variables; empty means SELECT *.
	Select []rdf.Variable
	// Distinct indicates SELECT DISTINCT.
	Distinct bool
	// From is the IRI given in the FROM clause ("" if absent).
	From rdf.IRI
	// Values is the inline VALUES table (possibly empty).
	Values ValuesClause
	// Where is the basic graph pattern (including GRAPH-scoped patterns).
	Where []TriplePattern
	// Filters are the FILTER constraints.
	Filters []Filter
	// Limit and Offset; Limit < 0 means unlimited.
	Limit  int
	Offset int
}

// NewQuery returns an empty query with default prefixes and no limit.
func NewQuery() *Query {
	return &Query{Prefixes: rdf.DefaultPrefixes(), Limit: -1}
}

// ProjectedVariables returns the projected variables; when the query is
// SELECT *, it returns all variables mentioned in the WHERE clause, sorted.
func (q *Query) ProjectedVariables() []rdf.Variable {
	if len(q.Select) > 0 {
		return q.Select
	}
	seen := map[rdf.Variable]bool{}
	var out []rdf.Variable
	for _, tp := range q.Where {
		for _, v := range tp.Variables() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return out
}

// ValueBindings resolves the VALUES table into a map from projected variable
// to the single term it is bound to. The restricted template of Code 3 uses
// exactly one row; multi-row VALUES are rejected by this accessor.
func (q *Query) ValueBindings() (map[rdf.Variable]rdf.Term, error) {
	out := map[rdf.Variable]rdf.Term{}
	if q.Values.IsEmpty() {
		return out, nil
	}
	if len(q.Values.Rows) != 1 {
		return nil, fmt.Errorf("sparql: restricted queries require exactly one VALUES row, got %d", len(q.Values.Rows))
	}
	row := q.Values.Rows[0]
	if len(row) != len(q.Values.Variables) {
		return nil, fmt.Errorf("sparql: VALUES row arity %d does not match variables %d", len(row), len(q.Values.Variables))
	}
	for i, v := range q.Values.Variables {
		out[v] = row[i]
	}
	return out, nil
}

// String renders the query back into SPARQL text.
func (q *Query) String() string {
	var b strings.Builder
	if q.Prefixes != nil {
		for _, p := range q.Prefixes.Prefixes() {
			ns, _ := q.Prefixes.Namespace(p)
			fmt.Fprintf(&b, "PREFIX %s: <%s>\n", p, ns)
		}
	}
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		for i, v := range q.Select {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.String())
		}
	}
	b.WriteByte('\n')
	if q.From != "" {
		fmt.Fprintf(&b, "FROM %s\n", q.From.String())
	}
	b.WriteString("WHERE {\n")
	if !q.Values.IsEmpty() {
		b.WriteString("  VALUES (")
		for i, v := range q.Values.Variables {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.String())
		}
		b.WriteString(") {")
		for _, row := range q.Values.Rows {
			b.WriteString(" (")
			for i, t := range row {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(t.String())
			}
			b.WriteString(")")
		}
		b.WriteString(" }\n")
	}
	for _, tp := range q.Where {
		fmt.Fprintf(&b, "  %s .\n", tp)
	}
	for _, f := range q.Filters {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	b.WriteString("}\n")
	if q.Limit >= 0 {
		fmt.Fprintf(&b, "LIMIT %d\n", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, "OFFSET %d\n", q.Offset)
	}
	return b.String()
}
