package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// Triple is an RDF triple (subject, predicate, object). Subjects may be IRIs
// or blank nodes, predicates are IRIs, and objects may be IRIs, blank nodes
// or literals. The type does not enforce this at construction time so that
// triple patterns (containing variables) can reuse it; Validate reports
// whether the triple is a valid data triple.
type Triple struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// NewTriple constructs a triple from the given terms.
func NewTriple(s, p, o Term) Triple {
	return Triple{Subject: s, Predicate: p, Object: o}
}

// T is a shorthand constructor for triples whose terms are all IRIs.
func T(s, p, o IRI) Triple { return Triple{Subject: s, Predicate: p, Object: o} }

// Validate reports whether the triple is a valid RDF data triple.
func (t Triple) Validate() error {
	if t.Subject == nil || t.Predicate == nil || t.Object == nil {
		return fmt.Errorf("rdf: triple has nil term: %v", t)
	}
	if k := t.Subject.Kind(); k != KindIRI && k != KindBlank {
		return fmt.Errorf("rdf: invalid subject kind %v in %v", k, t)
	}
	if t.Predicate.Kind() != KindIRI {
		return fmt.Errorf("rdf: invalid predicate kind %v in %v", t.Predicate.Kind(), t)
	}
	if t.Object.Kind() == KindVariable {
		return fmt.Errorf("rdf: variable object in data triple %v", t)
	}
	return nil
}

// String returns an N-Triples-like serialization.
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", termString(t.Subject), termString(t.Predicate), termString(t.Object))
}

// Equal reports whether two triples are term-wise equal.
func (t Triple) Equal(o Triple) bool {
	return termsEqual(t.Subject, o.Subject) && termsEqual(t.Predicate, o.Predicate) && termsEqual(t.Object, o.Object)
}

// Quad is a triple placed in a named graph. A zero-value Graph ("") denotes
// the default graph.
type Quad struct {
	Triple
	Graph IRI
}

// Q is a shorthand constructor for quads whose terms are all IRIs.
func Q(s, p, o, g IRI) Quad { return Quad{Triple: T(s, p, o), Graph: g} }

// String returns an N-Quads-like serialization.
func (q Quad) String() string {
	if q.Graph == "" {
		return q.Triple.String()
	}
	return fmt.Sprintf("%s %s %s %s .", termString(q.Subject), termString(q.Predicate), termString(q.Object), q.Graph.String())
}

// Equal reports whether two quads are equal.
func (q Quad) Equal(o Quad) bool { return q.Graph == o.Graph && q.Triple.Equal(o.Triple) }

// Graph is an ordered collection of triples together with a name. It is a
// lightweight value type used for subgraphs of the Global graph (LAV mapping
// graphs, query patterns); the indexed quad store lives in internal/store.
type Graph struct {
	Name    IRI
	Triples []Triple
}

// NewGraph returns an empty graph with the given name.
func NewGraph(name IRI) *Graph { return &Graph{Name: name} }

// Add appends triples to the graph, skipping exact duplicates.
func (g *Graph) Add(ts ...Triple) {
	for _, t := range ts {
		if !g.Contains(t) {
			g.Triples = append(g.Triples, t)
		}
	}
}

// Contains reports whether the graph holds the given triple.
func (g *Graph) Contains(t Triple) bool {
	for _, x := range g.Triples {
		if x.Equal(t) {
			return true
		}
	}
	return false
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return len(g.Triples) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, Triples: make([]Triple, len(g.Triples))}
	copy(c.Triples, g.Triples)
	return c
}

// ContainsNode reports whether term appears as a subject or object.
func (g *Graph) ContainsNode(term Term) bool {
	for _, t := range g.Triples {
		if termsEqual(t.Subject, term) || termsEqual(t.Object, term) {
			return true
		}
	}
	return false
}

// Subsumes reports whether g contains every triple of other, that is,
// other ⊆ g.
func (g *Graph) Subsumes(other *Graph) bool {
	if other == nil {
		return true
	}
	for _, t := range other.Triples {
		if !g.Contains(t) {
			return false
		}
	}
	return true
}

// IsConnected reports whether the undirected version of the graph is
// connected (ignoring isolated graphs with no triples, which are trivially
// connected).
func (g *Graph) IsConnected() bool {
	if len(g.Triples) <= 1 {
		return true
	}
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, t := range g.Triples {
		s, o := termKey(t.Subject), termKey(t.Object)
		adj[s] = append(adj[s], o)
		adj[o] = append(adj[o], s)
		nodes[s], nodes[o] = true, true
	}
	var start string
	for n := range nodes {
		start = n
		break
	}
	visited := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range adj[cur] {
			if !visited[n] {
				visited[n] = true
				queue = append(queue, n)
			}
		}
	}
	return len(visited) == len(nodes)
}

// TopologicalSort returns a topological ordering of the graph nodes if the
// directed graph is acyclic, or ok=false if it contains a cycle. Ties are
// broken deterministically by term order.
func (g *Graph) TopologicalSort() (order []Term, ok bool) {
	indeg := map[string]int{}
	terms := map[string]Term{}
	adj := map[string][]string{}
	for _, t := range g.Triples {
		s, o := termKey(t.Subject), termKey(t.Object)
		terms[s], terms[o] = t.Subject, t.Object
		if _, okk := indeg[s]; !okk {
			indeg[s] = 0
		}
		indeg[o]++
		adj[s] = append(adj[s], o)
	}
	var frontier []string
	for n, d := range indeg {
		if d == 0 {
			frontier = append(frontier, n)
		}
	}
	sort.Strings(frontier)
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		order = append(order, terms[cur])
		var added []string
		for _, n := range adj[cur] {
			indeg[n]--
			if indeg[n] == 0 {
				added = append(added, n)
			}
		}
		sort.Strings(added)
		frontier = append(frontier, added...)
	}
	return order, len(order) == len(terms)
}

// String returns a newline-separated serialization of the graph, sorted for
// determinism.
func (g *Graph) String() string {
	lines := make([]string, len(g.Triples))
	for i, t := range g.Triples {
		lines[i] = t.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func termString(t Term) string {
	if t == nil {
		return "<nil>"
	}
	return t.String()
}

func termsEqual(a, b Term) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

// termKey returns a unique string key for a term, used for map-based
// algorithms. Exposed internally via TermKey.
func termKey(t Term) string {
	if t == nil {
		return "\x00nil"
	}
	switch t.Kind() {
	case KindIRI:
		return "I" + t.Value()
	case KindBlank:
		return "B" + t.Value()
	case KindVariable:
		return "V" + t.Value()
	default:
		l := t.(Literal)
		return "L" + l.Lexical + "\x00" + string(l.Datatype) + "\x00" + l.Lang
	}
}

// TermKey returns a stable unique key for a term suitable for use as a map
// key across packages.
func TermKey(t Term) string { return termKey(t) }

// appendTermKey appends termKey(t) to dst without materializing an
// intermediate string. It must stay byte-identical to termKey: the dictionary
// packs these bytes into its key slab and callers compare them against
// TermKey output.
func appendTermKey(dst []byte, t Term) []byte {
	if t == nil {
		return append(dst, "\x00nil"...)
	}
	switch t.Kind() {
	case KindIRI:
		dst = append(dst, 'I')
		return append(dst, t.Value()...)
	case KindBlank:
		dst = append(dst, 'B')
		return append(dst, t.Value()...)
	case KindVariable:
		dst = append(dst, 'V')
		return append(dst, t.Value()...)
	default:
		l := t.(Literal)
		dst = append(dst, 'L')
		dst = append(dst, l.Lexical...)
		dst = append(dst, 0)
		dst = append(dst, string(l.Datatype)...)
		dst = append(dst, 0)
		return append(dst, l.Lang...)
	}
}
