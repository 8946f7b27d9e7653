// Package oracle holds reference implementations that only tests import:
// the SPARQL evaluator (eval.go) and the RDFS entailment regime the paper
// assumes for G (§2), here as a hierarchy closure and a forward-chaining
// materialization (closure.go). Production code never links this package:
// OMQs are answered by rewriting them into walks (Algorithms 2-5), and the
// one RDFS question production asks, whether a feature is a subclass of
// sc:identifier, is a walk in core.
//
// Only the RDFS rules that matter for the BDI ontology are implemented
// (rdfs5, rdfs7, rdfs9, rdfs11, rdfs2, rdfs3); axiomatic triples about the
// RDF/RDFS vocabulary itself are intentionally not generated to keep the
// stored graphs small, as the paper's growth analysis (§6.4) counts only
// application triples.
package oracle

import (
	"slices"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// Closure holds the subclass/subproperty hierarchy closures of one store
// snapshot. A Closure never changes after construction and is safe for
// concurrent use.
type Closure struct {
	subClass map[string]map[string]bool // class -> all (transitive) superclasses
	subProp  map[string]map[string]bool // property -> all (transitive) superproperties
}

// ClosureAt computes the hierarchy closures of one pinned snapshot.
// Consumers that need base matches and entailment to agree probe the same
// snapshot they pass here.
func ClosureAt(sn store.Snapshot) *Closure {
	return &Closure{
		subClass: nameClosure(transitiveClosureIDs(sn, rdf.RDFSSubClassOf)),
		subProp:  nameClosure(transitiveClosureIDs(sn, rdf.RDFSSubPropertyOf)),
	}
}

// IsSubClassOf reports whether sub is rdfs:subClassOf sup, directly or
// transitively (reflexivity included: a class is a subclass of itself).
func (c *Closure) IsSubClassOf(sub, sup rdf.IRI) bool {
	if sub == sup {
		return true
	}
	return c.subClass[string(sub)][string(sup)]
}

// IsSubPropertyOf reports whether sub is rdfs:subPropertyOf sup, directly
// or transitively (reflexive).
func (c *Closure) IsSubPropertyOf(sub, sup rdf.IRI) bool {
	if sub == sup {
		return true
	}
	return c.subProp[string(sub)][string(sup)]
}

// SuperClasses returns all (transitive) superclasses of the given class,
// sorted, excluding the class itself.
func (c *Closure) SuperClasses(class rdf.IRI) []rdf.IRI {
	return sortedKeys(c.subClass[string(class)])
}

// SubClassesOf returns all classes that are (transitively) subclasses of
// the given class, excluding the class itself.
func (c *Closure) SubClassesOf(class rdf.IRI) []rdf.IRI {
	var out []rdf.IRI
	for sub, supers := range c.subClass {
		if supers[string(class)] {
			out = append(out, rdf.IRI(sub))
		}
	}
	slices.Sort(out)
	return out
}

// Materialize computes the RDFS closure of the store under every supported
// rule (rdfs11 and rdfs5 transitivity, rdfs9 type and rdfs7 property
// inheritance, rdfs2/rdfs3 domain and range typing) and inserts the entailed
// quads. It returns the number of new quads. The computation iterates to a
// fixpoint; each iteration reads from one pinned snapshot and writes its
// conclusions back in a batch.
func Materialize(s *store.Store) (int, error) {
	total := 0
	for {
		added, err := materializeOnce(s)
		if err != nil {
			return total, err
		}
		if added == 0 {
			return total, nil
		}
		total += added
	}
}

func materializeOnce(s *store.Store) (int, error) {
	sn := s.Snapshot()
	cl := ClosureAt(sn)
	subClass, subProp := cl.subClass, cl.subProp

	newQuads := closureQuads(rdf.RDFSSubClassOf, subClass)
	newQuads = append(newQuads, closureQuads(rdf.RDFSSubPropertyOf, subProp)...)

	for _, q := range sn.Match(store.WildcardGraph(nil, rdf.RDFType, nil)) {
		c, ok := q.Object.(rdf.IRI)
		if !ok {
			continue
		}
		for sup := range subClass[string(c)] {
			newQuads = append(newQuads, rdf.Quad{
				Triple: rdf.NewTriple(q.Subject, rdf.RDFType, rdf.IRI(sup)),
				Graph:  q.Graph,
			})
		}
	}

	for prop, supers := range subProp {
		for _, q := range sn.Match(store.WildcardGraph(nil, rdf.IRI(prop), nil)) {
			for sup := range supers {
				newQuads = append(newQuads, rdf.Quad{
					Triple: rdf.NewTriple(q.Subject, rdf.IRI(sup), q.Object),
					Graph:  q.Graph,
				})
			}
		}
	}

	for _, decl := range sn.Match(store.WildcardGraph(nil, rdf.RDFSDomain, nil)) {
		prop, okP := decl.Subject.(rdf.IRI)
		class, okC := decl.Object.(rdf.IRI)
		if !okP || !okC {
			continue
		}
		for _, q := range sn.Match(store.WildcardGraph(nil, prop, nil)) {
			newQuads = append(newQuads, rdf.Quad{
				Triple: rdf.NewTriple(q.Subject, rdf.RDFType, class),
				Graph:  q.Graph,
			})
		}
	}
	for _, decl := range sn.Match(store.WildcardGraph(nil, rdf.RDFSRange, nil)) {
		prop, okP := decl.Subject.(rdf.IRI)
		class, okC := decl.Object.(rdf.IRI)
		if !okP || !okC {
			continue
		}
		for _, q := range sn.Match(store.WildcardGraph(nil, prop, nil)) {
			if q.Object.Kind() == rdf.KindLiteral {
				continue
			}
			newQuads = append(newQuads, rdf.Quad{
				Triple: rdf.NewTriple(q.Object, rdf.RDFType, class),
				Graph:  q.Graph,
			})
		}
	}

	// One atomic batch: duplicates are skipped and not counted, exactly like
	// the historical per-quad Add loop, but the store publishes one snapshot
	// (and bumps the generation once) instead of once per entailed quad.
	return s.AddAll(newQuads)
}

func closureQuads(predicate rdf.IRI, closure map[string]map[string]bool) []rdf.Quad {
	var out []rdf.Quad
	for sub, supers := range closure {
		for sup := range supers {
			t := rdf.T(rdf.IRI(sub), predicate, rdf.IRI(sup))
			// Place the entailed triple in the default graph unless an asserted
			// edge already defines where the hierarchy lives; the default graph
			// keeps entailments out of the per-wrapper named graphs.
			out = append(out, rdf.Quad{Triple: t})
		}
	}
	return out
}

// transitiveClosureIDs computes, for the given predicate (e.g.
// rdfs:subClassOf), a map from each subject TermID to the set of all TermIDs
// reachable by following the predicate one or more times, along with the IRI
// string of every closure member. The graph walk runs entirely on dictionary
// TermIDs against one pinned snapshot; only IRI subjects and objects
// participate.
func transitiveClosureIDs(sn store.Snapshot, predicate rdf.IRI) (map[rdf.TermID]map[rdf.TermID]bool, map[rdf.TermID]string) {
	direct := map[rdf.TermID][]rdf.TermID{}
	names := map[rdf.TermID]string{}
	for _, m := range sn.MatchWithIDs(store.WildcardGraph(nil, predicate, nil)) {
		if _, okS := m.Subject.(rdf.IRI); !okS {
			continue
		}
		if _, okO := m.Object.(rdf.IRI); !okO {
			continue
		}
		direct[m.ID.Subject] = append(direct[m.ID.Subject], m.ID.Object)
		names[m.ID.Subject] = m.Subject.Value()
		names[m.ID.Object] = m.Object.Value()
	}
	closure := map[rdf.TermID]map[rdf.TermID]bool{}
	for node := range direct {
		reach := map[rdf.TermID]bool{}
		stack := append([]rdf.TermID{}, direct[node]...)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[cur] {
				continue
			}
			reach[cur] = true
			stack = append(stack, direct[cur]...)
		}
		closure[node] = reach
	}
	return closure, names
}

// nameClosure converts an ID-keyed closure into the IRI-string form exposed
// by the Closure's accessors.
func nameClosure(closure map[rdf.TermID]map[rdf.TermID]bool, names map[rdf.TermID]string) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(closure))
	for node, reach := range closure {
		set := make(map[string]bool, len(reach))
		for id := range reach {
			set[names[id]] = true
		}
		out[names[node]] = set
	}
	return out
}

func sortedKeys(m map[string]bool) []rdf.IRI {
	out := make([]rdf.IRI, 0, len(m))
	for k := range m {
		out = append(out, rdf.IRI(k))
	}
	slices.Sort(out)
	return out
}
