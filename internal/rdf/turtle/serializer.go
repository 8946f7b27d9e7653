// Package turtle writes the Turtle and TriG syntaxes the BDI ontology is
// dumped in (GET /api/ontology/graph, bdictl dump): @prefix directives,
// prefixed names, literals with language tags and datatypes, predicate-object
// lists (';') and GRAPH blocks (TriG). The ontology is built in Go, so
// nothing reads these syntaxes back.
package turtle

import (
	"fmt"
	"sort"
	"strings"

	"bdi/internal/rdf"
)

// Serializer writes triples and quads in Turtle / TriG syntax with optional
// prefix compaction and grouping by subject.
type Serializer struct {
	Prefixes *rdf.PrefixMap
	// GroupBySubject enables `subject pred obj ; pred obj .` grouping.
	GroupBySubject bool
}

// NewSerializer returns a serializer using the default BDI prefixes.
func NewSerializer() *Serializer {
	return &Serializer{Prefixes: rdf.DefaultPrefixes(), GroupBySubject: true}
}

// SerializeQuads renders quads as a TriG document: default-graph triples
// first, then one GRAPH block per named graph, in sorted graph order.
func (s *Serializer) SerializeQuads(quads []rdf.Quad) string {
	var b strings.Builder
	if s.Prefixes != nil {
		b.WriteString(s.Prefixes.TurtleHeader())
		b.WriteByte('\n')
	}
	byGraph := map[rdf.IRI][]rdf.Triple{}
	for _, q := range quads {
		byGraph[q.Graph] = append(byGraph[q.Graph], q.Triple)
	}
	if def, ok := byGraph[""]; ok {
		s.writeTriples(&b, def, "")
		delete(byGraph, "")
	}
	names := make([]string, 0, len(byGraph))
	for g := range byGraph {
		names = append(names, string(g))
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "\nGRAPH %s {\n", s.renderIRI(rdf.IRI(name)))
		s.writeTriples(&b, byGraph[rdf.IRI(name)], "  ")
		b.WriteString("}\n")
	}
	return b.String()
}

func (s *Serializer) writeTriples(b *strings.Builder, triples []rdf.Triple, indent string) {
	if !s.GroupBySubject {
		sorted := make([]string, len(triples))
		for i, t := range triples {
			sorted[i] = fmt.Sprintf("%s%s %s %s .", indent, s.renderTerm(t.Subject), s.renderTerm(t.Predicate), s.renderTerm(t.Object))
		}
		sort.Strings(sorted)
		for _, line := range sorted {
			b.WriteString(line)
			b.WriteByte('\n')
		}
		return
	}
	bySubject := map[string][]rdf.Triple{}
	var subjectKeys []string
	for _, t := range triples {
		k := rdf.TermKey(t.Subject)
		if _, ok := bySubject[k]; !ok {
			subjectKeys = append(subjectKeys, k)
		}
		bySubject[k] = append(bySubject[k], t)
	}
	sort.Strings(subjectKeys)
	for _, k := range subjectKeys {
		group := bySubject[k]
		sort.Slice(group, func(i, j int) bool {
			if c := rdf.CompareTerms(group[i].Predicate, group[j].Predicate); c != 0 {
				return c < 0
			}
			return rdf.CompareTerms(group[i].Object, group[j].Object) < 0
		})
		b.WriteString(indent)
		b.WriteString(s.renderTerm(group[0].Subject))
		for i, t := range group {
			if i == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteString(" ;\n")
				b.WriteString(indent)
				b.WriteString(strings.Repeat(" ", 4))
			}
			b.WriteString(s.renderTerm(t.Predicate))
			b.WriteByte(' ')
			b.WriteString(s.renderTerm(t.Object))
		}
		b.WriteString(" .\n")
	}
}

func (s *Serializer) renderTerm(t rdf.Term) string {
	if t == nil {
		return "<nil>"
	}
	if iri, ok := t.(rdf.IRI); ok {
		return s.renderIRI(iri)
	}
	return t.String()
}

func (s *Serializer) renderIRI(iri rdf.IRI) string {
	if iri == rdf.RDFType {
		return "a"
	}
	if s.Prefixes != nil {
		compact := s.Prefixes.Compact(iri)
		if compact != string(iri) && isSafeLocalPart(compact) {
			return compact
		}
	}
	return iri.String()
}

// isSafeLocalPart reports whether a compacted name is safe to emit without
// escaping (no characters that would confuse the Turtle lexer).
func isSafeLocalPart(s string) bool {
	return !strings.ContainsAny(s, " \t\n<>\"{}|^`\\")
}
