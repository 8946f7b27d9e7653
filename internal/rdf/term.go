// Package rdf implements the RDF 1.1 data model used throughout the BDI
// ontology: IRIs, literals, blank nodes, triples and quads, together with
// prefix management and the XSD datatypes referenced by the Global graph.
//
// The package is deliberately self-contained (standard library only) and is
// the foundation for the quad store (internal/store), the SPARQL parser
// (internal/sparql) and the ontology (internal/core).
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind identifies the concrete kind of an RDF term.
type TermKind int

const (
	// KindIRI identifies an IRI term.
	KindIRI TermKind = iota
	// KindLiteral identifies a literal term (plain, typed or language tagged).
	KindLiteral
	// KindBlank identifies a blank node.
	KindBlank
	// KindVariable identifies a query variable. Variables are not valid in
	// stored triples but are needed for SPARQL patterns and the rewriting
	// algorithms that manipulate them.
	KindVariable
)

// String returns a human readable name of the kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindLiteral:
		return "Literal"
	case KindBlank:
		return "BlankNode"
	case KindVariable:
		return "Variable"
	default:
		return fmt.Sprintf("TermKind(%d)", int(k))
	}
}

// Term is the interface implemented by all RDF terms.
type Term interface {
	// Kind reports the concrete kind of the term.
	Kind() TermKind
	// Value returns the lexical value of the term: the IRI string, the
	// literal's lexical form, the blank node identifier or the variable name.
	Value() string
	// String returns the N-Triples-like serialization of the term.
	String() string
	// Equal reports whether the receiver and other denote the same term.
	Equal(other Term) bool
}

// IRI is an absolute or prefixed IRI reference.
type IRI string

// Kind implements Term.
func (i IRI) Kind() TermKind { return KindIRI }

// Value implements Term.
func (i IRI) Value() string { return string(i) }

// String implements Term using angle-bracket notation.
func (i IRI) String() string { return "<" + string(i) + ">" }

// Equal implements Term.
func (i IRI) Equal(other Term) bool {
	o, ok := other.(IRI)
	return ok && o == i
}

// LocalName returns the fragment of the IRI after the last '#', '/' or ':'.
func (i IRI) LocalName() string {
	s := string(i)
	for _, sep := range []string{"#", "/", ":"} {
		if idx := strings.LastIndex(s, sep); idx >= 0 && idx+1 < len(s) {
			s = s[idx+1:]
		}
	}
	return s
}

// Literal is an RDF literal with an optional datatype and language tag.
type Literal struct {
	Lexical  string
	Datatype IRI
	Lang     string
}

// NewLiteral returns a plain string literal (xsd:string).
func NewLiteral(lexical string) Literal {
	return Literal{Lexical: lexical, Datatype: XSDString}
}

// NewTypedLiteral returns a literal with an explicit datatype.
func NewTypedLiteral(lexical string, datatype IRI) Literal {
	return Literal{Lexical: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal (rdf:langString).
func NewLangLiteral(lexical, lang string) Literal {
	return Literal{Lexical: lexical, Datatype: RDFLangString, Lang: lang}
}

// NewIntegerLiteral returns an xsd:integer literal.
func NewIntegerLiteral(v int64) Literal {
	return Literal{Lexical: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// Kind implements Term.
func (l Literal) Kind() TermKind { return KindLiteral }

// Value implements Term.
func (l Literal) Value() string { return l.Lexical }

// String implements Term using N-Triples notation.
func (l Literal) String() string {
	var b strings.Builder
	b.WriteByte('"')
	b.WriteString(escapeLiteral(l.Lexical))
	b.WriteByte('"')
	if l.Lang != "" {
		b.WriteByte('@')
		b.WriteString(l.Lang)
		return b.String()
	}
	if l.Datatype != "" && l.Datatype != XSDString {
		b.WriteString("^^")
		b.WriteString(l.Datatype.String())
	}
	return b.String()
}

// Equal implements Term.
func (l Literal) Equal(other Term) bool {
	o, ok := other.(Literal)
	if !ok {
		return false
	}
	ld, od := l.Datatype, o.Datatype
	if ld == "" {
		ld = XSDString
	}
	if od == "" {
		od = XSDString
	}
	return l.Lexical == o.Lexical && ld == od && l.Lang == o.Lang
}

// Integer returns the literal parsed as an int64, if its datatype is numeric.
func (l Literal) Integer() (int64, bool) {
	switch l.Datatype {
	case XSDInteger, XSDInt, XSDLong, XSDShort, XSDByte, XSDNonNegativeInteger, XSDPositiveInteger:
		v, err := strconv.ParseInt(l.Lexical, 10, 64)
		return v, err == nil
	}
	return 0, false
}

// Float returns the literal parsed as a float64, if its datatype is numeric.
func (l Literal) Float() (float64, bool) {
	switch l.Datatype {
	case XSDDouble, XSDFloat, XSDDecimal, XSDInteger, XSDInt, XSDLong:
		v, err := strconv.ParseFloat(l.Lexical, 64)
		return v, err == nil
	}
	return 0, false
}

// BlankNode is an RDF blank node, identified by a local label.
type BlankNode string

// NewBlankNode returns a blank node with the given label.
func NewBlankNode(label string) BlankNode { return BlankNode(label) }

// Kind implements Term.
func (b BlankNode) Kind() TermKind { return KindBlank }

// Value implements Term.
func (b BlankNode) Value() string { return string(b) }

// String implements Term using N-Triples notation.
func (b BlankNode) String() string { return "_:" + string(b) }

// Equal implements Term.
func (b BlankNode) Equal(other Term) bool {
	o, ok := other.(BlankNode)
	return ok && o == b
}

// Variable is a SPARQL query variable. Variables never appear in stored data;
// they are used by query patterns and by the rewriting algorithms.
type Variable string

// NewVariable returns a variable with the given name (without leading '?').
func NewVariable(name string) Variable { return Variable(name) }

// Kind implements Term.
func (v Variable) Kind() TermKind { return KindVariable }

// Value implements Term.
func (v Variable) Value() string { return string(v) }

// String implements Term using SPARQL notation.
func (v Variable) String() string { return "?" + string(v) }

// Equal implements Term.
func (v Variable) Equal(other Term) bool {
	o, ok := other.(Variable)
	return ok && o == v
}

// CompareTerms imposes a total order over terms: IRIs < blank nodes <
// literals < variables, then lexicographically by value (and datatype/lang
// for literals). It is used to produce deterministic output orderings.
func CompareTerms(a, b Term) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	ka, kb := kindRank(a.Kind()), kindRank(b.Kind())
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	if c := strings.Compare(a.Value(), b.Value()); c != 0 {
		return c
	}
	la, aok := a.(Literal)
	lb, bok := b.(Literal)
	if aok && bok {
		if c := strings.Compare(string(la.Datatype), string(lb.Datatype)); c != 0 {
			return c
		}
		return strings.Compare(la.Lang, lb.Lang)
	}
	return 0
}

func kindRank(k TermKind) int {
	switch k {
	case KindIRI:
		return 0
	case KindBlank:
		return 1
	case KindLiteral:
		return 2
	default:
		return 3
	}
}

func escapeLiteral(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// UnescapeLiteral reverses the escaping performed by escapeLiteral. It is
// exported for use by the Turtle parser.
func UnescapeLiteral(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'u':
			if i+4 < len(s) {
				if v, err := strconv.ParseInt(s[i+1:i+5], 16, 32); err == nil {
					b.WriteRune(rune(v))
					i += 4
					continue
				}
			}
			b.WriteByte(s[i])
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
