package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestIRIBasics(t *testing.T) {
	iri := IRI("http://example.org/ns#Monitor")
	if iri.Kind() != KindIRI {
		t.Fatalf("expected KindIRI, got %v", iri.Kind())
	}
	if iri.Value() != "http://example.org/ns#Monitor" {
		t.Errorf("unexpected value %q", iri.Value())
	}
	if iri.String() != "<http://example.org/ns#Monitor>" {
		t.Errorf("unexpected string %q", iri.String())
	}
	if iri.LocalName() != "Monitor" {
		t.Errorf("unexpected local name %q", iri.LocalName())
	}
	if !iri.Equal(IRI("http://example.org/ns#Monitor")) {
		t.Error("expected IRIs to be equal")
	}
	if iri.Equal(IRI("http://example.org/ns#Other")) {
		t.Error("expected IRIs to differ")
	}
}

func TestIRILocalNameSlashNamespace(t *testing.T) {
	iri := IRI("http://www.essi.upc.edu/~snadal/BDIOntology/Source/Wrapper/w1")
	if got := iri.LocalName(); got != "w1" {
		t.Errorf("LocalName = %q, want w1", got)
	}
}

func TestLiteralConstructors(t *testing.T) {
	cases := []struct {
		name     string
		lit      Literal
		datatype IRI
		lexical  string
	}{
		{"plain", NewLiteral("hello"), XSDString, "hello"},
		{"typed", NewTypedLiteral("42", XSDInteger), XSDInteger, "42"},
		{"integer", NewIntegerLiteral(42), XSDInteger, "42"},
		{"double", NewTypedLiteral("0.75", XSDDouble), XSDDouble, "0.75"},
		{"boolean", NewTypedLiteral("true", XSDBoolean), XSDBoolean, "true"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.lit.Datatype != c.datatype {
				t.Errorf("datatype = %v, want %v", c.lit.Datatype, c.datatype)
			}
			if c.lit.Lexical != c.lexical {
				t.Errorf("lexical = %q, want %q", c.lit.Lexical, c.lexical)
			}
		})
	}
}

func TestLangLiteral(t *testing.T) {
	l := NewLangLiteral("hola", "es")
	if l.Lang != "es" {
		t.Errorf("lang = %q", l.Lang)
	}
	if !strings.HasSuffix(l.String(), "@es") {
		t.Errorf("serialization should end with @es: %q", l.String())
	}
}

func TestLiteralConversions(t *testing.T) {
	if v, ok := NewIntegerLiteral(7).Integer(); !ok || v != 7 {
		t.Errorf("Integer() = %v, %v", v, ok)
	}
	if v, ok := NewTypedLiteral("0.5", XSDDouble).Float(); !ok || v != 0.5 {
		t.Errorf("Float() = %v, %v", v, ok)
	}
	if _, ok := NewLiteral("text").Integer(); ok {
		t.Error("string literal should not convert to integer")
	}
	if _, ok := NewLiteral("text").Float(); ok {
		t.Error("string literal should not convert to float")
	}
}

func TestLiteralEqualityNormalizesStringDatatype(t *testing.T) {
	a := Literal{Lexical: "x"}
	b := NewLiteral("x")
	if !a.Equal(b) {
		t.Error("empty datatype should equal xsd:string")
	}
}

func TestLiteralStringEscaping(t *testing.T) {
	l := NewLiteral("line1\nline2\t\"quoted\"")
	s := l.String()
	if !strings.Contains(s, `\n`) || !strings.Contains(s, `\t`) || !strings.Contains(s, `\"`) {
		t.Errorf("expected escapes in %q", s)
	}
	if UnescapeLiteral(`line1\nline2\t\"quoted\"`) != "line1\nline2\t\"quoted\"" {
		t.Error("unescape roundtrip failed")
	}
}

func TestBlankNodeAndVariable(t *testing.T) {
	b := NewBlankNode("b1")
	if b.Kind() != KindBlank || b.String() != "_:b1" {
		t.Errorf("unexpected blank node %v %q", b.Kind(), b.String())
	}
	v := NewVariable("x")
	if v.Kind() != KindVariable || v.String() != "?x" {
		t.Errorf("unexpected variable %v %q", v.Kind(), v.String())
	}
}

func TestCompareTermsOrdering(t *testing.T) {
	iri := IRI("http://a")
	blank := NewBlankNode("b")
	lit := NewLiteral("c")
	variable := NewVariable("d")
	if CompareTerms(iri, blank) >= 0 {
		t.Error("IRI should sort before blank node")
	}
	if CompareTerms(blank, lit) >= 0 {
		t.Error("blank node should sort before literal")
	}
	if CompareTerms(lit, variable) >= 0 {
		t.Error("literal should sort before variable")
	}
	if CompareTerms(iri, iri) != 0 {
		t.Error("equal terms should compare 0")
	}
	if CompareTerms(nil, iri) >= 0 || CompareTerms(iri, nil) <= 0 {
		t.Error("nil ordering wrong")
	}
}

func TestCompareTermsIsAntisymmetric(t *testing.T) {
	f := func(a, b string) bool {
		x, y := IRI(a), IRI(b)
		return CompareTerms(x, y) == -CompareTerms(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTermKeyUniqueness(t *testing.T) {
	terms := []Term{
		IRI("http://a"),
		NewBlankNode("http://a"),
		NewLiteral("http://a"),
		NewVariable("http://a"),
		NewTypedLiteral("http://a", XSDInteger),
		NewLangLiteral("http://a", "en"),
	}
	seen := map[string]bool{}
	for _, x := range terms {
		k := TermKey(x)
		if seen[k] {
			t.Errorf("duplicate key %q for %v", k, x)
		}
		seen[k] = true
	}
}

func TestUnescapeLiteralUnicode(t *testing.T) {
	if got := UnescapeLiteral(`café`); got != "café" {
		t.Errorf("got %q", got)
	}
}
