package rdf

import (
	"strings"
	"testing"
)

func TestPrefixMapExpandCompact(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("sup", "http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/")
	iri, ok := pm.Expand("sup:Monitor")
	if !ok {
		t.Fatal("expected expansion")
	}
	want := IRI("http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/Monitor")
	if iri != want {
		t.Errorf("expanded to %v, want %v", iri, want)
	}
	if got := pm.Compact(want); got != "sup:Monitor" {
		t.Errorf("compacted to %q", got)
	}
}

func TestPrefixMapUnknownPrefix(t *testing.T) {
	pm := NewPrefixMap()
	iri, ok := pm.Expand("unknown:thing")
	if ok {
		t.Error("unknown prefix should not expand")
	}
	if iri != IRI("unknown:thing") {
		t.Errorf("unexpected %v", iri)
	}
	if _, ok := pm.Expand("http://already.absolute/x"); ok {
		t.Error("absolute IRI should not be treated as a CURIE")
	}
}

func TestPrefixMapRebindReplacesOld(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("x", "http://one/")
	pm.Bind("x", "http://two/")
	ns, _ := pm.Namespace("x")
	if ns != "http://two/" {
		t.Errorf("namespace = %q", ns)
	}
	if got := pm.Compact("http://one/a"); got != "http://one/a" {
		t.Errorf("old namespace still compacts: %q", got)
	}
}

func TestDefaultPrefixesContainCoreVocabularies(t *testing.T) {
	pm := DefaultPrefixes()
	for _, p := range []string{"rdf", "rdfs", "owl", "xsd", "sc"} {
		if _, ok := pm.Namespace(p); !ok {
			t.Errorf("missing default prefix %q", p)
		}
	}
	if got := pm.Compact(RDFType); got != "rdf:type" {
		t.Errorf("rdf:type compacted to %q", got)
	}
}

func TestTurtleHeader(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("g", "http://example.org/g/")
	header := pm.TurtleHeader()
	if !strings.Contains(header, "@prefix g: <http://example.org/g/> .") {
		t.Errorf("unexpected header %q", header)
	}
}

func TestPrefixesSorted(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("b", "http://b/")
	pm.Bind("a", "http://a/")
	got := pm.Prefixes()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("prefixes not sorted: %v", got)
	}
}
