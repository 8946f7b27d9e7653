package sparql

import (
	"testing"

	"bdi/internal/rdf"
)

// The running example query from Code 5 / Code 8 of the paper.
const runningExampleQuery = `
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
PREFIX sc: <http://schema.org/>
SELECT ?x ?y
FROM <http://www.essi.upc.edu/~snadal/BDIOntology/Global>
WHERE {
  VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
  sc:SoftwareApplication G:hasFeature sup:applicationId .
  sc:SoftwareApplication sup:hasMonitor sup:Monitor .
  sup:Monitor sup:generatesQoS sup:InfoMonitor .
  sup:InfoMonitor G:hasFeature sup:lagRatio
}
`

func TestParseRunningExample(t *testing.T) {
	q, err := Parse(runningExampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 2 || q.Select[0] != "x" || q.Select[1] != "y" {
		t.Errorf("select = %v", q.Select)
	}
	if q.From != "http://www.essi.upc.edu/~snadal/BDIOntology/Global" {
		t.Errorf("from = %v", q.From)
	}
	if len(q.Where) != 4 {
		t.Fatalf("where patterns = %d, want 4", len(q.Where))
	}
	bindings, err := q.ValueBindings()
	if err != nil {
		t.Fatal(err)
	}
	if bindings["x"].Value() != "http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/applicationId" {
		t.Errorf("x bound to %v", bindings["x"])
	}
	if bindings["y"].Value() != "http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/lagRatio" {
		t.Errorf("y bound to %v", bindings["y"])
	}
}

func TestParsePrefixAndTypeKeyword(t *testing.T) {
	q, err := Parse(`
PREFIX ex: <http://example.org/>
SELECT ?c WHERE { ?c a ex:Concept . }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 1 {
		t.Fatalf("patterns = %d", len(q.Where))
	}
	if !q.Where[0].Predicate.Equal(rdf.RDFType) {
		t.Errorf("predicate = %v, want rdf:type", q.Where[0].Predicate)
	}
}

func TestParseSelectStarDistinctLimitOffset(t *testing.T) {
	q, err := Parse(`
PREFIX ex: <http://example.org/>
SELECT DISTINCT * WHERE { ?s ex:p ?o . ?o ex:q ?v } LIMIT 10 OFFSET 2
`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("DISTINCT not detected")
	}
	if q.Limit != 10 || q.Offset != 2 {
		t.Errorf("limit/offset = %d/%d", q.Limit, q.Offset)
	}
	vars := q.ProjectedVariables()
	if len(vars) != 3 {
		t.Errorf("projected variables = %v", vars)
	}
}

func TestParseGraphBlockAndFilter(t *testing.T) {
	q, err := Parse(`
PREFIX ex: <http://example.org/>
SELECT ?g ?f WHERE {
  GRAPH ?g { ex:Monitor ex:hasFeature ?f }
  FILTER (?f != ex:excluded)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 1 {
		t.Fatalf("patterns = %d", len(q.Where))
	}
	if q.Where[0].Graph == nil {
		t.Error("graph term missing")
	}
	if len(q.Filters) != 1 || q.Filters[0].Op != OpNeq {
		t.Errorf("filters = %v", q.Filters)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }",
		"SELECT ?x WHERE { ?x ex:p }",
		"SELECT ?x WHERE { VALUES (?x { (1) } }",
		"SELECT ?x FROM WHERE { ?x ?y ?z }",
		// A negative LIMIT would read as no LIMIT, a negative OFFSET as none.
		"SELECT ?x WHERE { ?x ?y ?z } LIMIT -1",
		"SELECT ?x WHERE { ?x ?y ?z } OFFSET -2",
	}
	for i, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("case %d: expected parse error for %q", i, c)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	q := MustParse(runningExampleQuery)
	text := q.String()
	q2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parsing rendered query failed: %v\n%s", err, text)
	}
	if len(q2.Where) != len(q.Where) {
		t.Errorf("pattern count changed %d -> %d", len(q.Where), len(q2.Where))
	}
	if len(q2.Select) != len(q.Select) {
		t.Errorf("select count changed")
	}
	// Literals render with their datatype or language tag, which the
	// parser must read back.
	for _, text := range []string{
		`SELECT ?x WHERE { ?x <http://a> ?y . FILTER (?y > 5) }`,
		`PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> SELECT ?x WHERE { ?x <http://a> "5"^^xsd:integer }`,
		`SELECT ?x WHERE { ?x <http://a> "hi"@en }`,
		`SELECT ?x WHERE { ?x <http://a> ?y . FILTER (?y < 5) }`,
		`SELECT ?x WHERE { ?x <http://a> ?y . FILTER (?y <= 5) }`,
		`SELECT ?x WHERE { ?x <http://a?k=v> ?y . FILTER (?y<=<http://b=c>) }`,
	} {
		if _, err := Parse(text); err != nil {
			t.Fatalf("parsing %q: %v", text, err)
		}
		checkRoundTrip(t, text)
	}
	// '<' opens an IRI only when '>' closes it before any whitespace or '<'.
	q = MustParse(`SELECT ?x WHERE { ?x <http://a?k=v> ?y . FILTER (?y<=<http://b=c>) FILTER (?y < 5) }`)
	if got := q.Where[0].Predicate; got != rdf.IRI("http://a?k=v") {
		t.Errorf("predicate = %v, want <http://a?k=v>", got)
	}
	if len(q.Filters) != 2 || q.Filters[0].Op != OpLe || q.Filters[0].Right != rdf.IRI("http://b=c") || q.Filters[1].Op != OpLt {
		t.Errorf("filters = %v, want ?y <= <http://b=c> and ?y < 5", q.Filters)
	}
}

// checkRoundTrip requires that a query that parses renders to text that
// parses again and renders identically.
func checkRoundTrip(t *testing.T, text string) {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		return
	}
	rendered := q.String()
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parsing rendered query failed: %v\ninput: %q\nrendered:\n%s", err, text, rendered)
	}
	if again := q2.String(); again != rendered {
		t.Fatalf("rendering is not stable\ninput: %q\nfirst:\n%s\nsecond:\n%s", text, rendered, again)
	}
}

// FuzzParse checks the round-trip property on arbitrary query text: SPARQL
// arrives from outside on every /api/queries/* request.
func FuzzParse(f *testing.F) {
	f.Add(runningExampleQuery)
	f.Add(`SELECT ?x WHERE { ?x <http://a> ?y . FILTER (?y > 5) }`)
	f.Add(`SELECT ?x WHERE { ?x <http://a?k=v> ?y . FILTER (?y<=5) FILTER (?y < <http://b>) }`)
	f.Fuzz(checkRoundTrip)
}
