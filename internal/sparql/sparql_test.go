package sparql

import (
	"strings"
	"testing"

	"bdi/internal/rdf"
	"bdi/internal/store"
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
	}
	for i, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("case %d: expected parse error for %q", i, c)
		}
	}
}

func TestAlgebraShapeMatchesCode4(t *testing.T) {
	q := MustParse(runningExampleQuery)
	algebra := AlgebraString(q)
	for _, want := range []string{"(project", "(join", "(table (vars ?x ?y)", "(bgp", "(triple"} {
		if !strings.Contains(algebra, want) {
			t.Errorf("algebra missing %q:\n%s", want, algebra)
		}
	}
	// project must be the outermost operator (no limit/offset in this query).
	if !strings.HasPrefix(strings.TrimSpace(algebra), "(project") {
		t.Errorf("project should be outermost:\n%s", algebra)
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

// evalStore builds a small global-graph-like dataset for evaluator tests.
func evalStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	const ex = "http://example.org/"
	g := rdf.IRI(ex + "G")
	add := func(tr rdf.Triple, graph rdf.IRI) {
		t.Helper()
		if _, err := s.AddTriple(graph, tr); err != nil {
			t.Fatal(err)
		}
	}
	add(rdf.T(rdf.IRI(ex+"SoftwareApplication"), rdf.IRI(ex+"hasMonitor"), rdf.IRI(ex+"Monitor")), g)
	add(rdf.T(rdf.IRI(ex+"Monitor"), rdf.IRI(ex+"generatesQoS"), rdf.IRI(ex+"InfoMonitor")), g)
	add(rdf.T(rdf.IRI(ex+"Monitor"), rdf.IRI(ex+"hasFeature"), rdf.IRI(ex+"monitorId")), g)
	add(rdf.T(rdf.IRI(ex+"InfoMonitor"), rdf.IRI(ex+"hasFeature"), rdf.IRI(ex+"lagRatio")), g)
	add(rdf.T(rdf.IRI(ex+"monitorId"), rdf.RDFType, rdf.IRI(ex+"Feature")), g)
	add(rdf.T(rdf.IRI(ex+"lagRatio"), rdf.RDFType, rdf.IRI(ex+"Feature")), g)
	add(rdf.T(rdf.IRI(ex+"monitorId"), rdf.RDFSSubClassOf, rdf.SchemaIdentifier), g)
	// Named graphs mimicking LAV mappings.
	add(rdf.T(rdf.IRI(ex+"Monitor"), rdf.IRI(ex+"hasFeature"), rdf.IRI(ex+"monitorId")), rdf.IRI(ex+"w1"))
	add(rdf.T(rdf.IRI(ex+"InfoMonitor"), rdf.IRI(ex+"hasFeature"), rdf.IRI(ex+"lagRatio")), rdf.IRI(ex+"w1"))
	add(rdf.T(rdf.IRI(ex+"Monitor"), rdf.IRI(ex+"hasFeature"), rdf.IRI(ex+"monitorId")), rdf.IRI(ex+"w3"))
	// Taxonomy: vodMonitorId ⊑ monitorId, instance typed with the subclass.
	add(rdf.T(rdf.IRI(ex+"vodMonitorId"), rdf.RDFSSubClassOf, rdf.IRI(ex+"monitorId")), g)
	add(rdf.T(rdf.IRI(ex+"vm1"), rdf.RDFType, rdf.IRI(ex+"vodMonitorId")), g)
	return s
}

func TestEvaluateBGPWithFrom(t *testing.T) {
	e := NewEvaluator(evalStore(t))
	sols, err := e.Select(`
PREFIX ex: <http://example.org/>
SELECT ?f FROM <http://example.org/G> WHERE {
  ex:Monitor ex:hasFeature ?f .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 1 {
		t.Fatalf("solutions = %d, want 1\n%s", sols.Len(), sols)
	}
	if sols.Bindings[0]["f"].Value() != "http://example.org/monitorId" {
		t.Errorf("f = %v", sols.Bindings[0]["f"])
	}
}

func TestEvaluateJoinAcrossPatterns(t *testing.T) {
	e := NewEvaluator(evalStore(t))
	sols, err := e.Select(`
PREFIX ex: <http://example.org/>
SELECT ?c ?f WHERE {
  ex:SoftwareApplication ex:hasMonitor ?c .
  ?c ex:hasFeature ?f .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 1 {
		t.Fatalf("solutions = %d\n%s", sols.Len(), sols)
	}
}

func TestEvaluateValuesSeedsBindings(t *testing.T) {
	e := NewEvaluator(evalStore(t))
	sols, err := e.Select(`
PREFIX ex: <http://example.org/>
SELECT ?x WHERE {
  VALUES (?x) { (ex:monitorId) (ex:lagRatio) (ex:absent) }
  ?x a ex:Feature .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 2 {
		t.Fatalf("solutions = %d, want 2\n%s", sols.Len(), sols)
	}
}

func TestEvaluateGraphVariable(t *testing.T) {
	e := NewEvaluator(evalStore(t))
	sols, err := e.Select(`
PREFIX ex: <http://example.org/>
SELECT ?g WHERE {
  GRAPH ?g { ex:Monitor ex:hasFeature ex:monitorId }
}`)
	if err != nil {
		t.Fatal(err)
	}
	// The triple is asserted in the G, w1 and w3 named graphs; GRAPH ?g ranges
	// over all named graphs, so three bindings are expected.
	if sols.Len() != 3 {
		t.Fatalf("solutions = %d, want 3 (G, w1 and w3)\n%s", sols.Len(), sols)
	}
	got := map[string]bool{}
	for _, b := range sols.Bindings {
		got[b["g"].Value()] = true
	}
	if !got["http://example.org/w1"] || !got["http://example.org/w3"] {
		t.Errorf("graphs = %v", got)
	}
}

func TestEvaluateEntailedTypeQuery(t *testing.T) {
	e := NewEvaluator(evalStore(t))
	// vm1 is typed vodMonitorId which is a subclass of monitorId: with the
	// RDFS entailment regime, asking for instances of monitorId returns it.
	sols, err := e.Select(`
PREFIX ex: <http://example.org/>
SELECT ?i WHERE { ?i a ex:monitorId . }`)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 1 {
		t.Fatalf("entailed solutions = %d, want 1\n%s", sols.Len(), sols)
	}
	plain := NewPlainEvaluator(e.Store())
	sols2, err := plain.Select(`
PREFIX ex: <http://example.org/>
SELECT ?i WHERE { ?i a ex:monitorId . }`)
	if err != nil {
		t.Fatal(err)
	}
	if sols2.Len() != 0 {
		t.Errorf("plain evaluator should not entail, got %d", sols2.Len())
	}
}

func TestEvaluateSubClassOfClosure(t *testing.T) {
	e := NewEvaluator(evalStore(t))
	sols, err := e.Select(`
PREFIX ex: <http://example.org/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX sc: <http://schema.org/>
SELECT ?sub WHERE { ?sub rdfs:subClassOf sc:identifier . }`)
	if err != nil {
		t.Fatal(err)
	}
	// monitorId directly, vodMonitorId transitively.
	if sols.Len() != 2 {
		t.Fatalf("solutions = %d, want 2\n%s", sols.Len(), sols)
	}
}

func TestEvaluateFilters(t *testing.T) {
	s := store.New()
	ex := "http://example.org/"
	s.MustAdd(rdf.Quad{Triple: rdf.NewTriple(rdf.IRI(ex+"m1"), rdf.IRI(ex+"lagRatio"), rdf.NewDoubleLiteral(0.75))})
	s.MustAdd(rdf.Quad{Triple: rdf.NewTriple(rdf.IRI(ex+"m2"), rdf.IRI(ex+"lagRatio"), rdf.NewDoubleLiteral(0.1))})
	e := NewEvaluator(s)
	sols, err := e.Select(`
PREFIX ex: <http://example.org/>
SELECT ?m WHERE { ?m ex:lagRatio ?r . FILTER (?r > 0.5) }`)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 1 || sols.Bindings[0]["m"].Value() != ex+"m1" {
		t.Errorf("unexpected solutions\n%s", sols)
	}
}

func TestEvaluateDistinctLimitOffset(t *testing.T) {
	e := NewEvaluator(evalStore(t))
	sols, err := e.Select(`
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?c WHERE { GRAPH ?g { ?c ex:hasFeature ?f } }`)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 2 {
		t.Fatalf("distinct concepts = %d, want 2\n%s", sols.Len(), sols)
	}
	limited, err := e.Select(`
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?c WHERE { GRAPH ?g { ?c ex:hasFeature ?f } } LIMIT 1 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if limited.Len() != 1 {
		t.Errorf("limited = %d, want 1", limited.Len())
	}
}

func TestSolutionsAccessors(t *testing.T) {
	e := NewEvaluator(evalStore(t))
	sols, err := e.Select(`
PREFIX ex: <http://example.org/>
SELECT ?c ?f WHERE { GRAPH ex:w1 { ?c ex:hasFeature ?f } }`)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 2 {
		t.Fatalf("len = %d", sols.Len())
	}
	if len(sols.Terms()) != 2 || len(sols.Terms()[0]) != 2 {
		t.Error("Terms shape wrong")
	}
	if len(sols.Column("f")) != 2 {
		t.Error("Column should return 2 terms")
	}
	if !strings.Contains(sols.String(), "?c") {
		t.Error("String should include the header")
	}
}

func TestAskQuery(t *testing.T) {
	e := NewEvaluator(evalStore(t))
	yes, err := e.Ask(MustParse(`PREFIX ex: <http://example.org/> SELECT ?x WHERE { ex:Monitor ex:hasFeature ?x }`))
	if err != nil || !yes {
		t.Errorf("Ask = %v, %v", yes, err)
	}
	no, err := e.Ask(MustParse(`PREFIX ex: <http://example.org/> SELECT ?x WHERE { ex:Nothing ex:hasFeature ?x }`))
	if err != nil || no {
		t.Errorf("Ask = %v, %v", no, err)
	}
}
