package sparql_test

// The dialect's evaluation semantics, checked end to end: queries are parsed
// here and evaluated by the reference evaluator in internal/oracle, which
// only tests link.

import (
	"strings"
	"testing"

	"bdi/internal/oracle"
	"bdi/internal/rdf"
	"bdi/internal/sparql"
	"bdi/internal/store"
)

// evalStore builds a small global-graph-like dataset for evaluator tests.
func evalStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	const ex = "http://example.org/"
	g := rdf.IRI(ex + "G")
	add := func(tr rdf.Triple, graph rdf.IRI) {
		t.Helper()
		if _, err := s.Add(rdf.Quad{Triple: tr, Graph: graph}); err != nil {
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
	e := oracle.NewEvaluator(evalStore(t))
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
	e := oracle.NewEvaluator(evalStore(t))
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
	e := oracle.NewEvaluator(evalStore(t))
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
	e := oracle.NewEvaluator(evalStore(t))
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
	e := oracle.NewEvaluator(evalStore(t))
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
	plain := oracle.NewPlainEvaluator(e.Store())
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
	e := oracle.NewEvaluator(evalStore(t))
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
	s.MustAdd(rdf.Quad{Triple: rdf.NewTriple(rdf.IRI(ex+"m1"), rdf.IRI(ex+"lagRatio"), rdf.NewTypedLiteral("0.75", rdf.XSDDouble))})
	s.MustAdd(rdf.Quad{Triple: rdf.NewTriple(rdf.IRI(ex+"m2"), rdf.IRI(ex+"lagRatio"), rdf.NewTypedLiteral("0.1", rdf.XSDDouble))})
	e := oracle.NewEvaluator(s)
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
	e := oracle.NewEvaluator(evalStore(t))
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
	e := oracle.NewEvaluator(evalStore(t))
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
	e := oracle.NewEvaluator(evalStore(t))
	yes, err := e.Ask(sparql.MustParse(`PREFIX ex: <http://example.org/> SELECT ?x WHERE { ex:Monitor ex:hasFeature ?x }`))
	if err != nil || !yes {
		t.Errorf("Ask = %v, %v", yes, err)
	}
	no, err := e.Ask(sparql.MustParse(`PREFIX ex: <http://example.org/> SELECT ?x WHERE { ex:Nothing ex:hasFeature ?x }`))
	if err != nil || no {
		t.Errorf("Ask = %v, %v", no, err)
	}
}
