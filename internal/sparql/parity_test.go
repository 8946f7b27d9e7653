package sparql

// Golden parity tests: the ID-native slot pipeline must return byte-for-byte
// identical Solutions.String() output to the legacy map-based evaluator
// (reference_test.go) across the full query-feature matrix, with entailment
// on and off, before and after store mutations.

import (
	"context"
	"fmt"
	"testing"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

const parityNS = "http://parity/"

func pIRI(n string) rdf.IRI { return rdf.IRI(parityNS + n) }

// parityStore covers every evaluator feature: a subclass chain (C ⊑ B ⊑ A,
// D ⊑ A), a subproperty (knowsWell ⊑ knows), rdf:type assertions across the
// default graph and two named graphs, a triple duplicated in two graphs
// (union-of-graphs dedupe), and integer-valued literals (filters).
func parityStore(t testing.TB) *store.Store {
	t.Helper()
	s := store.New()
	g1, g2 := pIRI("g1"), pIRI("g2")
	quads := []rdf.Quad{
		{Triple: rdf.T(pIRI("B"), rdf.RDFSSubClassOf, pIRI("A"))},
		{Triple: rdf.T(pIRI("C"), rdf.RDFSSubClassOf, pIRI("B")), Graph: g1},
		{Triple: rdf.T(pIRI("D"), rdf.RDFSSubClassOf, pIRI("A")), Graph: g2},
		{Triple: rdf.T(pIRI("knowsWell"), rdf.RDFSSubPropertyOf, pIRI("knows"))},

		{Triple: rdf.T(pIRI("x1"), rdf.RDFType, pIRI("A")), Graph: g1},
		{Triple: rdf.T(pIRI("x2"), rdf.RDFType, pIRI("B")), Graph: g1},
		{Triple: rdf.T(pIRI("x3"), rdf.RDFType, pIRI("C")), Graph: g2},
		{Triple: rdf.T(pIRI("x4"), rdf.RDFType, pIRI("D"))},

		{Triple: rdf.T(pIRI("x1"), pIRI("knows"), pIRI("x2")), Graph: g1},
		{Triple: rdf.T(pIRI("x2"), pIRI("knowsWell"), pIRI("x3")), Graph: g1},
		{Triple: rdf.T(pIRI("x3"), pIRI("knowsWell"), pIRI("x4")), Graph: g2},
		// Same triple in both graphs: union queries must collapse it, GRAPH
		// ?g queries must bind it twice.
		{Triple: rdf.T(pIRI("x4"), pIRI("knows"), pIRI("x1")), Graph: g1},
		{Triple: rdf.T(pIRI("x4"), pIRI("knows"), pIRI("x1")), Graph: g2},

		{Triple: rdf.Triple{Subject: pIRI("x1"), Predicate: pIRI("age"), Object: rdf.NewIntegerLiteral(31)}, Graph: g1},
		{Triple: rdf.Triple{Subject: pIRI("x2"), Predicate: pIRI("age"), Object: rdf.NewIntegerLiteral(47)}, Graph: g1},
		{Triple: rdf.Triple{Subject: pIRI("x3"), Predicate: pIRI("age"), Object: rdf.NewIntegerLiteral(23)}, Graph: g2},
		{Triple: rdf.Triple{Subject: pIRI("x4"), Predicate: pIRI("age"), Object: rdf.NewIntegerLiteral(47)}},
	}
	if _, err := s.AddAll(quads); err != nil {
		t.Fatal(err)
	}
	return s
}

// parityQueries is the feature matrix; every query is evaluated by both
// pipelines with entailment on and off.
func parityQueries() map[string]string {
	p := func(format string, args ...any) string {
		out := make([]any, len(args))
		for i, a := range args {
			out[i] = parityNS + a.(string)
		}
		return fmt.Sprintf(format, out...)
	}
	return map[string]string{
		"basic-join": p(`SELECT ?a ?b WHERE { ?a <%s> ?b . }`, "knows"),
		"type-direct": p(`PREFIX rdf: <`+rdf.NSRDF+`> SELECT ?x WHERE { ?x rdf:type <%s> . }`, "B"),
		"type-entailed": p(`PREFIX rdf: <`+rdf.NSRDF+`> SELECT ?x WHERE { ?x rdf:type <%s> . }`, "A"),
		"type-var-class": `PREFIX rdf: <` + rdf.NSRDF + `> SELECT ?x ?c WHERE { ?x rdf:type ?c . }`,
		"subprop-entailed": p(`SELECT ?a ?b WHERE { ?a <%s> ?b . }`, "knows"),
		"subclass-const-const": p(`PREFIX rdfs: <`+rdf.NSRDFS+`> SELECT * WHERE { <%s> rdfs:subClassOf <%s> . }`, "C", "A"),
		"subclass-var-const": p(`PREFIX rdfs: <`+rdf.NSRDFS+`> SELECT ?s WHERE { ?s rdfs:subClassOf <%s> . }`, "A"),
		"subclass-const-var": p(`PREFIX rdfs: <`+rdf.NSRDFS+`> SELECT ?o WHERE { <%s> rdfs:subClassOf ?o . }`, "C"),
		"subclass-var-var": `PREFIX rdfs: <` + rdf.NSRDFS + `> SELECT ?s ?o WHERE { ?s rdfs:subClassOf ?o . }`,
		"join-chain": p(`SELECT ?a ?c WHERE { ?a <%s> ?b . ?b <%s> ?c . }`, "knows", "knows"),
		"join-repeated-var": p(`SELECT ?a WHERE { ?a <%s> ?a . }`, "knows"),
		"graph-const": p(`SELECT ?a ?b WHERE { GRAPH <%s> { ?a <%s> ?b . } }`, "g1", "knows"),
		"graph-var": p(`SELECT ?g ?a ?b WHERE { GRAPH ?g { ?a <%s> ?b . } }`, "knows"),
		"graph-var-join": p(`SELECT ?g ?a WHERE { GRAPH ?g { ?a <%s> ?b . ?b <%s> ?c . } }`, "knows", "knows"),
		"graph-var-type-entailed": p(`PREFIX rdf: <`+rdf.NSRDF+`> SELECT ?g ?x WHERE { GRAPH ?g { ?x rdf:type <%s> . } }`, "A"),
		"graph-var-subclass": p(`PREFIX rdfs: <`+rdf.NSRDFS+`> SELECT ?g ?s WHERE { GRAPH ?g { ?s rdfs:subClassOf <%s> . } }`, "A"),
		"from-clause": p(`SELECT ?a ?b FROM <%s> WHERE { ?a <%s> ?b . }`, "g2", "knowsWell"),
		"from-entailed": p(`SELECT ?a ?b FROM <%s> WHERE { ?a <%s> ?b . }`, "g2", "knows"),
		"values-single": p(`SELECT ?x ?v WHERE { VALUES (?x) { (<%s>) } ?x <%s> ?v . }`, "x1", "age"),
		"values-multi-row": p(`SELECT ?x ?v WHERE { VALUES (?x) { (<%s>) (<%s>) } ?x <%s> ?v . }`, "x1", "x3", "age"),
		"values-unknown-term": p(`SELECT ?x ?v WHERE { VALUES (?x) { (<%s>) } ?x <%s> ?v . }`, "nowhere", "age"),
		"values-projected-only": p(`SELECT ?x ?y WHERE { VALUES (?y) { (<%s>) } ?x <%s> ?v . }`, "tag", "age"),
		"filter-numeric": p(`SELECT ?x ?v WHERE { ?x <%s> ?v . FILTER (?v > 30) }`, "age"),
		"filter-var-var": p(`SELECT ?x ?y WHERE { ?x <%s> ?v . ?y <%s> ?w . FILTER (?v = ?w) FILTER (?x != ?y) }`, "age", "age"),
		"filter-unbound": p(`SELECT ?x WHERE { ?x <%s> ?v . FILTER (?u > 1) }`, "age"),
		"distinct": p(`SELECT DISTINCT ?v WHERE { ?x <%s> ?v . }`, "age"),
		"distinct-offset-limit": p(`SELECT DISTINCT ?a ?b WHERE { ?a <%s> ?b . } LIMIT 2 OFFSET 1`, "knows"),
		"offset-past-end": p(`SELECT ?a WHERE { ?a <%s> ?b . } OFFSET 50`, "knows"),
		"limit-zero": p(`SELECT ?a WHERE { ?a <%s> ?b . } LIMIT 0`, "knows"),
		"select-star": p(`SELECT * WHERE { ?a <%s> ?b . ?b <%s> ?v . }`, "knows", "age"),
		"unknown-constant": p(`SELECT ?x WHERE { ?x <%s> ?y . }`, "missingPredicate"),
		"unknown-subject": p(`SELECT ?p ?o WHERE { <%s> ?p ?o . }`, "ghost"),
		"union-dedupe": p(`SELECT ?a ?b WHERE { ?a <%s> ?b . ?b <%s> ?c . }`, "knows", "age"),
		"cartesian": p(`SELECT ?a ?c WHERE { ?a <%s> ?b . ?c <%s> ?d . }`, "knowsWell", "age"),
		"project-unbound-var": p(`SELECT ?a ?nope WHERE { ?a <%s> ?b . }`, "knows"),
	}
}

func assertParity(t *testing.T, e *Evaluator, name, query string) {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	got, err := e.Evaluate(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: pipeline: %v", name, err)
	}
	want, err := referenceEvaluate(e, q)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got.String() != want.String() {
		t.Errorf("%s: pipeline and reference disagree\npipeline:\n%s\nreference:\n%s", name, got, want)
	}
}

func TestEvaluatorParity(t *testing.T) {
	for _, entailment := range []bool{true, false} {
		s := parityStore(t)
		e := NewEvaluator(s)
		e.Entailment = entailment
		for name, query := range parityQueries() {
			t.Run(fmt.Sprintf("entail=%v/%s", entailment, name), func(t *testing.T) {
				assertParity(t, e, name, query)
			})
		}
	}
}

// TestEvaluatorParityAfterMutation re-runs the matrix after store mutations
// that extend the hierarchy and data, exercising the generation-keyed
// invalidation of the entailment cache and the reasoner closures.
func TestEvaluatorParityAfterMutation(t *testing.T) {
	s := parityStore(t)
	e := NewEvaluator(s)
	for name, query := range parityQueries() {
		assertParity(t, e, "warmup/"+name, query)
	}
	extra := []rdf.Quad{
		{Triple: rdf.T(pIRI("E"), rdf.RDFSSubClassOf, pIRI("C")), Graph: pIRI("g2")},
		{Triple: rdf.T(pIRI("x5"), rdf.RDFType, pIRI("E")), Graph: pIRI("g1")},
		{Triple: rdf.T(pIRI("knowsWell"), rdf.RDFSSubPropertyOf, pIRI("related"))},
		{Triple: rdf.T(pIRI("x5"), pIRI("knowsWell"), pIRI("x1")), Graph: pIRI("g3")},
	}
	if _, err := s.AddAll(extra); err != nil {
		t.Fatal(err)
	}
	for name, query := range parityQueries() {
		assertParity(t, e, "mutated/"+name, query)
	}
	if removed := s.RemoveGraph(pIRI("g3")); removed != 1 {
		t.Fatalf("RemoveGraph = %d", removed)
	}
	for name, query := range parityQueries() {
		assertParity(t, e, "removed/"+name, query)
	}
}

// TestEvaluatorParityRunningExample pins the paper's own query shape
// (VALUES + FROM + BGP over the Global graph, Code 3) to the reference
// output, on the shared evaluator fixture.
func TestEvaluatorParityRunningExample(t *testing.T) {
	s := evalStore(t)
	query := `
PREFIX ex: <http://example.org/>
SELECT ?x ?y
FROM <http://example.org/G>
WHERE {
  VALUES (?x) { (ex:monitorId) }
  ex:Monitor ex:hasFeature ?x .
  ex:Monitor ex:generatesQoS ?im .
  ?im ex:hasFeature ?y .
}`
	for _, entailment := range []bool{true, false} {
		e := NewEvaluator(s)
		e.Entailment = entailment
		assertParity(t, e, "running-example", query)
	}
}
