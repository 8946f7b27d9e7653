package sparql_test

// The evaluator's answers over the query-feature matrix are pinned in
// testdata/eval_matrix.golden. The file was written by the ID-native slot
// pipeline this package carried until the map-based evaluator (now
// oracle.Evaluator) replaced it, and that pipeline had been proven
// byte-for-byte equal to the map-based one by a differential suite; the
// golden is what is left of that suite.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bdi/internal/oracle"
	"bdi/internal/rdf"
	"bdi/internal/sparql"
	"bdi/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

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

// parityQueries is the feature matrix; every query is evaluated with
// entailment on and off.
func parityQueries() map[string]string {
	p := func(format string, args ...any) string {
		out := make([]any, len(args))
		for i, a := range args {
			out[i] = parityNS + a.(string)
		}
		return fmt.Sprintf(format, out...)
	}
	return map[string]string{
		"basic-join":              p(`SELECT ?a ?b WHERE { ?a <%s> ?b . }`, "knows"),
		"type-direct":             p(`PREFIX rdf: <`+rdf.NSRDF+`> SELECT ?x WHERE { ?x rdf:type <%s> . }`, "B"),
		"type-entailed":           p(`PREFIX rdf: <`+rdf.NSRDF+`> SELECT ?x WHERE { ?x rdf:type <%s> . }`, "A"),
		"type-var-class":          `PREFIX rdf: <` + rdf.NSRDF + `> SELECT ?x ?c WHERE { ?x rdf:type ?c . }`,
		"subprop-entailed":        p(`SELECT ?a ?b WHERE { ?a <%s> ?b . }`, "knows"),
		"subclass-const-const":    p(`PREFIX rdfs: <`+rdf.NSRDFS+`> SELECT * WHERE { <%s> rdfs:subClassOf <%s> . }`, "C", "A"),
		"subclass-var-const":      p(`PREFIX rdfs: <`+rdf.NSRDFS+`> SELECT ?s WHERE { ?s rdfs:subClassOf <%s> . }`, "A"),
		"subclass-const-var":      p(`PREFIX rdfs: <`+rdf.NSRDFS+`> SELECT ?o WHERE { <%s> rdfs:subClassOf ?o . }`, "C"),
		"subclass-var-var":        `PREFIX rdfs: <` + rdf.NSRDFS + `> SELECT ?s ?o WHERE { ?s rdfs:subClassOf ?o . }`,
		"join-chain":              p(`SELECT ?a ?c WHERE { ?a <%s> ?b . ?b <%s> ?c . }`, "knows", "knows"),
		"join-repeated-var":       p(`SELECT ?a WHERE { ?a <%s> ?a . }`, "knows"),
		"graph-const":             p(`SELECT ?a ?b WHERE { GRAPH <%s> { ?a <%s> ?b . } }`, "g1", "knows"),
		"graph-var":               p(`SELECT ?g ?a ?b WHERE { GRAPH ?g { ?a <%s> ?b . } }`, "knows"),
		"graph-var-join":          p(`SELECT ?g ?a WHERE { GRAPH ?g { ?a <%s> ?b . ?b <%s> ?c . } }`, "knows", "knows"),
		"graph-var-type-entailed": p(`PREFIX rdf: <`+rdf.NSRDF+`> SELECT ?g ?x WHERE { GRAPH ?g { ?x rdf:type <%s> . } }`, "A"),
		"graph-var-subclass":      p(`PREFIX rdfs: <`+rdf.NSRDFS+`> SELECT ?g ?s WHERE { GRAPH ?g { ?s rdfs:subClassOf <%s> . } }`, "A"),
		"from-clause":             p(`SELECT ?a ?b FROM <%s> WHERE { ?a <%s> ?b . }`, "g2", "knowsWell"),
		"from-entailed":           p(`SELECT ?a ?b FROM <%s> WHERE { ?a <%s> ?b . }`, "g2", "knows"),
		"values-single":           p(`SELECT ?x ?v WHERE { VALUES (?x) { (<%s>) } ?x <%s> ?v . }`, "x1", "age"),
		"values-multi-row":        p(`SELECT ?x ?v WHERE { VALUES (?x) { (<%s>) (<%s>) } ?x <%s> ?v . }`, "x1", "x3", "age"),
		"values-unknown-term":     p(`SELECT ?x ?v WHERE { VALUES (?x) { (<%s>) } ?x <%s> ?v . }`, "nowhere", "age"),
		"values-projected-only":   p(`SELECT ?x ?y WHERE { VALUES (?y) { (<%s>) } ?x <%s> ?v . }`, "tag", "age"),
		"filter-numeric":          p(`SELECT ?x ?v WHERE { ?x <%s> ?v . FILTER (?v > 30) }`, "age"),
		"filter-var-var":          p(`SELECT ?x ?y WHERE { ?x <%s> ?v . ?y <%s> ?w . FILTER (?v = ?w) FILTER (?x != ?y) }`, "age", "age"),
		"filter-unbound":          p(`SELECT ?x WHERE { ?x <%s> ?v . FILTER (?u > 1) }`, "age"),
		"distinct":                p(`SELECT DISTINCT ?v WHERE { ?x <%s> ?v . }`, "age"),
		"distinct-offset-limit":   p(`SELECT DISTINCT ?a ?b WHERE { ?a <%s> ?b . } LIMIT 2 OFFSET 1`, "knows"),
		"offset-past-end":         p(`SELECT ?a WHERE { ?a <%s> ?b . } OFFSET 50`, "knows"),
		"limit-zero":              p(`SELECT ?a WHERE { ?a <%s> ?b . } LIMIT 0`, "knows"),
		"select-star":             p(`SELECT * WHERE { ?a <%s> ?b . ?b <%s> ?v . }`, "knows", "age"),
		"unknown-constant":        p(`SELECT ?x WHERE { ?x <%s> ?y . }`, "missingPredicate"),
		"unknown-subject":         p(`SELECT ?p ?o WHERE { <%s> ?p ?o . }`, "ghost"),
		"union-dedupe":            p(`SELECT ?a ?b WHERE { ?a <%s> ?b . ?b <%s> ?c . }`, "knows", "age"),
		"cartesian":               p(`SELECT ?a ?c WHERE { ?a <%s> ?b . ?c <%s> ?d . }`, "knowsWell", "age"),
		"project-unbound-var":     p(`SELECT ?a ?nope WHERE { ?a <%s> ?b . }`, "knows"),
	}
}

// runningExampleShape is the paper's own query shape (VALUES + FROM + BGP
// over the Global graph, Code 3) on the evalStore fixture.
const runningExampleShape = `
PREFIX ex: <http://example.org/>
SELECT ?x ?y
FROM <http://example.org/G>
WHERE {
  VALUES (?x) { (ex:monitorId) }
  ex:Monitor ex:hasFeature ?x .
  ex:Monitor ex:generatesQoS ?im .
  ?im ex:hasFeature ?y .
}`

// goldenSection is one query's rendered answer in the golden file.
type goldenSection struct{ name, text string }

// evalMatrix evaluates the matrix with entailment on and off, then again
// after two writes that extend the hierarchy and data ("mutated/"), then at
// the snapshot pinned between those writes, whose state lacks the second
// write's g3 quad ("removed/": the store only grows, so the state without
// that quad is read at the generation before it) — on the same two
// evaluators, so any state an evaluator kept from another generation would
// show — and finally the running example.
func evalMatrix(t *testing.T) []goldenSection {
	var out []goldenSection
	queries := parityQueries()
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	slices.Sort(names)
	render := func(e *oracle.Evaluator, sn store.Snapshot, prefix, name, query string) {
		t.Helper()
		q, err := sparql.Parse(query)
		if err != nil {
			t.Fatalf("%s%s: %v", prefix, name, err)
		}
		sols, err := e.EvaluateAt(context.Background(), sn, q)
		if err != nil {
			t.Fatalf("%s%s: %v", prefix, name, err)
		}
		out = append(out, goldenSection{prefix + name, sols.String()})
	}
	s := parityStore(t)
	evals := []*oracle.Evaluator{oracle.NewEvaluator(s), oracle.NewPlainEvaluator(s)}
	phase := func(prefix string, sn store.Snapshot) {
		for _, e := range evals {
			for _, name := range names {
				render(e, sn, fmt.Sprintf("%sentail=%v/", prefix, e.Entailment), name, queries[name])
			}
		}
	}
	phase("", s.Snapshot())
	if _, err := s.AddAll([]rdf.Quad{
		{Triple: rdf.T(pIRI("E"), rdf.RDFSSubClassOf, pIRI("C")), Graph: pIRI("g2")},
		{Triple: rdf.T(pIRI("x5"), rdf.RDFType, pIRI("E")), Graph: pIRI("g1")},
		{Triple: rdf.T(pIRI("knowsWell"), rdf.RDFSSubPropertyOf, pIRI("related"))},
	}); err != nil {
		t.Fatal(err)
	}
	withoutG3 := s.Snapshot()
	if added, err := s.Add(rdf.Quad{Triple: rdf.T(pIRI("x5"), pIRI("knowsWell"), pIRI("x1")), Graph: pIRI("g3")}); err != nil || !added {
		t.Fatalf("adding the g3 quad: added=%v err=%v", added, err)
	}
	phase("mutated/", s.Snapshot())
	phase("removed/", withoutG3)
	ex := evalStore(t)
	for _, e := range []*oracle.Evaluator{oracle.NewEvaluator(ex), oracle.NewPlainEvaluator(ex)} {
		render(e, ex.Snapshot(), "running-example/", fmt.Sprintf("entail=%v", e.Entailment), runningExampleShape)
	}
	return out
}

// renderGolden concatenates sections as "== name" lines followed by the
// Solutions.String() table; no rendered term starts a line with "== ".
func renderGolden(sections []goldenSection) string {
	var b strings.Builder
	for _, s := range sections {
		fmt.Fprintf(&b, "== %s\n%s", s.name, s.text)
	}
	return b.String()
}

const evalGoldenPath = "testdata/eval_matrix.golden"

// TestEvaluatorGolden pins the whole matrix byte for byte.
func TestEvaluatorGolden(t *testing.T) {
	got := renderGolden(evalMatrix(t))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(evalGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(evalGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(evalGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("evaluator output differs from %s; the per-query TestEvaluatorParity* subtests name the sections", evalGoldenPath)
	}
}

// goldenSections parses the golden file back into name -> table.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(evalGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if n, ok := strings.CutPrefix(line, "== "); ok {
			name = strings.TrimSuffix(n, "\n")
			out[name] = ""
			continue
		}
		out[name] += line
	}
	return out
}

// checkGoldenSections runs one subtest per matrix section whose name has
// the prefix, comparing it with its golden section.
func checkGoldenSections(t *testing.T, prefix string) {
	want := goldenSections(t)
	n := 0
	for _, s := range evalMatrix(t) {
		if !strings.HasPrefix(s.name, prefix) {
			continue
		}
		n++
		t.Run(s.name, func(t *testing.T) {
			if w, ok := want[s.name]; !ok || w != s.text {
				t.Errorf("got:\n%s\ngolden:\n%s", s.text, w)
			}
		})
	}
	if n == 0 {
		t.Fatalf("no matrix section starts with %q", prefix)
	}
}

func TestEvaluatorParity(t *testing.T) { checkGoldenSections(t, "entail=") }

// TestEvaluatorParityAfterMutation re-runs the matrix after writes that
// extend the hierarchy and data, and at the snapshot pinned between them:
// each evaluation must build the hierarchy closure of the snapshot it pins.
func TestEvaluatorParityAfterMutation(t *testing.T) {
	checkGoldenSections(t, "mutated/")
	checkGoldenSections(t, "removed/")
}

func TestEvaluatorParityRunningExample(t *testing.T) { checkGoldenSections(t, "running-example/") }
