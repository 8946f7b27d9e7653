package oracle

import (
	"fmt"
	"testing"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// benchEvalStore builds a synthetic dataset of roughly n quads spread over
// four named graphs, shaped to exercise the evaluator's hot paths:
//
//   - a 10-class hierarchy under benchClassBase (subclass entailment),
//   - benchLinkSub rdfs:subPropertyOf benchLink (subproperty entailment),
//   - a next-chain (1:1 joins), 64 membership groups (fan-out joins and
//     DISTINCT pressure) and an integer value per item (FILTER / projection).
//
// Every 25th item carries an rdf:type assertion; all others carry a
// benchLinkSub edge, so type queries answer purely through entailment at a
// size that stays tractable for quadratic dedup baselines.
const benchNS = "http://bench.eval/"

var (
	benchClassBase = rdf.IRI(benchNS + "ClassBase")
	benchNext      = rdf.IRI(benchNS + "next")
	benchInGroup   = rdf.IRI(benchNS + "inGroup")
	benchValue     = rdf.IRI(benchNS + "value")
	benchLink      = rdf.IRI(benchNS + "link")
	benchLinkSub   = rdf.IRI(benchNS + "linkSub")
)

func benchItem(i int) rdf.IRI  { return rdf.IRI(fmt.Sprintf("%sitem%d", benchNS, i)) }
func benchClass(k int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%sClass%d", benchNS, k)) }
func benchGroup(k int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%sgroup%d", benchNS, k)) }

func benchEvalStore(tb testing.TB, n int) *store.Store {
	tb.Helper()
	s := store.New()
	quads := make([]rdf.Quad, 0, n+16)
	for k := 0; k < 10; k++ {
		quads = append(quads, rdf.Quad{Triple: rdf.T(benchClass(k), rdf.RDFSSubClassOf, benchClassBase)})
	}
	quads = append(quads, rdf.Quad{Triple: rdf.T(benchLinkSub, rdf.RDFSSubPropertyOf, benchLink)})
	m := n / 4
	for i := 0; i < m; i++ {
		g := rdf.IRI(fmt.Sprintf("%sg%d", benchNS, i%4))
		item := benchItem(i)
		quads = append(quads,
			rdf.Quad{Triple: rdf.T(item, benchNext, benchItem((i+1)%m)), Graph: g},
			rdf.Quad{Triple: rdf.T(item, benchInGroup, benchGroup(i%64)), Graph: g},
			rdf.Quad{Triple: rdf.Triple{Subject: item, Predicate: benchValue, Object: rdf.NewIntegerLiteral(int64(i % 100))}, Graph: g},
		)
		if i%25 == 0 {
			quads = append(quads, rdf.Quad{Triple: rdf.T(item, rdf.RDFType, benchClass(i%10)), Graph: g})
		} else {
			quads = append(quads, rdf.Quad{Triple: rdf.T(item, benchLinkSub, benchItem((i*7+3)%m)), Graph: g})
		}
	}
	if _, err := s.AddAll(quads); err != nil {
		tb.Fatal(err)
	}
	return s
}

func benchEvalSizes() []int { return []int{10000, 100000} }

// benchmarkSelect evaluates the query repeatedly, asserting the solution
// count stays fixed (want < 0 only asserts non-empty results).
func benchmarkSelect(b *testing.B, n int, entailment bool, query string, want int) {
	s := benchEvalStore(b, n)
	eval := NewEvaluator(s)
	eval.Entailment = entailment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sols, err := eval.Select(query)
		if err != nil {
			b.Fatal(err)
		}
		if want >= 0 && sols.Len() != want {
			b.Fatalf("solutions = %d, want %d", sols.Len(), want)
		}
		if want < 0 && sols.Len() == 0 {
			b.Fatal("no solutions")
		}
	}
}

// BenchmarkEvalJoinFanOut joins a selective group probe against the
// next-chain: constants-first ordering starts from the inGroup pattern.
func BenchmarkEvalJoinFanOut(b *testing.B) {
	query := fmt.Sprintf(`SELECT ?a ?b WHERE { ?a %s ?b . ?a %s %s . }`,
		benchNext, benchInGroup, benchGroup(3))
	for _, n := range benchEvalSizes() {
		m := n / 4
		want := (m - 1 - 3) / 64 // i ≡ 3 (mod 64), i < m ...
		want++                   // ... inclusive of i = 3
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkSelect(b, n, true, query, want)
		})
	}
}

// BenchmarkEvalDistinctHeavy projects every group membership and collapses it
// to the 64 distinct groups.
func BenchmarkEvalDistinctHeavy(b *testing.B) {
	query := fmt.Sprintf(`SELECT DISTINCT ?g WHERE { ?a %s ?g . }`, benchInGroup)
	for _, n := range benchEvalSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkSelect(b, n, true, query, 64)
		})
	}
}

// BenchmarkEvalEntailmentTypes answers an rdf:type query on the base class;
// every solution is entailed through the subclass hierarchy.
func BenchmarkEvalEntailmentTypes(b *testing.B) {
	query := fmt.Sprintf(`PREFIX rdf: <%s> SELECT ?x WHERE { ?x rdf:type %s . }`, rdf.NSRDF, benchClassBase)
	for _, n := range benchEvalSizes() {
		m := n / 4
		want := (m + 24) / 25
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkSelect(b, n, true, query, want)
		})
	}
}

// BenchmarkEvalEntailmentJoin extends each row of a group probe through a
// subproperty-entailed edge, stressing the per-extension closure lookups.
func BenchmarkEvalEntailmentJoin(b *testing.B) {
	query := fmt.Sprintf(`SELECT ?a ?b WHERE { ?a %s %s . ?a %s ?b . }`,
		benchInGroup, benchGroup(3), benchLink)
	for _, n := range benchEvalSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkSelect(b, n, true, query, -1)
		})
	}
}

// BenchmarkEvalValuesSeeded seeds the join from a two-row VALUES table, the
// shape of the paper's Code 3 query template.
func BenchmarkEvalValuesSeeded(b *testing.B) {
	query := fmt.Sprintf(`SELECT ?a ?g ?v WHERE { VALUES (?g) { (%s) (%s) } ?a %s ?g . ?a %s ?v . }`,
		benchGroup(3), benchGroup(7), benchInGroup, benchValue)
	for _, n := range benchEvalSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkSelect(b, n, true, query, -1)
		})
	}
}
