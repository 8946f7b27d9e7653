package store

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bdi/internal/rdf"
)

// legacyQuadKey reproduces the ordering key of the pre-dictionary,
// string-keyed store: Match sorted results by the concatenated
// graph/subject/predicate/object term keys. The integer-ID re-index must
// keep output byte-for-byte identical to that order.
func legacyQuadKey(q rdf.Quad) string {
	return string(q.Graph) + "\x00" + rdf.TermKey(q.Subject) + "\x00" + rdf.TermKey(q.Predicate) + "\x00" + rdf.TermKey(q.Object)
}

// mixedQuads returns a shuffled set of quads spanning default and named
// graphs, IRIs, blank nodes and literals (typed and language-tagged).
func mixedQuads(seed int64) []rdf.Quad {
	var quads []rdf.Quad
	for i := 0; i < 40; i++ {
		quads = append(quads,
			rdf.Q(
				rdf.IRI(fmt.Sprintf("http://ex/s%d", i%13)),
				rdf.IRI(fmt.Sprintf("http://ex/p%d", i%5)),
				rdf.IRI(fmt.Sprintf("http://ex/o%d", i%7)),
				rdf.IRI(fmt.Sprintf("http://ex/g%d", i%3)),
			),
			rdf.Quad{Triple: rdf.NewTriple(
				rdf.NewBlankNode(fmt.Sprintf("b%d", i%4)),
				rdf.IRI("http://ex/label"),
				rdf.NewLiteral(fmt.Sprintf("value %d", i%11)),
			)},
			rdf.Quad{Triple: rdf.NewTriple(
				rdf.IRI(fmt.Sprintf("http://ex/s%d", i%13)),
				rdf.IRI("http://ex/count"),
				rdf.NewIntegerLiteral(int64(i%9)),
			), Graph: "http://ex/g1"},
			rdf.Quad{Triple: rdf.NewTriple(
				rdf.IRI(fmt.Sprintf("http://ex/s%d", i%13)),
				rdf.IRI("http://ex/name"),
				rdf.NewLangLiteral(fmt.Sprintf("nom %d", i%6), "fr"),
			)},
		)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(quads), func(i, j int) { quads[i], quads[j] = quads[j], quads[i] })
	return quads
}

func determinismPatterns() []Pattern {
	return []Pattern{
		{},
		WildcardGraph(rdf.IRI("http://ex/s1"), nil, nil),
		WildcardGraph(nil, rdf.IRI("http://ex/p2"), nil),
		WildcardGraph(nil, nil, rdf.NewLiteral("value 3")),
		WildcardGraph(nil, rdf.IRI("http://ex/count"), rdf.NewIntegerLiteral(4)),
		InGraph("http://ex/g1", nil, nil, nil),
		InGraph("", nil, nil, nil),
		InGraph("http://ex/g2", rdf.IRI("http://ex/s2"), nil, nil),
		WildcardGraph(rdf.NewBlankNode("b1"), nil, nil),
	}
}

// TestMatchOrderMatchesLegacyStringOrder asserts that every Match result is
// sorted exactly as the string-keyed implementation sorted it.
func TestMatchOrderMatchesLegacyStringOrder(t *testing.T) {
	s := New()
	if _, err := s.AddAll(mixedQuads(1)); err != nil {
		t.Fatal(err)
	}
	for pi, p := range determinismPatterns() {
		got := s.Snapshot().Match(p)
		want := append([]rdf.Quad(nil), got...)
		sort.SliceStable(want, func(i, j int) bool { return legacyQuadKey(want[i]) < legacyQuadKey(want[j]) })
		for i := range got {
			if gk, wk := legacyQuadKey(got[i]), legacyQuadKey(want[i]); gk != wk {
				t.Fatalf("pattern %d: result %d out of legacy order:\n got %q\nwant %q", pi, i, gk, wk)
			}
		}
	}
}

// TestMatchOrderInsensitiveToInsertionOrder asserts that two stores loaded
// with the same quads in different orders answer every pattern identically.
func TestMatchOrderInsensitiveToInsertionOrder(t *testing.T) {
	a, b := New(), New()
	if _, err := a.AddAll(mixedQuads(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddAll(mixedQuads(99)); err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("stores differ in size: %d vs %d", a.Len(), b.Len())
	}
	for pi, p := range determinismPatterns() {
		ga, gb := a.Snapshot().Match(p), b.Snapshot().Match(p)
		if len(ga) != len(gb) {
			t.Fatalf("pattern %d: %d vs %d results", pi, len(ga), len(gb))
		}
		for i := range ga {
			if !ga[i].Equal(gb[i]) {
				t.Fatalf("pattern %d: result %d differs: %v vs %v", pi, i, ga[i], gb[i])
			}
		}
	}
}

// TestConcurrentAddMatch hammers the store from many goroutines adding
// single quads and whole-graph batches while others probe; run with -race
// it checks the locking discipline of the dictionary, the indexes and the
// copy-on-write insertion path.
func TestConcurrentAddMatch(t *testing.T) {
	s := New()
	const writers, readers, iters = 4, 4, 300

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g := rdf.IRI(fmt.Sprintf("http://ex/g%d", i%5))
				s.MustAdd(rdf.Q(
					rdf.IRI(fmt.Sprintf("http://ex/w%d-s%d", w, i)),
					rdf.IRI(fmt.Sprintf("http://ex/p%d", i%4)),
					rdf.IRI(fmt.Sprintf("http://ex/o%d", i%16)),
					g,
				))
				if i%41 == 0 {
					batch := make([]rdf.Quad, 8)
					for k := range batch {
						batch[k] = rdf.Q(
							rdf.IRI(fmt.Sprintf("http://ex/w%d-b%d-s%d", w, i, k)),
							rdf.IRI(fmt.Sprintf("http://ex/p%d", k%4)),
							rdf.IRI(fmt.Sprintf("http://ex/o%d", k)),
							rdf.IRI(fmt.Sprintf("http://ex/batch-w%d-%d", w, i)),
						)
					}
					if _, err := s.AddAll(batch); err != nil {
						panic(err)
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dict := s.Snapshot().Dict()
			for i := 0; i < iters; i++ {
				s.Snapshot().Match(WildcardGraph(nil, rdf.IRI(fmt.Sprintf("http://ex/p%d", i%4)), nil))
				s.Snapshot().MatchWithIDs(InGraph(rdf.IRI(fmt.Sprintf("http://ex/g%d", i%5)), nil, nil, nil))
				s.Snapshot().GraphsContaining(rdf.T(
					rdf.IRI(fmt.Sprintf("http://ex/w%d-s%d", r%writers, i)),
					rdf.IRI(fmt.Sprintf("http://ex/p%d", i%4)),
					rdf.IRI(fmt.Sprintf("http://ex/o%d", i%16)),
				))
				s.Snapshot().Graphs()
				s.Stats()
				dict.Lookup(rdf.IRI(fmt.Sprintf("http://ex/o%d", i%16)))
			}
		}(r)
	}
	wg.Wait()

	// Every quad must be stored, fully indexed and consistent.
	batches := (iters + 40) / 41
	if want := writers * (iters + 8*batches); s.Len() != want {
		t.Errorf("store has %d quads, want %d", s.Len(), want)
	}
	total := 0
	for _, g := range append(s.Snapshot().Graphs(), "") {
		total += s.GraphLen(g)
	}
	if total != s.Len() {
		t.Errorf("graph index accounts for %d quads, store has %d", total, s.Len())
	}
	for _, q := range s.Quads() {
		if got := s.Snapshot().Match(InGraph(q.Graph, q.Subject, q.Predicate, q.Object)); len(got) != 1 {
			t.Fatalf("quad %v not findable via full-constant match (%d results)", q, len(got))
		}
	}
}
