package store

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"bdi/internal/rdf"
)

func quadFixture() []rdf.Quad {
	return []rdf.Quad{
		rdf.Q("http://ex/app", "http://ex/hasMonitor", "http://ex/monitor", ""),
		rdf.Q("http://ex/monitor", "http://ex/generatesQoS", "http://ex/info", ""),
		rdf.Q("http://ex/Monitor", "http://ex/hasFeature", "http://ex/monitorId", "http://ex/w1"),
		rdf.Q("http://ex/InfoMonitor", "http://ex/hasFeature", "http://ex/lagRatio", "http://ex/w1"),
		rdf.Q("http://ex/Monitor", "http://ex/hasFeature", "http://ex/monitorId", "http://ex/w3"),
	}
}

func loadedStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	for _, q := range quadFixture() {
		if _, err := s.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAddAndLen(t *testing.T) {
	s := loadedStore(t)
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
	// Duplicate insert is a no-op.
	ok, err := s.Add(quadFixture()[0])
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("duplicate add should report false")
	}
	if s.Len() != 5 {
		t.Errorf("Len after duplicate = %d, want 5", s.Len())
	}
}

func TestAddRejectsInvalidQuads(t *testing.T) {
	s := New()
	bad := rdf.Quad{Triple: rdf.NewTriple(rdf.NewLiteral("s"), rdf.IRI("http://p"), rdf.IRI("http://o"))}
	if _, err := s.Add(bad); err == nil {
		t.Error("literal subject should be rejected")
	}
	badVar := rdf.Quad{Triple: rdf.NewTriple(rdf.IRI("http://s"), rdf.IRI("http://p"), rdf.NewVariable("o"))}
	if _, err := s.Add(badVar); err == nil {
		t.Error("variable object should be rejected")
	}
}

func TestMatchBySubjectPredicateObject(t *testing.T) {
	s := loadedStore(t)
	cases := []struct {
		name    string
		pattern Pattern
		want    int
	}{
		{"all", Pattern{}, 5},
		{"by subject", WildcardGraph(rdf.IRI("http://ex/Monitor"), nil, nil), 2},
		{"by predicate", WildcardGraph(nil, rdf.IRI("http://ex/hasFeature"), nil), 3},
		{"by object", WildcardGraph(nil, nil, rdf.IRI("http://ex/monitorId")), 2},
		{"in graph", InGraph("http://ex/w1", nil, nil, nil), 2},
		{"in default graph", InGraph("", nil, nil, nil), 2},
		{"subject+graph", InGraph("http://ex/w3", rdf.IRI("http://ex/Monitor"), nil, nil), 1},
		{"no match", WildcardGraph(rdf.IRI("http://ex/absent"), nil, nil), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := s.Snapshot().Match(c.pattern)
			if len(got) != c.want {
				t.Errorf("got %d quads, want %d: %v", len(got), c.want, got)
			}
		})
	}
}

func TestMatchTreatsVariablesAsWildcards(t *testing.T) {
	s := loadedStore(t)
	got := s.Snapshot().Match(WildcardGraph(rdf.NewVariable("s"), rdf.IRI("http://ex/hasFeature"), rdf.NewVariable("o")))
	if len(got) != 3 {
		t.Errorf("got %d, want 3", len(got))
	}
}

func TestGraphsAndGraphLen(t *testing.T) {
	s := loadedStore(t)
	graphs := s.Snapshot().Graphs()
	if len(graphs) != 2 {
		t.Fatalf("graphs = %v", graphs)
	}
	if graphs[0] != "http://ex/w1" || graphs[1] != "http://ex/w3" {
		t.Errorf("unexpected graph order: %v", graphs)
	}
	if s.GraphLen("http://ex/w1") != 2 {
		t.Errorf("w1 length = %d", s.GraphLen("http://ex/w1"))
	}
	if s.GraphLen("") != 2 {
		t.Errorf("default graph length = %d", s.GraphLen(""))
	}
}

func TestGraphsContaining(t *testing.T) {
	s := loadedStore(t)
	tr := rdf.T("http://ex/Monitor", "http://ex/hasFeature", "http://ex/monitorId")
	graphs := s.Snapshot().GraphsContaining(tr)
	if len(graphs) != 2 {
		t.Fatalf("expected 2 graphs, got %v", graphs)
	}
	none := s.Snapshot().GraphsContaining(rdf.T("http://ex/a", "http://ex/b", "http://ex/c"))
	if len(none) != 0 {
		t.Errorf("expected no graphs, got %v", none)
	}
}

func TestNamedGraphMaterialization(t *testing.T) {
	s := loadedStore(t)
	g := s.Snapshot().NamedGraph("http://ex/w1")
	if g.Len() != 2 {
		t.Errorf("named graph length = %d", g.Len())
	}
	if g.Name != "http://ex/w1" {
		t.Errorf("graph name = %v", g.Name)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := loadedStore(t)
	c := s.Clone()
	c.MustAdd(rdf.Q("http://ex/new", "http://ex/p", "http://ex/o", ""))
	if s.Len() == c.Len() {
		t.Error("clone mutation should not affect original")
	}
}

func TestStatsAndString(t *testing.T) {
	s := loadedStore(t)
	st := s.Stats()
	if st.Quads != 5 || st.NamedGraphs != 2 || st.DefaultGraphQuads != 2 {
		t.Errorf("unexpected stats %+v", st)
	}
	if s.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestGenerationAdvancesOnMutation(t *testing.T) {
	s := New()
	g0 := s.Generation()
	s.MustAdd(rdf.Q("http://ex/s", "http://ex/p", "http://ex/o", ""))
	if s.Generation() == g0 {
		t.Error("generation should advance after Add")
	}
	g1 := s.Generation()
	s.MustAdd(rdf.Q("http://ex/s", "http://ex/p", "http://ex/o", ""))
	if s.Generation() != g1 {
		t.Error("a duplicate Add must not advance the generation")
	}
}

// Property: adding N distinct quads yields Len == N and every quad is
// matchable by its fully-specified pattern.
func TestAddMatchProperty(t *testing.T) {
	f := func(n uint8) bool {
		s := New()
		count := int(n%32) + 1
		for i := 0; i < count; i++ {
			q := rdf.Q(
				rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
				rdf.IRI("http://ex/p"),
				rdf.IRI(fmt.Sprintf("http://ex/o%d", i%7)),
				rdf.IRI(fmt.Sprintf("http://ex/g%d", i%3)),
			)
			s.MustAdd(q)
		}
		if s.Len() != count {
			return false
		}
		for i := 0; i < count; i++ {
			q := rdf.Q(
				rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
				rdf.IRI("http://ex/p"),
				rdf.IRI(fmt.Sprintf("http://ex/o%d", i%7)),
				rdf.IRI(fmt.Sprintf("http://ex/g%d", i%3)),
			)
			if !s.Snapshot().Contains(q) {
				return false
			}
			got := s.Snapshot().Match(InGraph(q.Graph, q.Subject, q.Predicate, q.Object))
			if len(got) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	s := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.MustAdd(rdf.Q(rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), "http://ex/p", "http://ex/o", ""))
		}
	}()
	for i := 0; i < 200; i++ {
		s.Snapshot().Match(WildcardGraph(nil, rdf.IRI("http://ex/p"), nil))
		s.Stats()
	}
	<-done
	if s.Len() != 200 {
		t.Errorf("Len = %d, want 200", s.Len())
	}
}

// TestMatchWithIDsAgainstMatch checks that the ID-reporting lookup agrees
// with the term-based Match, including order, and that each reported ID is
// the quad's dictionary encoding.
func TestMatchWithIDsAgainstMatch(t *testing.T) {
	s := New()
	for i := 0; i < 30; i++ {
		s.MustAdd(rdf.Q(
			rdf.IRI(fmt.Sprintf("http://m/s%d", i%6)),
			rdf.IRI(fmt.Sprintf("http://m/p%d", i%3)),
			rdf.IRI(fmt.Sprintf("http://m/o%d", i%10)),
			rdf.IRI(fmt.Sprintf("http://m/g%d", i%2)),
		))
	}
	sn := s.Snapshot()
	pred := rdf.IRI("http://m/p1")
	want := sn.Match(WildcardGraph(nil, pred, nil))
	got := sn.MatchWithIDs(WildcardGraph(nil, pred, nil))
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("MatchWithIDs returned %d, Match %d", len(got), len(want))
	}
	for i := range got {
		wid, _ := quadID(sn.Dict(), want[i])
		if !got[i].Quad.Equal(want[i]) || got[i].ID != wid {
			t.Fatalf("MatchWithIDs[%d] = %v %+v, want %v %+v", i, got[i].Quad, got[i].ID, want[i], wid)
		}
	}
	// A graph that was never interned matches nothing.
	if got := sn.MatchWithIDs(InGraph("http://m/unseen", nil, pred, nil)); got != nil {
		t.Errorf("unseen graph returned %d matches", len(got))
	}
}

// TestAddAllCostIndependentOfPredicateFanout pins that a batch allocates for
// what it adds, not for how many stored quads share its predicate: 64k quads
// of one predicate sit in g1, and a warm one-quad AddAll with that predicate
// into g2 must allocate at most 2.5 B per stored quad. A predicate index
// would copy the predicate's whole bucket (4 B per stored quad) per batch.
func TestAddAllCostIndependentOfPredicateFanout(t *testing.T) {
	const n = 1 << 16
	quads := make([]rdf.Quad, n)
	for i := range quads {
		quads[i] = rdf.Q(rdf.IRI(fmt.Sprintf("http://fan/s%d", i)), "http://fan/p", rdf.IRI(fmt.Sprintf("http://fan/o%d", i)), "http://fan/g1")
	}
	s := New()
	if _, err := s.AddAll(quads); err != nil {
		t.Fatal(err)
	}
	// Each batch copies a stored triple into g2, so no batch interns a term
	// and the dictionary never grows. The first batch creates g2 and the
	// next arena chunk and is not measured; the minimum over the rest skips
	// a one-off slab chunk or map growth.
	add := func(i int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if added, err := s.AddAll([]rdf.Quad{{Triple: quads[i].Triple, Graph: "http://fan/g2"}}); err != nil || added != 1 {
			t.Fatalf("AddAll = %d, %v", added, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	add(0)
	best := add(1)
	for i := 2; i <= 5; i++ {
		best = min(best, add(i))
	}
	if perQuad := float64(best) / n; perQuad > 2.5 {
		t.Fatalf("one-quad AddAll allocated %d B, %.2f B per stored quad, want <= 2.5", best, perQuad)
	}
}
