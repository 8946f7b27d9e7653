package store

import (
	"fmt"
	"sync"
	"testing"

	"bdi/internal/rdf"
)

// graphQuads returns k quads that together form one named graph.
func graphQuads(graph rdf.IRI, k int) []rdf.Quad {
	quads := make([]rdf.Quad, k)
	for i := range quads {
		quads[i] = rdf.Q(
			rdf.IRI(fmt.Sprintf("http://snap/s%d", i)),
			rdf.IRI(fmt.Sprintf("http://snap/p%d", i%4)),
			rdf.IRI(fmt.Sprintf("http://snap/o%d", i%8)),
			graph,
		)
	}
	return quads
}

// TestSnapshotIsolation pins a snapshot, mutates the store, and asserts the
// pinned view is completely unaffected while a fresh snapshot sees the new
// state.
func TestSnapshotIsolation(t *testing.T) {
	s := New()
	if _, err := s.AddAll(graphQuads("http://snap/g1", 10)); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	beforeGen := before.Generation()
	beforeQuads := before.Quads()

	if _, err := s.AddAll(graphQuads("http://snap/g2", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(rdf.Q("http://snap/extra", "http://snap/p0", "http://snap/o0", "http://snap/g1")); err != nil {
		t.Fatal(err)
	}

	if got := before.Generation(); got != beforeGen {
		t.Fatalf("pinned snapshot generation moved: %d -> %d", beforeGen, got)
	}
	if got := before.Len(); got != 10 {
		t.Fatalf("pinned snapshot Len = %d, want 10", got)
	}
	if got := before.GraphLen("http://snap/g1"); got != 10 {
		t.Fatalf("pinned snapshot GraphLen(g1) = %d, want 10", got)
	}
	if got := before.GraphLen("http://snap/g2"); got != 0 {
		t.Fatalf("pinned snapshot sees later graph: GraphLen(g2) = %d", got)
	}
	for i, q := range before.Quads() {
		if !q.Equal(beforeQuads[i]) {
			t.Fatalf("pinned snapshot content changed at %d", i)
		}
	}

	after := s.Snapshot()
	if after.Generation() <= beforeGen {
		t.Fatalf("generation did not advance: %d -> %d", beforeGen, after.Generation())
	}
	if got := after.GraphLen("http://snap/g1"); got != 11 {
		t.Fatalf("fresh snapshot GraphLen(g1) = %d, want 11", got)
	}
	if got := after.GraphLen("http://snap/g2"); got != 7 {
		t.Fatalf("fresh snapshot GraphLen(g2) = %d, want 7", got)
	}
}

// TestSnapshotConsistentGenerationUnderChurn is the reader/writer hammer
// test: writers batch-load fresh whole graphs while readers pin snapshots
// and assert that every pinned view is internally consistent — a graph is
// always observed with all of its quads or none (AddAll is atomic),
// repeated probes of one snapshot agree, and the per-graph accounting
// matches Len. Run with -race this also checks the
// lock-free read path against the copy-on-write writer.
func TestSnapshotConsistentGenerationUnderChurn(t *testing.T) {
	s := New()
	const (
		writers   = 2
		readers   = 4
		iters     = 200
		graphSize = 9
	)
	// A stable base graph so readers always have something to find.
	if _, err := s.AddAll(graphQuads("http://snap/base", graphSize)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g := rdf.IRI(fmt.Sprintf("http://snap/churn%d-%d", w, i))
				if _, err := s.AddAll(graphQuads(g, graphSize)); err != nil {
					panic(err)
				}
			}
		}(w)
	}

	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g := rdf.IRI(fmt.Sprintf("http://snap/churn%d-%d", r%writers, i))
				sn := s.Snapshot()
				gen := sn.Generation()

				// Atomic batches: a churn graph is all-or-nothing.
				n1 := sn.GraphLen(g)
				if n1 != 0 && n1 != graphSize {
					errs <- fmt.Errorf("torn read: GraphLen(%s) = %d, want 0 or %d", g, n1, graphSize)
					return
				}
				// Repeated probes of one snapshot agree with each other.
				if n2 := len(sn.Match(InGraph(g, nil, nil, nil))); n2 != n1 {
					errs <- fmt.Errorf("snapshot disagrees with itself: GraphLen=%d, Match=%d", n1, n2)
					return
				}
				// The base graph is always fully visible.
				if n := len(sn.Match(InGraph("http://snap/base", nil, nil, nil))); n != graphSize {
					errs <- fmt.Errorf("base graph = %d quads, want %d", n, graphSize)
					return
				}
				// Per-graph accounting matches the total at this generation.
				total := sn.GraphLen("")
				for _, name := range sn.Graphs() {
					total += sn.GraphLen(name)
				}
				if total != sn.Len() {
					errs <- fmt.Errorf("graphs account for %d quads, snapshot has %d", total, sn.Len())
					return
				}
				// The snapshot never moves generations behind our back.
				if sn.Generation() != gen {
					errs <- fmt.Errorf("pinned generation changed: %d -> %d", gen, sn.Generation())
					return
				}
			}
			errs <- nil
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBucketsStaySorted asserts the pre-sorted bucket invariant directly:
// after a shuffled load of batched and single inserts, every index bucket
// is in ascending sort-key order (Match results must come back sorted
// without any per-probe sort).
func TestBucketsStaySorted(t *testing.T) {
	s := New()
	quads := mixedQuads(42)
	// A bulk load, then single adds merged into the loaded buckets.
	if _, err := s.AddAll(quads[:len(quads)/2]); err != nil {
		t.Fatal(err)
	}
	for _, q := range quads[len(quads)/2:] {
		if _, err := s.Add(q); err != nil {
			t.Fatal(err)
		}
	}

	sn := s.Snapshot()
	assertSorted := func(label string, entries []eref) {
		for i := 1; i < len(entries); i++ {
			if string(sn.sn.key(entries[i-1])) >= string(sn.sn.key(entries[i])) {
				t.Fatalf("%s: bucket out of order at %d: %q >= %q", label, i, sn.sn.key(entries[i-1]), sn.sn.key(entries[i]))
			}
		}
	}
	assertIndexSorted := func(dim string, ti *termIndex) {
		for pi, pg := range ti.pages {
			if pg == nil {
				continue
			}
			for slot := range pg {
				assertSorted(fmt.Sprintf("%s page %d slot %d", dim, pi, slot), pg[slot])
			}
		}
	}
	assertIndexSorted("bySubject", sn.sn.bySubject)
	assertIndexSorted("byObject", sn.sn.byObject)
	for _, gb := range sn.sn.graphs {
		assertSorted(fmt.Sprintf("graph %q", gb.name), gb.entries)
	}
}

// TestSnapshotZeroValue pins the documented zero-value behavior: an empty
// Snapshot answers like an empty store.
func TestSnapshotZeroValue(t *testing.T) {
	var sn Snapshot
	if sn.Len() != 0 || sn.Generation() != 0 {
		t.Fatalf("zero snapshot not empty: len=%d gen=%d", sn.Len(), sn.Generation())
	}
	if got := sn.Match(Pattern{}); got != nil {
		t.Fatalf("zero snapshot Match = %v", got)
	}
	if got := sn.MatchWithIDs(Pattern{}); got != nil {
		t.Fatalf("zero snapshot MatchWithIDs = %v", got)
	}
}
