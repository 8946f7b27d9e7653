package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bdi/internal/rdf"
)

func qd(i int) rdf.Quad {
	return rdf.Quad{
		Triple: rdf.T(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i%7)),
			rdf.IRI(fmt.Sprintf("http://ex/p%d", i%3)),
			rdf.IRI(fmt.Sprintf("http://ex/o%d", i)),
		),
		Graph: rdf.IRI(fmt.Sprintf("http://ex/g%d", i%2)),
	}
}

// TestCommitHookObservesBatchesInOrder checks the write-ahead contract: the
// hook sees every batch, before publication, with the next generation, and
// the quads in intern order.
func TestCommitHookObservesBatchesInOrder(t *testing.T) {
	s := New()
	var batches []Batch
	s.SetCommitHook(func(b Batch) error {
		// Write-ahead: the published generation must still be the old one.
		if got := s.Generation(); got != b.Generation-1 {
			t.Errorf("hook for generation %d ran after publication (store at %d)", b.Generation, got)
		}
		batches = append(batches, b)
		return nil
	})
	if _, err := s.Add(qd(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddAll([]rdf.Quad{qd(1), qd(2), qd(1)}); err != nil { // one duplicate
		t.Fatal(err)
	}
	if added, err := s.Add(qd(2)); err != nil || added { // a duplicate publishes nothing
		t.Fatalf("re-adding a stored quad: added=%v err=%v", added, err)
	}
	if _, err := s.Add(qd(3)); err != nil {
		t.Fatal(err)
	}

	if len(batches) != 3 {
		t.Fatalf("hook saw %d batches, want 3", len(batches))
	}
	for i, b := range batches {
		if b.Generation != uint64(i+1) {
			t.Fatalf("batch %d generation = %d, want %d", i, b.Generation, i+1)
		}
	}
	// The AddAll batch logged only the two distinct quads, in intern order.
	if got := batches[1].Quads; len(got) != 2 || got[0].String() != qd(1).String() || got[1].String() != qd(2).String() {
		t.Fatalf("AddAll batch logged %v", got)
	}
	if got := batches[2].Quads; len(got) != 1 || got[0].String() != qd(3).String() {
		t.Fatalf("one-quad Add batch logged %v", got)
	}
}

// TestCommitHookVetoRollsBack: a hook error aborts the insertion without
// publishing and without leaving phantom quads in the canonical set, and
// every write returns it.
func TestCommitHookVetoRollsBack(t *testing.T) {
	s := New()
	if _, err := s.AddAll([]rdf.Quad{qd(0), qd(1)}); err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	quads := s.Quads()
	veto := errors.New("disk full")
	s.SetCommitHook(func(Batch) error { return veto })
	if _, err := s.Add(qd(2)); !errors.Is(err, veto) {
		t.Fatalf("Add error = %v, want the veto", err)
	}
	if _, err := s.Add(qd(2)); !errors.Is(err, veto) {
		t.Fatalf("one-quad Add error = %v, want the veto", err)
	}
	if _, err := s.AddAll([]rdf.Quad{qd(3), qd(4)}); !errors.Is(err, veto) {
		t.Fatalf("AddAll error = %v, want the veto", err)
	}
	if got := s.Generation(); got != gen {
		t.Fatalf("generation moved to %d after vetoed writes, want %d", got, gen)
	}
	if got := s.Quads(); len(got) != len(quads) {
		t.Fatalf("store has %d quads after vetoed writes, want %d", len(got), len(quads))
	}
	// The vetoed quads must be re-addable once the hook allows writes again
	// (the canonical set was rolled back, not poisoned).
	s.SetCommitHook(nil)
	n, err := s.AddAll([]rdf.Quad{qd(2), qd(3), qd(4)})
	if err != nil || n != 3 {
		t.Fatalf("re-adding vetoed quads: n=%d err=%v", n, err)
	}
}

// TestArenaIsTheGenerationLog runs seeded batches that are accepted,
// vetoed, stopped at an invalid quad or made only of duplicates. After
// every batch the arena holds exactly Len() slots, and for every
// generation g since the store's base Inserted(g) returns the quads the
// commit hook saw for g, in the same order, on the live store and on one
// restored from a pinned snapshot; outside that range it reports false.
func TestArenaIsTheGenerationLog(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		logged := map[uint64][]rdf.Quad{}
		vetoNext := false
		veto := errors.New("vetoed")
		s.SetCommitHook(func(b Batch) error {
			if vetoNext {
				return veto
			}
			logged[b.Generation] = b.Quads
			return nil
		})
		check := func(st *Store, base uint64) {
			t.Helper()
			sn := st.Snapshot()
			if got := int(st.ar.slots.Len()); got != sn.Len() {
				t.Fatalf("seed %d: arena has %d slots, Len() = %d", seed, got, sn.Len())
			}
			for g := uint64(0); g <= sn.Generation()+1; g++ {
				got, ok := sn.Inserted(g)
				if want := g > base && g <= sn.Generation(); ok != want {
					t.Fatalf("seed %d: Inserted(%d) reported %v at base %d, generation %d", seed, g, ok, base, sn.Generation())
				}
				if ok && fmt.Sprint(got) != fmt.Sprint(logged[g]) {
					t.Fatalf("seed %d: Inserted(%d) = %v, the hook saw %v", seed, g, got, logged[g])
				}
			}
		}
		next := 0
		for step := 0; step < 60; step++ {
			batch := make([]rdf.Quad, 1+rng.Intn(40))
			for i := range batch {
				if rng.Intn(4) == 0 && next > 0 {
					batch[i] = qd(rng.Intn(next)) // a duplicate
				} else {
					batch[i] = qd(next)
					next++
				}
			}
			kind := rng.Intn(4)
			if kind == 1 {
				batch[rng.Intn(len(batch))] = rdf.Quad{} // stops the batch
			}
			vetoNext = kind == 2
			gen := s.Generation()
			_, err := s.AddAll(batch)
			if vetoNext != errors.Is(err, veto) {
				t.Fatalf("seed %d step %d: AddAll error %v, vetoed %v", seed, step, err, vetoNext)
			}
			if vetoNext && s.Generation() != gen {
				t.Fatalf("seed %d step %d: a vetoed batch published", seed, step)
			}
			check(s, 0)
		}
		sn := s.Snapshot()
		restored, err := Restore(sn.Dict(), sn.Generation(), sn.ExportGraphIDs())
		if err != nil {
			t.Fatal(err)
		}
		restored.SetCommitHook(s.hook)
		check(restored, sn.Generation())
		if _, err := restored.AddAll([]rdf.Quad{qd(next), qd(next + 1)}); err != nil {
			t.Fatal(err)
		}
		check(restored, sn.Generation())
	}
}

// TestFastPathInitialLoadMatchesIncremental: loading N quads into an empty
// store in one AddAll (fast path, direct snapshot build) must produce
// byte-identical Match/MatchWithIDs results and stats as per-quad insertion
// (COW path).
func TestFastPathInitialLoadMatchesIncremental(t *testing.T) {
	const n = 500
	quads := make([]rdf.Quad, n)
	for i := range quads {
		quads[i] = qd(i)
	}
	bulk := New()
	if added, err := bulk.AddAll(quads); err != nil || added != n {
		t.Fatalf("bulk load: added=%d err=%v", added, err)
	}
	slow := New()
	for _, q := range quads {
		if _, err := slow.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.Len() != slow.Len() {
		t.Fatalf("bulk %d quads, incremental %d", bulk.Len(), slow.Len())
	}
	patterns := []Pattern{
		{},
		WildcardGraph(qd(3).Subject, nil, nil),
		WildcardGraph(nil, qd(4).Predicate, nil),
		WildcardGraph(nil, nil, qd(5).Object),
		InGraph(qd(0).Graph, nil, nil, nil),
		InGraph(qd(1).Graph, qd(1).Subject, qd(1).Predicate, nil),
	}
	for pi, p := range patterns {
		b, s := bulk.Snapshot().MatchWithIDs(p), slow.Snapshot().MatchWithIDs(p)
		if len(b) != len(s) {
			t.Fatalf("pattern %d: bulk %d matches, incremental %d", pi, len(b), len(s))
		}
		for i := range b {
			if b[i].ID != s[i].ID || b[i].Quad.String() != s[i].Quad.String() {
				t.Fatalf("pattern %d match %d: bulk %v/%v, incremental %v/%v", pi, i, b[i].ID, b[i].Quad, s[i].ID, s[i].Quad)
			}
		}
	}
	if bs, ss := bulk.Stats(), slow.Stats(); bs != ss {
		t.Fatalf("stats diverge: bulk %+v, incremental %+v", bs, ss)
	}
	// The fast-built snapshot must behave correctly under subsequent
	// incremental insertion (its buckets are real COW-able structures).
	if _, err := bulk.AddAll([]rdf.Quad{qd(n), qd(n + 1)}); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != n+2 {
		t.Fatalf("len = %d, want %d", bulk.Len(), n+2)
	}
}

// TestRestoreRejectsCorruptInput: Restore must reject unresolvable IDs,
// misfiled quads, unsorted buckets and duplicates.
func TestRestoreRejectsCorruptInput(t *testing.T) {
	src := New()
	quads := make([]rdf.Quad, 50)
	for i := range quads {
		quads[i] = qd(i)
	}
	if _, err := src.AddAll(quads); err != nil {
		t.Fatal(err)
	}
	sn := src.Snapshot()
	d := sn.Dict()
	graphs := sn.ExportGraphIDs()

	restored, err := Restore(d, sn.Generation(), graphs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Quads(), src.Quads(); len(got) != len(want) {
		t.Fatalf("restored %d quads, want %d", len(got), len(want))
	}

	corrupt := func(name string, mutate func([][]QuadID) [][]QuadID) {
		cp := make([][]QuadID, len(graphs))
		for i, g := range graphs {
			cp[i] = append([]QuadID(nil), g...)
		}
		if _, err := Restore(d, sn.Generation(), mutate(cp)); err == nil {
			t.Fatalf("%s: Restore accepted corrupt input", name)
		}
	}
	corrupt("unknown-id", func(g [][]QuadID) [][]QuadID {
		g[0][0].Object = 60000
		return g
	})
	corrupt("misfiled-graph", func(g [][]QuadID) [][]QuadID {
		g[0][0].Graph = g[1][0].Graph
		return g
	})
	corrupt("unsorted", func(g [][]QuadID) [][]QuadID {
		g[0][0], g[0][1] = g[0][1], g[0][0]
		return g
	})
	corrupt("duplicate", func(g [][]QuadID) [][]QuadID {
		g[0][1] = g[0][0]
		return g
	})
}
