package store

import (
	"errors"
	"fmt"
	"testing"

	"bdi/internal/rdf"
)

// TestArenaCompactionReclaimsDeadSlots vetoes a bulk load large enough to
// trip arena compaction (a vetoed batch leaves its slots dead) and asserts
// that the next published batch shrinks the arena back to the live size
// while content, probes and pinned snapshots stay intact.
func TestArenaCompactionReclaimsDeadSlots(t *testing.T) {
	s := New()
	const n = 3 * arenaCompactMin
	load := func(graph rdf.IRI, k int) []rdf.Quad {
		quads := make([]rdf.Quad, k)
		for i := range quads {
			quads[i] = rdf.Q(
				rdf.IRI(fmt.Sprintf("http://comp/s%d", i)),
				rdf.IRI(fmt.Sprintf("http://comp/p%d", i%7)),
				rdf.IRI(fmt.Sprintf("http://comp/o%d", i%101)),
				graph,
			)
		}
		return quads
	}
	if _, err := s.AddAll(load("http://comp/keep", 500)); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	veto := errors.New("vetoed")
	s.SetCommitHook(func(Batch) error { return veto })
	if _, err := s.AddAll(load("http://comp/bulk", n)); !errors.Is(err, veto) {
		t.Fatalf("vetoed bulk load returned %v", err)
	}
	s.SetCommitHook(nil)
	if got := int(s.ar.slots.Len()); got != n+500 {
		t.Fatalf("arena has %d slots after the vetoed load, want %d", got, n+500)
	}
	extra := rdf.Q("http://comp/extra", "http://comp/p0", "http://comp/o0", "http://comp/keep")
	if _, err := s.Add(extra); err != nil {
		t.Fatal(err)
	}
	if got := int(s.ar.slots.Len()); got != 501 {
		t.Fatalf("arena not compacted: %d slots, want 501", got)
	}
	if got := s.Len(); got != 501 {
		t.Fatalf("store Len = %d, want 501", got)
	}
	// The snapshot pinned before compaction still resolves through the old
	// arena.
	if got := before.GraphLen("http://comp/keep"); got != 500 {
		t.Fatalf("pinned snapshot GraphLen = %d, want 500", got)
	}
	if got := len(before.Match(InGraph("http://comp/keep", rdf.IRI("http://comp/s7"), nil, nil))); got != 1 {
		t.Fatalf("pinned snapshot probe = %d, want 1", got)
	}
	// The compacted store answers correctly and accepts further writes.
	sn := s.Snapshot()
	for _, q := range load("http://comp/keep", 500) {
		if !sn.Contains(q) {
			t.Fatalf("compacted store lost %v", q)
		}
	}
	if got := len(sn.Match(WildcardGraph(rdf.IRI("http://comp/s42"), nil, nil))); got != 1 {
		t.Fatalf("compacted union probe = %d, want 1", got)
	}
	if _, err := s.AddAll(load("http://comp/again", 250)); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 751 {
		t.Fatalf("post-compaction AddAll: Len = %d, want 751", got)
	}
	if got := len(s.Snapshot().Match(InGraph("http://comp/again", nil, nil, nil))); got != 250 {
		t.Fatalf("post-compaction graph probe = %d, want 250", got)
	}
}

// TestMatchReturnsCanonicalLiterals pins the materialization contract of the
// slab layout: Match rebuilds quads from the dictionary's canonical term
// table, so a literal added without a datatype reads back as xsd:string
// (the same canonical form rdf.Literal.Equal and the dictionary use).
func TestMatchReturnsCanonicalLiterals(t *testing.T) {
	s := New()
	raw := rdf.Quad{Triple: rdf.Triple{
		Subject:   rdf.IRI("http://canon/s"),
		Predicate: rdf.IRI("http://canon/p"),
		Object:    rdf.Literal{Lexical: "v"},
	}}
	if _, err := s.Add(raw); err != nil {
		t.Fatal(err)
	}
	got := s.Snapshot().Match(Pattern{})
	if len(got) != 1 {
		t.Fatalf("Match = %d quads, want 1", len(got))
	}
	lit, ok := got[0].Object.(rdf.Literal)
	if !ok {
		t.Fatalf("object came back as %T", got[0].Object)
	}
	if lit.Datatype != rdf.XSDString {
		t.Fatalf("literal datatype = %q, want %q", lit.Datatype, rdf.XSDString)
	}
	if !got[0].Equal(raw) {
		t.Fatal("canonical quad no longer Equal to the raw input")
	}
}
