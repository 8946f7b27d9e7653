package store

import (
	"errors"
	"fmt"
	"testing"

	"bdi/internal/rdf"
)

// TestVetoedBatchLeavesNoDeadSlots vetoes a bulk load and asserts that the
// arena is truncated back to the live size, that the next accepted batch
// reuses the vetoed offsets, that a snapshot pinned before the veto keeps
// resolving, and that probes equal a fresh store's.
func TestVetoedBatchLeavesNoDeadSlots(t *testing.T) {
	s := New()
	const n = 3 * 4096
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
	if got := int(s.ar.slots.Len()); got != s.Len() || got != 500 {
		t.Fatalf("arena has %d slots after the vetoed load, want Len() = %d = 500", got, s.Len())
	}
	keyBytes := s.ar.keys.Size()
	extra := rdf.Q("http://comp/extra", "http://comp/p0", "http://comp/o0", "http://comp/keep")
	if _, err := s.Add(extra); err != nil {
		t.Fatal(err)
	}
	if got := s.ar.slots.Len(); got != 501 || s.ar.slot(500).id != mustID(t, s, extra) {
		t.Fatalf("the next batch did not reuse the vetoed offsets: %d slots", got)
	}
	if got := s.ar.keys.Size(); got != keyBytes+int64(len(s.ar.key(500))) {
		t.Fatalf("key bytes grew to %d, want %d plus the extra quad's key", got, keyBytes)
	}
	// The snapshot pinned before the veto still resolves.
	if got := before.GraphLen("http://comp/keep"); got != 500 {
		t.Fatalf("pinned snapshot GraphLen = %d, want 500", got)
	}
	if got := len(before.Match(InGraph("http://comp/keep", rdf.IRI("http://comp/s7"), nil, nil))); got != 1 {
		t.Fatalf("pinned snapshot probe = %d, want 1", got)
	}
	if _, err := s.AddAll(load("http://comp/again", 250)); err != nil {
		t.Fatal(err)
	}
	// Probes equal a fresh store's holding the same quads.
	fresh := New()
	if _, err := fresh.AddAll(append(append(load("http://comp/keep", 500), extra), load("http://comp/again", 250)...)); err != nil {
		t.Fatal(err)
	}
	got, want := s.Snapshot(), fresh.Snapshot()
	if got.Len() != 751 || int(s.ar.slots.Len()) != got.Len() {
		t.Fatalf("Len = %d with %d arena slots, want 751 each", got.Len(), s.ar.slots.Len())
	}
	for _, p := range []Pattern{
		{},
		WildcardGraph(rdf.IRI("http://comp/s42"), nil, nil),
		WildcardGraph(nil, nil, rdf.IRI("http://comp/o0")),
		InGraph("http://comp/again", nil, nil, nil),
		InGraph("http://comp/keep", nil, rdf.IRI("http://comp/p0"), nil),
	} {
		if g, w := got.Match(p), want.Match(p); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("probe %+v: %d quads, a fresh store's %d", p, len(g), len(w))
		}
	}
	for _, q := range load("http://comp/bulk", 3) {
		if got.Contains(q) {
			t.Fatalf("vetoed quad %v is visible", q)
		}
	}
}

func mustID(t *testing.T, s *Store, q rdf.Quad) QuadID {
	t.Helper()
	id, ok := quadID(s.Snapshot().Dict(), q)
	if !ok {
		t.Fatalf("%v not interned", q)
	}
	return id
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
