package rdf

import (
	"fmt"
	"sync"
	"testing"
)

func TestDictInternAssignsDenseStableIDs(t *testing.T) {
	d := NewDict()
	terms := []Term{
		IRI("http://ex/a"),
		NewBlankNode("b1"),
		NewLiteral("hello"),
		NewLangLiteral("bonjour", "fr"),
		NewIntegerLiteral(42),
		NewVariable("x"),
	}
	ids := make([]TermID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Intern(tm)
		if ids[i] != TermID(i+1) {
			t.Fatalf("Intern(%v) = %d, want dense id %d", tm, ids[i], i+1)
		}
	}
	for i, tm := range terms {
		if got := d.Intern(tm); got != ids[i] {
			t.Errorf("re-Intern(%v) = %d, want %d", tm, got, ids[i])
		}
		got, ok := d.Lookup(tm)
		if !ok || got != ids[i] {
			t.Errorf("Lookup(%v) = %d,%v", tm, got, ok)
		}
		back, ok := d.Term(ids[i])
		if !ok || !back.Equal(tm) {
			t.Errorf("Term(%d) = %v,%v, want %v", ids[i], back, ok, tm)
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(terms))
	}
}

func TestDictDistinguishesKinds(t *testing.T) {
	d := NewDict()
	iri := d.Intern(IRI("x"))
	blank := d.Intern(NewBlankNode("x"))
	variable := d.Intern(NewVariable("x"))
	lit := d.Intern(NewLiteral("x"))
	seen := map[TermID]bool{iri: true, blank: true, variable: true, lit: true}
	if len(seen) != 4 {
		t.Errorf("same value under different kinds must get distinct ids: %d %d %d %d", iri, blank, variable, lit)
	}
}

func TestDictCanonicalizesLiterals(t *testing.T) {
	d := NewDict()
	plain := d.Intern(Literal{Lexical: "v"})
	typed := d.Intern(Literal{Lexical: "v", Datatype: XSDString})
	if plain != typed {
		t.Errorf("empty datatype and xsd:string must intern identically: %d vs %d", plain, typed)
	}
	other := d.Intern(Literal{Lexical: "v", Datatype: XSDInteger})
	if other == plain {
		t.Error("different datatype must get a different id")
	}
}

func TestDictLookupMisses(t *testing.T) {
	d := NewDict()
	if id, ok := d.Lookup(IRI("http://absent")); ok || id != 0 {
		t.Errorf("Lookup(absent) = %d,%v", id, ok)
	}
	if id := d.Intern(nil); id != 0 {
		t.Errorf("Intern(nil) = %d", id)
	}
	if _, ok := d.Lookup(nil); ok {
		t.Error("Lookup(nil) should miss")
	}
	if _, ok := d.Term(0); ok {
		t.Error("Term(0) should miss")
	}
	if _, ok := d.Term(99); ok {
		t.Error("Term(out of range) should miss")
	}
}

func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := d.Intern(IRI(fmt.Sprintf("http://ex/t%d", i%50)))
				if tm, ok := d.Term(id); !ok || tm == nil {
					t.Errorf("Term(%d) missing after Intern", id)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d.Len() != 50 {
		t.Errorf("Len = %d, want 50 distinct terms", d.Len())
	}
}

func TestDictKeysAndLookupIRI(t *testing.T) {
	d := NewDict()
	terms := []Term{
		IRI("http://ex/a"),
		NewLiteral("hello"),
		BlankNode("b1"),
		Variable("v"),
	}
	for _, term := range terms {
		d.Intern(term)
	}
	if _, ok := d.AppendKey(nil, 0); ok {
		t.Error("AppendKey(0) should report false")
	}
	view := d.KeysView()
	if _, ok := view.Key(TermID(len(terms) + 1)); ok {
		t.Error("view.Key of unassigned id should report false")
	}
	for i, term := range terms {
		id := TermID(i + 1)
		if k, ok := view.Key(id); !ok || string(k) != TermKey(term) {
			t.Errorf("view.Key(%d) = %q, %v; want %q", id, k, ok, TermKey(term))
		}
		if got, ok := view.Append([]byte("x"), id); !ok || string(got) != "x"+TermKey(term) {
			t.Errorf("view.Append(%d) = %q, %v", id, got, ok)
		}
		if got, ok := d.AppendKey(nil, id); !ok || string(got) != TermKey(term) {
			t.Errorf("AppendKey(%d) = %q, %v", id, got, ok)
		}
	}
	if _, ok := view.Key(0); ok {
		t.Error("view.Key(0) should report false")
	}
	// The view stays valid for already-assigned ids after growth, and does
	// not resolve ids assigned after it was taken.
	later := d.Intern(IRI("http://ex/later"))
	if k, ok := view.Key(1); !ok || string(k) != TermKey(terms[0]) {
		t.Error("view invalidated by later interning")
	}
	if _, ok := view.Key(later); ok {
		t.Error("view resolved an id assigned after it was taken")
	}
	if _, ok := d.AppendKey(nil, later+1); ok {
		t.Error("AppendKey of unassigned id should report false")
	}
	id, ok := d.LookupIRI("http://ex/a")
	if !ok {
		t.Fatal("LookupIRI missed an interned IRI")
	}
	if id2, _ := d.Lookup(IRI("http://ex/a")); id2 != id {
		t.Errorf("LookupIRI = %d, Lookup = %d", id, id2)
	}
	if _, ok := d.LookupIRI("http://ex/absent"); ok {
		t.Error("LookupIRI found an absent IRI")
	}
}

// TestDictTruncateReassignsDroppedIDs: Truncate forgets the terms past n in
// every kind's map, the next terms interned take their IDs and key bytes
// again, and a term table returned before the truncation keeps its contents.
func TestDictTruncateReassignsDroppedIDs(t *testing.T) {
	d := NewDict()
	kept := d.Intern(IRI("http://x/kept"))
	dropped := []Term{IRI("http://x/a"), BlankNode("b"), Variable("v"), NewLiteral("l")}
	for _, term := range dropped {
		d.Intern(term)
	}
	table := d.Terms()
	d.Truncate(1)
	if d.Len() != 1 {
		t.Fatalf("Len = %d after Truncate(1)", d.Len())
	}
	for _, term := range dropped {
		if _, ok := d.Lookup(term); ok {
			t.Errorf("%v still interned", term)
		}
	}
	if id, ok := d.Lookup(IRI("http://x/kept")); !ok || id != kept {
		t.Fatalf("kept term = %d, %v", id, ok)
	}
	fresh := NewIntegerLiteral(7)
	if id := d.Intern(fresh); id != 2 {
		t.Fatalf("next term got id %d, want 2", id)
	}
	if key, _ := d.KeysView().Key(2); string(key) != TermKey(fresh) {
		t.Errorf("key of id 2 = %q, want %q", key, TermKey(fresh))
	}
	if table[1] != dropped[0] {
		t.Errorf("an earlier term table changed: %v", table[1])
	}
	if id := d.Intern(dropped[0]); id != 3 {
		t.Errorf("dropped term re-interned at %d, want 3", id)
	}
	d.Truncate(10)
	if d.Len() != 3 {
		t.Errorf("Truncate past the end changed Len to %d", d.Len())
	}
}
