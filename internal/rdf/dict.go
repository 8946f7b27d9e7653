package rdf

import (
	"fmt"
	"sync"

	"bdi/internal/slab"
)

// TermID is a dense integer identifier for a term interned in a Dict. The
// zero value is never assigned to a term and acts as a "not interned"
// sentinel, which lets callers use TermID-keyed structures without a
// separate presence flag.
type TermID uint32

// Dict is an append-only interning table mapping terms to dense TermIDs and
// back. It plays the role of a triplestore node table (Jena TDB's NodeTable):
// every term is translated to an integer exactly once, after which equality
// checks, index keys and dedup sets operate on fixed-width integers instead
// of rebuilding string keys.
//
// Interning is keyed on term identity as defined by Term.Equal: literals
// with an empty datatype are canonicalized to xsd:string before lookup, so
// two literals that Equal each other always intern to the same TermID.
// IDs are assigned in first-intern order and are never reused or freed; a
// Dict only grows. It is safe for concurrent use.
//
// Per-term sort keys (TermKey bytes, computed once at intern time) are not
// stored as individual strings: the key bytes of all terms are packed into a
// byte slab and addressed by pointer-free offsets (see bdi/internal/slab),
// so a dictionary with hundreds of thousands of terms contributes a handful
// of large noscan arrays to the GC-visible heap instead of one string
// allocation per term. Hot loops resolve keys lock-free through a KeyView.
type Dict struct {
	mu     sync.RWMutex
	iris   map[IRI]TermID
	blanks map[BlankNode]TermID
	vars   map[Variable]TermID
	lits   map[Literal]TermID
	terms  []Term // terms[id-1] is the term assigned id

	// keyRefs[id-1] addresses TermKey(terms[id-1]) inside keyBytes. Both
	// sides are append-only: once an id is published its key bytes never
	// move, so a snapshot of keyRefs plus a view of keyBytes resolves keys
	// without locking.
	keyRefs  []slab.Ref
	keyBytes *slab.Bytes
	scratch  []byte // assign-time key build buffer; guarded by mu
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{
		iris:     map[IRI]TermID{},
		blanks:   map[BlankNode]TermID{},
		vars:     map[Variable]TermID{},
		lits:     map[Literal]TermID{},
		keyBytes: slab.NewBytes(),
	}
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// canonLiteral maps a literal to its canonical interning key: an empty
// datatype means xsd:string (mirroring Literal.Equal).
func canonLiteral(l Literal) Literal {
	if l.Datatype == "" {
		l.Datatype = XSDString
	}
	return l
}

// Intern returns the TermID for t, assigning a fresh one on first sight.
// Interning nil returns 0.
func (d *Dict) Intern(t Term) TermID {
	if t == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch t.Kind() {
	case KindIRI:
		k := IRI(t.Value())
		if id, ok := d.iris[k]; ok {
			return id
		}
		id := d.assign(k)
		d.iris[k] = id
		return id
	case KindBlank:
		k := BlankNode(t.Value())
		if id, ok := d.blanks[k]; ok {
			return id
		}
		id := d.assign(k)
		d.blanks[k] = id
		return id
	case KindVariable:
		k := Variable(t.Value())
		if id, ok := d.vars[k]; ok {
			return id
		}
		id := d.assign(k)
		d.vars[k] = id
		return id
	default:
		k := canonLiteral(t.(Literal))
		if id, ok := d.lits[k]; ok {
			return id
		}
		id := d.assign(k)
		d.lits[k] = id
		return id
	}
}

func (d *Dict) assign(t Term) TermID {
	d.terms = append(d.terms, t)
	d.scratch = appendTermKey(d.scratch[:0], t)
	d.keyRefs = append(d.keyRefs, d.keyBytes.Append(d.scratch))
	return TermID(len(d.terms))
}

// Terms returns the dictionary's term table: terms[id-1] is the canonical
// term assigned id. The dictionary is append-only, so the returned slice is
// a stable snapshot for every id assigned before the call; callers must not
// mutate it. The durability layer uses it to dump the dictionary in ID order
// into a checkpoint.
func (d *Dict) Terms() []Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms
}

// NewDictFromTerms rebuilds a dictionary from a term table previously
// obtained via Terms (e.g. decoded from a checkpoint): terms[i] is assigned
// TermID i+1, exactly reversing the original first-intern order, and every
// per-term sort key is regenerated from the term value. It errors when the
// table contains a nil entry or a duplicate (two positions interning to the
// same TermID), which indicates a corrupt table.
func NewDictFromTerms(terms []Term) (*Dict, error) {
	d := NewDict()
	for i, t := range terms {
		if t == nil {
			return nil, fmt.Errorf("rdf: dict table has nil term at position %d", i)
		}
		if id := d.Intern(t); id != TermID(i+1) {
			return nil, fmt.Errorf("rdf: dict table position %d duplicates term %v (already id %d)", i, t, id)
		}
	}
	return d, nil
}

// Lookup returns the TermID previously assigned to t, or (0, false) when t
// has never been interned. Unlike TermKey-based maps it allocates nothing:
// the typed maps are keyed directly on the concrete term values.
func (d *Dict) Lookup(t Term) (TermID, bool) {
	if t == nil {
		return 0, false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	switch t.Kind() {
	case KindIRI:
		id, ok := d.iris[IRI(t.Value())]
		return id, ok
	case KindBlank:
		id, ok := d.blanks[BlankNode(t.Value())]
		return id, ok
	case KindVariable:
		id, ok := d.vars[Variable(t.Value())]
		return id, ok
	default:
		l, ok := t.(Literal)
		if !ok {
			return 0, false
		}
		id, ok := d.lits[canonLiteral(l)]
		return id, ok
	}
}

// Term returns the canonical term assigned the given id, or (nil, false) for
// 0 or an id that was never assigned.
func (d *Dict) Term(id TermID) (Term, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == 0 || int(id) > len(d.terms) {
		return nil, false
	}
	return d.terms[id-1], true
}

// LookupIRI is Lookup specialized to IRIs. Taking the concrete type avoids
// boxing the IRI into a Term interface value, which keeps hot accessor paths
// allocation-free.
func (d *Dict) LookupIRI(iri IRI) (TermID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.iris[iri]
	return id, ok
}

// KeysView captures a lock-free snapshot of the key table. The dictionary is
// append-only, so the view resolves every id assigned before the call
// forever; ids interned later are simply absent from it. Hot loops use it to
// resolve key bytes without per-id locking or per-key allocation.
func (d *Dict) KeysView() KeyView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return KeyView{refs: d.keyRefs, blob: d.keyBytes.View()}
}

// KeyView is an immutable snapshot of a dictionary's key table. The zero
// value resolves no ids.
type KeyView struct {
	refs []slab.Ref
	blob slab.BytesView
}

// Key returns the TermKey bytes of the term assigned the given id, or
// (nil, false) for 0 or an id assigned after the view was taken. The bytes
// are shared with the dictionary and must not be mutated.
func (v KeyView) Key(id TermID) ([]byte, bool) {
	if id == 0 || int(id) > len(v.refs) {
		return nil, false
	}
	return v.blob.Bytes(v.refs[id-1]), true
}

// Append appends the TermKey bytes of the given id to dst, reporting whether
// the view resolved it.
func (v KeyView) Append(dst []byte, id TermID) ([]byte, bool) {
	b, ok := v.Key(id)
	return append(dst, b...), ok
}

// AppendKey appends the TermKey bytes of the term assigned the given id to
// dst, reporting whether the id was ever assigned (for 0 or an unknown id,
// dst is returned unchanged). Sort-key construction on the store's write
// path uses it to concatenate per-term keys without allocating one string
// per term.
func (d *Dict) AppendKey(dst []byte, id TermID) ([]byte, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == 0 || int(id) > len(d.keyRefs) {
		return dst, false
	}
	return append(dst, d.keyBytes.Bytes(d.keyRefs[id-1])...), true
}
