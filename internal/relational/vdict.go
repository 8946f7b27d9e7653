package relational

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// ValueID is a dense integer identifier for a cell value interned in a
// ValueDict. The compiled walk-execution engine encodes every wrapper
// relation into ValueID column vectors once per query, after which joins,
// filters and deduplication compare fixed-width integers instead of
// rebuilding canonical value strings per probe.
//
// ID 0 (MissingValueID) is reserved for "attribute absent from the tuple"
// and ID 1 (NilValueID) for the interned nil value. The two stay distinct so
// that decoding a columnar relation reproduces exactly the tuples the
// reference executor builds (a tuple with an explicit nil cell is observably
// different from one missing the attribute, e.g. in JSON output), while
// joins and deduplication treat them as equal — mirroring the fact that
// valueKey(nil) and valueKey(missing) render identically.
type ValueID uint32

// MissingValueID marks an attribute absent from a tuple.
const MissingValueID ValueID = 0

// NilValueID is the ValueID of the nil value in every ValueDict.
const NilValueID ValueID = 1

// Value kinds of a vkey.
const (
	vkNil = iota
	vkInt
	vkFloat
	vkBool
	vkString
)

// vkey is a comparable canonical form of a Value with exactly the equality
// semantics of valueKey: two values map to the same vkey if and only if
// their valueKey strings are equal. Unlike valueKey, building a vkey
// allocates nothing for the JSON value types, which is what removes the
// per-probe string rebuilding from the hash-join hot path.
type vkey struct {
	kind uint8
	num  int64
	str  string
}

// keyOf mirrors valueKey's canonicalization: integral numbers collapse to
// one class regardless of Go type (12, int64(12) and 12.0 compare equal
// across sources), non-integral floats are keyed on their bit pattern
// (%g formatting is injective for non-NaN floats), every NaN shares one key
// ("fNaN"), and all remaining types share valueKey's default "%v" rendering
// (so a string compares equal to any exotic type rendering the same text,
// exactly as the string-keyed code did).
func keyOf(v Value) vkey {
	switch x := v.(type) {
	case nil:
		return vkey{kind: vkNil}
	case float64:
		if x == float64(int64(x)) {
			return vkey{kind: vkInt, num: int64(x)}
		}
		if math.IsNaN(x) {
			return vkey{kind: vkFloat, num: int64(math.Float64bits(math.NaN()))}
		}
		return vkey{kind: vkFloat, num: int64(math.Float64bits(x))}
	case int:
		return vkey{kind: vkInt, num: int64(x)}
	case int64:
		return vkey{kind: vkInt, num: x}
	case bool:
		if x {
			return vkey{kind: vkBool, num: 1}
		}
		return vkey{kind: vkBool}
	case string:
		return vkey{kind: vkString, str: x}
	default:
		return vkey{kind: vkString, str: fmt.Sprintf("%v", x)}
	}
}

// ValueDict is an interning table mapping cell values to dense ValueIDs and
// back. Values equal under the cross-source semantics (12, int64(12), 12.0)
// intern to one ID whose representative is the first value interned: members
// of a class share their valueKey and, but for a zero's sign, their JSON, not
// their %v (float64(1e6) prints 1e+06, int(1000000) 1000000). It is safe for
// concurrent use. A dictionary can extend a frozen base, whose IDs it finds
// with no lock and no insert; of a base ID it keeps a touched bit and, if its
// first value renders unlike the base's representative, an entry of its own
// (reps). A frozen dictionary never changes but for its entries' renderings,
// written atomically with the bytes any writer renders.
type ValueDict struct {
	base *ValueDict
	lo   ValueID // own entry i has ID lo+1+i; lower IDs are nil's and the base's

	mu    sync.RWMutex
	ids   map[vkey]ValueID // own values; nil is never in it
	ents  []*entry
	chunk []entry  // where the next own entries go,
	arena []byte   // the keys entries point to,
	held  [][]byte // and the slice headers those point to; none is regrown

	touched []uint64 // bit i: the base's value i was interned
	reused  int      // bits set in touched
	reps    map[ValueID]*entry
}

// entry is a value with its valueKey and JSON, rendered the first time
// ordering or AppendJSON needs them. A frozen dictionary shares its entries
// with the dictionary it was frozen from and with those extending it, so a
// rendering made in any of them serves the union's next execution.
type entry struct {
	v         Value
	key, json atomic.Pointer[[]byte]
}

// NewValueDict returns an empty dictionary. Every dictionary maps nil to
// NilValueID.
func NewValueDict() *ValueDict { return &ValueDict{lo: NilValueID, ids: map[vkey]ValueID{}} }

// extend returns a dictionary extending the frozen b (nil: none).
func (b *ValueDict) extend() *ValueDict {
	if b == nil {
		return NewValueDict()
	}
	return &ValueDict{base: b, lo: NilValueID + ValueID(len(b.ents)), ids: map[vkey]ValueID{},
		touched: make([]uint64, (len(b.ents)+63)/64), reps: map[ValueID]*entry{}}
}

func (d *ValueDict) internLocked(v Value) ValueID {
	if v == nil {
		return NilValueID
	}
	k := keyOf(v)
	if b := d.base; b != nil {
		if id, ok := b.ids[k]; ok {
			if i := id - NilValueID - 1; d.touched[i/64]&(1<<(i%64)) == 0 {
				d.touched[i/64] |= 1 << (i % 64)
				d.reused++
				if !sameRep(v, b.ents[i].v) {
					d.reps[id] = &entry{v: v}
				}
			}
			return id
		}
	}
	if id, ok := d.ids[k]; ok {
		return id
	}
	if len(d.chunk) == cap(d.chunk) {
		d.chunk = make([]entry, 0, 16+len(d.ents))
	}
	d.chunk = d.chunk[:len(d.chunk)+1]
	e := &d.chunk[len(d.chunk)-1]
	e.v = v
	d.ents = append(d.ents, e)
	id := d.lo + ValueID(len(d.ents))
	d.ids[k] = id
	return id
}

// sameRep reports whether v renders exactly as r, a value of its class: both
// are of one Go type of the JSON kinds, and a float64 has r's bits.
func sameRep(v, r Value) bool {
	switch x := v.(type) {
	case float64:
		y, ok := r.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case string, int, int64, bool:
		return v == r
	}
	return false
}

// at returns the entry of id (not nil): d's own, its override of a base
// value, or the base's. Call it holding d.mu.
func (d *ValueDict) at(id ValueID) *entry {
	if id > d.lo {
		return d.ents[id-d.lo-1]
	}
	if e, over := d.reps[id]; over {
		return e
	}
	return d.base.ents[id-NilValueID-1]
}

// value returns id's representative. Call it holding d.mu.
func (d *ValueDict) value(id ValueID) Value {
	if id == NilValueID {
		return nil
	}
	return d.at(id).v
}

// decode builds n tuples over s, cell(r, c) giving row r's ID in column c;
// a missing cell is omitted from its tuple, not set to nil.
func (d *ValueDict) decode(name string, s Schema, n int, cell func(r, c int) ValueID) *Relation {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rel := NewRelation(name, s)
	names := s.Names()
	rel.Tuples = make([]Tuple, n)
	for r := range rel.Tuples {
		t := make(Tuple, len(names))
		for c, name := range names {
			if id := cell(r, c); id != MissingValueID {
				t[name] = d.value(id)
			}
		}
		rel.Tuples[r] = t
	}
	return rel
}

// hold returns a pointer to b for an entry, from a chunk never regrown.
func (d *ValueDict) hold(b []byte) *[]byte {
	if len(d.held) == cap(d.held) {
		d.held = make([][]byte, 0, 16+len(d.ents))
	}
	d.held = append(d.held, b)
	return &d.held[len(d.held)-1]
}

var nilKey, nullJSON = []byte("∅"), []byte("null")

// key returns valueKey of id's class (a missing cell's is nil's), rendering
// it the first time. Call it holding d.mu.
func (d *ValueDict) key(id ValueID) []byte {
	if id = joinID(id); id == NilValueID {
		return nilKey
	}
	e := d.at(id)
	if k := e.key.Load(); k != nil {
		return *k
	}
	if cap(d.arena)-len(d.arena) < 64 {
		d.arena = make([]byte, 0, 16*(16+len(d.ents)))
	}
	start := len(d.arena)
	d.arena = appendValueKey(d.arena, e.v)
	k := d.hold(d.arena[start:len(d.arena):len(d.arena)])
	e.key.Store(k)
	return *k
}

// encode returns the JSON encoding of id's representative, marshaling it the
// first time; a value encoding/json cannot encode fails every call. Call it
// holding d.mu.
func (d *ValueDict) encode(id ValueID) ([]byte, error) {
	if id == NilValueID {
		return nullJSON, nil
	}
	e := d.at(id)
	if b := e.json.Load(); b != nil {
		return *b, nil
	}
	b, err := json.Marshal(e.v)
	if err == nil {
		e.json.Store(d.hold(b))
	}
	return b, err
}

// freeze returns what a union keeps after a successful execution with d. It
// shares d's entries and its base's, so what the execution renders after the
// freeze serves the next one. It is d's base if d interned nothing new; nil
// if none of the base recurred; else the base's values, IDs
// unchanged, then d's, while that is at most twice the values d touched plus
// 64, else the touched base values and d's, renumbered.
func (d *ValueDict) freeze() *ValueDict {
	b := d.base
	switch {
	case len(d.ents) == 0:
		return b
	case b == nil:
		return &ValueDict{lo: NilValueID, ids: d.ids, ents: slices.Clip(d.ents)}
	case d.reused == 0:
		return nil
	case len(b.ents)+len(d.ents) <= 2*(d.reused+len(d.ents))+64:
		f := &ValueDict{lo: NilValueID, ids: maps.Clone(b.ids), ents: append(slices.Clip(b.ents), d.ents...)}
		maps.Copy(f.ids, d.ids)
		return f
	}
	f := &ValueDict{lo: NilValueID, ids: make(map[vkey]ValueID, d.reused+len(d.ents)),
		ents: make([]*entry, 0, d.reused+len(d.ents))}
	for i, e := range slices.Concat(b.ents, d.ents) {
		if i >= len(b.ents) || d.touched[i/64]&(1<<(i%64)) != 0 {
			f.ents = append(f.ents, e)
			f.ids[keyOf(e.v)] = NilValueID + ValueID(len(f.ents))
		}
	}
	return f
}

// joinID normalizes an id for join and deduplication comparisons: a missing
// cell compares equal to an explicit nil, exactly as valueKey renders both
// as "∅".
func joinID(id ValueID) ValueID {
	if id == MissingValueID {
		return NilValueID
	}
	return id
}

// order returns rows in canonical order: ascending by the key Tuple.Key
// gives their decoded tuples over the columns of the union schema, rows whose
// keys coincide (they differ only in where a U+001F falls) column by column,
// exactly as Relation.Sorted orders tuples. The rows are in union layout; a
// missing cell renders as nil, as in Tuple.Key.
//
// Every value is rendered at most once per entry, which the union's next
// execution shares, and every row key is concatenated once, into one flat arena, so the
// comparator compares bytes and builds nothing.
func (d *ValueDict) order(rows [][]ValueID) [][]ValueID {
	if len(rows) < 2 {
		return rows
	}
	width := len(rows[0])
	d.mu.Lock()
	defer d.mu.Unlock()
	arena := make([]byte, 0, 8*width*len(rows))
	bounds := make([]int, len(rows)+1) // row r's key is arena[bounds[r]:bounds[r+1]]
	for r, row := range rows {
		for c, id := range row {
			if c > 0 {
				arena = append(arena, '\x1f')
			}
			arena = append(arena, d.key(id)...)
		}
		bounds[r+1] = len(arena)
	}
	key := func(r int32) []byte { return arena[bounds[r]:bounds[r+1]] }
	perm := make([]int32, len(rows))
	for r := range perm {
		perm[r] = int32(r)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := bytes.Compare(key(a), key(b)); c != 0 {
			return c
		}
		for c := 0; c < width; c++ {
			if c := bytes.Compare(d.key(rows[a][c]), d.key(rows[b][c])); c != 0 {
				return c
			}
		}
		return 0
	})
	out := make([][]ValueID, len(rows))
	for i, r := range perm {
		out[i] = rows[r]
	}
	return out
}
