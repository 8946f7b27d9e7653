package relational

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
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

// NilValueID is the ValueID of the nil value; a fresh ValueDict always
// assigns it first.
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

// ValueDict is an append-only interning table mapping cell values to dense
// ValueIDs and back, the relational analogue of rdf.Dict: every distinct
// value (under valueKey equality) is translated to an integer exactly once
// per query execution. Values that compare equal under the cross-source
// semantics (12, int64(12), 12.0) intern to one ID whose representative is
// the first value seen; all observable renderings (fmt %v, JSON) of members
// of one equality class coincide, so decoding the representative is
// indistinguishable from decoding the original. It is safe for concurrent
// use.
type ValueDict struct {
	mu   sync.RWMutex
	ids  map[vkey]ValueID
	vals []Value // vals[id-1] is the first value interned under the key
	// keys[id-1] caches valueKey(vals[id-1]) in keyBuf and encoded[id-1] its
	// JSON, each rendered the first time ordering or AppendJSON needs it. The
	// caches die with the dictionary, i.e. with the union execution.
	keys    [][]byte
	keyBuf  []byte
	encoded [][]byte
}

// NewValueDict returns a dictionary with nil pre-interned as NilValueID.
func NewValueDict() *ValueDict {
	d := &ValueDict{ids: make(map[vkey]ValueID, 64)}
	d.vals = append(d.vals, nil)
	d.ids[vkey{kind: vkNil}] = NilValueID
	return d
}

// Intern returns the ValueID for v, assigning a fresh one on first sight.
func (d *ValueDict) Intern(v Value) ValueID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.internLocked(v)
}

func (d *ValueDict) internLocked(v Value) ValueID {
	k := keyOf(v)
	if id, ok := d.ids[k]; ok {
		return id
	}
	d.vals = append(d.vals, v)
	id := ValueID(len(d.vals))
	d.ids[k] = id
	return id
}

// Values returns the dictionary's value table: vals[id-1] is the
// representative of id. The dictionary is append-only, so the returned
// slice is a stable snapshot for every id assigned before the call; callers
// must not mutate it. The decode path uses it to resolve a whole result
// without per-cell locking.
func (d *ValueDict) Values() []Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.vals
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
// Every value is rendered at most once per dictionary, into one buffer, and
// every row key is concatenated once, into one flat arena, so the comparator
// compares bytes and builds nothing.
func (d *ValueDict) order(rows [][]ValueID) [][]ValueID {
	if len(rows) < 2 {
		return rows
	}
	width := len(rows[0])
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.keys) < len(d.vals) {
		d.keys = append(d.keys, make([][]byte, len(d.vals)-len(d.keys))...)
	}
	arena := make([]byte, 0, 8*width*len(rows))
	bounds := make([]int, len(rows)+1) // row r's key is arena[bounds[r]:bounds[r+1]]
	for r, row := range rows {
		for c, id := range row {
			if c > 0 {
				arena = append(arena, '\x1f')
			}
			k := joinID(id) - 1
			if d.keys[k] == nil {
				start := len(d.keyBuf)
				d.keyBuf = appendValueKey(d.keyBuf, d.vals[k])
				d.keys[k] = d.keyBuf[start:len(d.keyBuf):len(d.keyBuf)]
			}
			arena = append(arena, d.keys[k]...)
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
			if c := bytes.Compare(d.keys[joinID(rows[a][c])-1], d.keys[joinID(rows[b][c])-1]); c != 0 {
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
