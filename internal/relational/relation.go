package relational

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bdi/internal/lifecycle"
)

// Value is a single cell value. Wrappers deliver JSON-shaped data, so values
// are strings, numbers, booleans or nil.
type Value any

// Tuple is a mapping from attribute name to value.
type Tuple map[string]Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	for k, v := range t {
		c[k] = v
	}
	return c
}

// Project returns a new tuple containing only the named attributes.
func (t Tuple) Project(names []string) Tuple {
	out := Tuple{}
	for _, n := range names {
		if v, ok := t[n]; ok {
			out[n] = v
		}
	}
	return out
}

// Merge returns a new tuple combining t and other; attributes of t win on
// conflict.
func (t Tuple) Merge(other Tuple) Tuple {
	out := other.Clone()
	for k, v := range t {
		out[k] = v
	}
	return out
}

// valueKey renders a value canonically for comparisons and deduplication.
func valueKey(v Value) string { return string(appendValueKey(nil, v)) }

// appendValueKey appends valueKey's rendering of v to dst. JSON numbers
// arrive as float64, so integral ones render as ints: 12 and 12.0 compare
// equal across sources. Only a kind outside JSON's goes through fmt.
func appendValueKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "∅"...)
	case float64:
		if x == float64(int64(x)) {
			return strconv.AppendInt(append(dst, 'i'), int64(x), 10)
		}
		return strconv.AppendFloat(append(dst, 'f'), x, 'g', -1, 64)
	case int:
		return strconv.AppendInt(append(dst, 'i'), int64(x), 10)
	case int64:
		return strconv.AppendInt(append(dst, 'i'), x, 10)
	case bool:
		return strconv.AppendBool(append(dst, 'b'), x)
	case string:
		return append(append(dst, 's'), x...)
	default:
		return fmt.Appendf(append(dst, 's'), "%v", x)
	}
}

// ValuesEqual reports whether two cell values are equal under the
// cross-source comparison semantics used for equi-joins on IDs.
func ValuesEqual(a, b Value) bool { return valueKey(a) == valueKey(b) }

// Key returns a canonical key of the tuple over the given attributes.
func (t Tuple) Key(names []string) string {
	return strings.Join(t.cellKeys(names), "\x1f")
}

// cellKeys renders the tuple's cells over the given attributes canonically.
func (t Tuple) cellKeys(names []string) []string {
	cells := make([]string, len(names))
	for i, n := range names {
		cells[i] = valueKey(t[n])
	}
	return cells
}

// Relation is a named bag of tuples with a schema. It is the in-memory
// representation of a wrapper's output and of intermediate walk results.
type Relation struct {
	Name   string
	Schema Schema
	Tuples []Tuple
}

// NewRelation returns an empty relation.
func NewRelation(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Add appends tuples to the relation.
func (r *Relation) Add(tuples ...Tuple) {
	r.Tuples = append(r.Tuples, tuples...)
}

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.Name, r.Schema)
	for _, t := range r.Tuples {
		c.Add(t.Clone())
	}
	return c
}

// Project applies the restricted projection Π̃: it keeps the named
// attributes plus every ID attribute of the schema (IDs may never be
// projected out, as they are needed by the restricted join).
func (r *Relation) Project(names []string) *Relation {
	keep := map[string]bool{}
	for _, n := range names {
		keep[n] = true
	}
	for _, id := range r.Schema.IDNames() {
		keep[id] = true
	}
	var ordered []string
	for _, a := range r.Schema.Attributes {
		if keep[a.Name] {
			ordered = append(ordered, a.Name)
		}
	}
	out := NewRelation(r.Name, r.Schema.Project(ordered))
	for _, t := range r.Tuples {
		out.Add(t.Project(ordered))
	}
	return out
}

// StrictProject projects exactly the named attributes (used only at the very
// end of query answering, when requested-only attributes are returned to the
// analyst).
func (r *Relation) StrictProject(names []string) *Relation {
	out := NewRelation(r.Name, r.Schema.Project(names))
	for _, t := range r.Tuples {
		out.Add(t.Project(names))
	}
	return out
}

// Distinct returns a copy of the relation with duplicate tuples removed. Two
// tuples are duplicates when they agree column by column; the dedup key
// therefore length-prefixes every cell instead of reusing Tuple.Key, whose
// U+001F separator may also occur inside a value.
func (r *Relation) Distinct() *Relation {
	out := NewRelation(r.Name, r.Schema)
	names := r.Schema.Names()
	seen := map[string]bool{}
	var key []byte
	for _, t := range r.Tuples {
		key = key[:0]
		for _, n := range names {
			cell := valueKey(t[n])
			key = strconv.AppendInt(key, int64(len(cell)), 10)
			key = append(key, ':')
			key = append(key, cell...)
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out.Add(t.Clone())
	}
	return out
}

// EquiJoin implements the restricted join .̃/: it joins r with other on
// leftAttr = rightAttr and fails unless both attributes are ID attributes of
// their respective schemas. Produced join tuples are charged against the
// context's lifecycle.Tracker and the output loop checks cancellation every
// lifecycle.CheckEvery tuples, bounding join fan-out by the query's budget.
func (r *Relation) EquiJoin(ctx context.Context, other *Relation, leftAttr, rightAttr string) (*Relation, error) {
	if !r.Schema.IsID(leftAttr) {
		return nil, fmt.Errorf("relational: %q is not an ID attribute of %s%s", leftAttr, r.Name, r.Schema)
	}
	if !other.Schema.IsID(rightAttr) {
		return nil, fmt.Errorf("relational: %q is not an ID attribute of %s%s", rightAttr, other.Name, other.Schema)
	}
	out := NewRelation(fmt.Sprintf("(%s⋈%s)", r.Name, other.Name), r.Schema.Merge(other.Schema))
	// Hash join on the right relation. The index is keyed on the comparable
	// vkey form of the join value, not its rendered valueKey string: keyOf
	// allocates nothing for the JSON value types, so neither building the
	// index nor probing it rebuilds a canonical string per tuple.
	index := map[vkey][]Tuple{}
	for _, t := range other.Tuples {
		k := keyOf(t[rightAttr])
		index[k] = append(index[k], t)
	}
	track := lifecycle.TrackerFrom(ctx)
	tupleCost := int64(lifecycle.TupleCost + lifecycle.CellCost*len(out.Schema.Attributes))
	produced := 0
	for _, lt := range r.Tuples {
		for _, rt := range index[keyOf(lt[leftAttr])] {
			out.Add(lt.Merge(rt))
			if produced++; produced >= lifecycle.CheckEvery {
				if err := track.AddRows(int64(produced)); err != nil {
					return nil, err
				}
				if err := track.AddBytes(int64(produced) * tupleCost); err != nil {
					return nil, err
				}
				produced = 0
				if err := lifecycle.Check(ctx, track); err != nil {
					return nil, err
				}
			}
		}
	}
	if produced > 0 {
		if err := track.AddRows(int64(produced)); err != nil {
			return nil, err
		}
		if err := track.AddBytes(int64(produced) * tupleCost); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Union appends the tuples of other to a copy of r. Schemas are merged;
// missing attributes are left unset (NULL) in the respective tuples.
func (r *Relation) Union(other *Relation) *Relation {
	out := NewRelation(r.Name, r.Schema.Merge(other.Schema))
	for _, t := range r.Tuples {
		out.Add(t.Clone())
	}
	for _, t := range other.Tuples {
		out.Add(t.Clone())
	}
	return out
}

// Sorted returns the tuples sorted by their canonical key, for deterministic
// output of relations built tuple by tuple (wrapper outputs, the reference
// executor's results); the compiled engine's results are in this order
// already. Tuples whose keys coincide although their cells differ (a value
// holding the key's U+001F separator) are ordered cell by cell, so the order
// does not depend on the order of r.Tuples. Every tuple's key is built once,
// before the sort.
func (r *Relation) Sorted() []Tuple {
	names := r.Schema.Names()
	type keyed struct {
		key   string
		cells []string
		tuple Tuple
	}
	byKey := make([]keyed, len(r.Tuples))
	for i, t := range r.Tuples {
		cells := t.cellKeys(names)
		byKey[i] = keyed{strings.Join(cells, "\x1f"), cells, t}
	}
	slices.SortFunc(byKey, func(a, b keyed) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return slices.Compare(a.cells, b.cells)
	})
	out := make([]Tuple, len(byKey))
	for i, k := range byKey {
		out[i] = k.tuple
	}
	return out
}

// String renders the relation as a small fixed-width table.
func (r *Relation) String() string {
	var b strings.Builder
	names := r.Schema.Names()
	fmt.Fprintf(&b, "%s%s [%d tuples]\n", r.Name, r.Schema, len(r.Tuples))
	b.WriteString(strings.Join(names, "\t"))
	b.WriteByte('\n')
	for _, t := range r.Sorted() {
		cells := make([]string, len(names))
		for i, n := range names {
			cells[i] = fmt.Sprintf("%v", t[n])
		}
		b.WriteString(strings.Join(cells, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// Rename returns a copy of the relation with attributes renamed according to
// the given mapping (old name -> new name). Attributes not mentioned keep
// their names. It is used when aligning wrapper attribute names with the
// ontology features they provide, so that unions across schema versions
// produce a single column per feature.
func (r *Relation) Rename(mapping map[string]string) *Relation {
	newName := func(n string) string {
		if nn, ok := mapping[n]; ok {
			return nn
		}
		return n
	}
	schema := Schema{}
	for _, a := range r.Schema.Attributes {
		schema.Attributes = append(schema.Attributes, Attribute{Name: newName(a.Name), ID: a.ID, Type: a.Type})
	}
	out := NewRelation(r.Name, schema)
	for _, t := range r.Tuples {
		nt := Tuple{}
		for k, v := range t {
			nt[newName(k)] = v
		}
		out.Add(nt)
	}
	return out
}
