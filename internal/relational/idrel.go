package relational

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// IDRelation is a union's answer still in the ID domain: its deduplicated
// rows in canonical order, each cell a ValueID of the union's dictionary in
// the column of the same index in Schema (MissingValueID: the cell is
// absent). Union.Execute returns it so that a caller decodes the answer
// once (Relation) or renders it as JSON without decoding it (AppendJSON).
type IDRelation struct {
	Name   string
	Schema Schema
	Rows   [][]ValueID
	dict   *ValueDict
}

// Relation decodes the answer into map tuples, in row order. Missing cells
// are omitted from the tuple, not set to nil.
func (a *IDRelation) Relation() *Relation {
	return a.dict.decode(a.Name, a.Schema, len(a.Rows), func(r, c int) ValueID { return a.Rows[r][c] })
}

// AppendJSON appends the rows to dst exactly as encoding/json renders the
// tuples Relation decodes, as a []map[string]any that is nil when there are
// no rows: an array of objects with sorted keys and missing cells omitted,
// or null. Each distinct value is marshaled once into its dictionary entry,
// which the union's next execution shares, and each column name once per
// call. A value encoding/json cannot encode (a NaN, a channel) fails the
// call with an error naming its column.
func (a *IDRelation) AppendJSON(dst []byte) ([]byte, error) {
	if len(a.Rows) == 0 {
		return append(dst, "null"...), nil
	}
	// One key per distinct column name, in encoding/json's order. A name the
	// schema repeats reads its last present cell, as the decoded map does.
	type key struct {
		name  string
		quote []byte // the name marshaled, and a colon
		cols  []int
	}
	var keys []key
	for c, name := range a.Schema.Names() {
		if i := slices.IndexFunc(keys, func(k key) bool { return k.name == name }); i >= 0 {
			keys[i].cols = append(keys[i].cols, c)
			continue
		}
		q, _ := json.Marshal(name) // a string always marshals
		keys = append(keys, key{name, append(q, ':'), []int{c}})
	}
	slices.SortFunc(keys, func(x, y key) int { return strings.Compare(x.name, y.name) })

	d := a.dict
	d.mu.Lock()
	defer d.mu.Unlock()
	dst = append(dst, '[')
	for _, row := range a.Rows {
		dst = append(dst, '{')
		for _, k := range keys {
			id := MissingValueID
			for _, c := range k.cols {
				if row[c] != MissingValueID {
					id = row[c]
				}
			}
			if id == MissingValueID {
				continue
			}
			b, err := d.encode(id)
			if err != nil {
				return dst, fmt.Errorf("relational: encoding column %q: %w", k.name, err)
			}
			dst = append(append(append(dst, k.quote...), b...), ',')
		}
		if dst[len(dst)-1] == ',' {
			dst = dst[:len(dst)-1]
		}
		dst = append(dst, '}', ',')
	}
	dst[len(dst)-1] = ']'
	return dst, nil
}
