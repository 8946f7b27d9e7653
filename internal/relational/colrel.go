package relational

import "slices"

// ColRelation is a relation encoded as dictionary-interned column vectors:
// Cols[i][r] is the ValueID of attribute Schema.Attributes[i] in row r, with
// MissingValueID marking cells absent from the original tuple. It is the
// representation a wrapper fetch returns and the compiled walk engine joins
// over; the map-based Relation remains the API-level exchange format.
type ColRelation struct {
	Name   string
	Schema Schema
	Cols   [][]ValueID
	rows   int
}

// NumRows returns the number of rows.
func (c *ColRelation) NumRows() int { return c.rows }

// IngestRelation encodes rel into dictionary-interned column vectors, as
// the zero Pushdown's Apply does. No request calls it: wrappers fetch into
// columns. It stays for the benchmark's staged ingest timer only.
func IngestRelation(rel *Relation, d *ValueDict) *ColRelation {
	return Pushdown{}.Apply(rel.Name, rel.Schema, slices.Values(rel.Tuples), d)
}

// Decode materializes the columnar relation back into map tuples. Cells
// holding MissingValueID are omitted from the tuple (not set to nil), so a
// decoded relation is observably identical to one built tuple-at-a-time.
func (c *ColRelation) Decode(d *ValueDict) *Relation {
	vals := d.Values()
	out := NewRelation(c.Name, c.Schema)
	names := c.Schema.Names()
	out.Tuples = make([]Tuple, c.rows)
	for r := 0; r < c.rows; r++ {
		t := make(Tuple, len(names))
		for i, n := range names {
			if id := c.Cols[i][r]; id != MissingValueID {
				t[n] = vals[id-1]
			}
		}
		out.Tuples[r] = t
	}
	return out
}
