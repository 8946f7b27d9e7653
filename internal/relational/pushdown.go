package relational

import "iter"

// Pushdown describes work a wrapper executes at the source instead of
// returning its full output: a projection to the named attributes. The zero
// Pushdown asks for the full output.
//
// Contract for implementations:
//   - The returned relation must keep every ID attribute of the wrapper's
//     schema even when Attrs omits it (the restricted projection Π̃ never
//     drops IDs, and the engine joins on them).
//   - Kept attributes must preserve their relative order in the wrapper's
//     full schema.
//   - An empty Attrs list pushes no projection (all attributes are kept).
//   - Partial execution is not allowed, because the caller does not
//     re-apply the pushdown. A source with no native projection runs its
//     full query and passes the rows through Apply.
//   - Rename is applied last, while the source materializes its output, so a
//     renaming caller (e.g. a qualifying resolver) costs no extra pass over
//     the rows. Attrs always use source attribute names.
type Pushdown struct {
	Attrs []string
	// Rename maps source attribute names to output names, applied after the
	// projection. Attributes absent from the map keep their source name.
	Rename map[string]string
}

// Project applies the pushdown's projection to a wrapper schema: the named
// attributes plus every ID attribute, in schema order, with the rename
// applied. The second return value lists the kept attributes' source names,
// aligned with the schema, for reading source tuples.
func (p Pushdown) Project(s Schema) (Schema, []string) {
	keep := map[string]bool{}
	if len(p.Attrs) > 0 {
		for _, a := range p.Attrs {
			keep[a] = true
		}
		for _, id := range s.IDNames() {
			keep[id] = true
		}
	}
	var out Schema
	var srcNames []string
	for _, a := range s.Attributes {
		if len(p.Attrs) > 0 && !keep[a.Name] {
			continue
		}
		srcNames = append(srcNames, a.Name)
		if nn, ok := p.Rename[a.Name]; ok {
			a.Name = nn
		}
		out.Attributes = append(out.Attributes, a)
	}
	return out, srcNames
}

// Apply executes the pushdown over a wrapper's full-output rows, s being the
// wrapper's schema: each kept cell is interned straight into its column of
// the relation name, under the schema Project returns (absent:
// MissingValueID, nil: NilValueID). It is the one implementation of
// source-side projection for sources without a native one: Memory passes
// its tuples, the JSON wrapper each document's pipeline output. Apply keeps
// no row, so rows may yield the same scratch tuple for every row; it holds
// d's lock while rows runs.
func (p Pushdown) Apply(name string, s Schema, rows iter.Seq[Tuple], d *ValueDict) *ColRelation {
	schema, srcNames := p.Project(s)
	c := &ColRelation{Name: name, Schema: schema, Cols: make([][]ValueID, len(srcNames))}
	d.mu.Lock()
	defer d.mu.Unlock()
	for t := range rows {
		for i, src := range srcNames {
			id := MissingValueID
			if v, ok := t[src]; ok {
				id = d.internLocked(v)
			}
			c.Cols[i] = append(c.Cols[i], id)
		}
		c.rows++
	}
	return c
}
