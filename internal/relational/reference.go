package relational

import (
	"context"
	"fmt"

	"bdi/internal/lifecycle"
)

// This file preserves the original tuple-at-a-time walk executor.
// It is the reference implementation the compiled engine (engine.go) is
// differentially tested against: for every input, the engine must reproduce
// the reference's result name, schema order, canonical rendering
// (Relation.String) and structural errors byte-for-byte. It is retained as
// production code (not a _test.go file) so external packages can run their
// own parity checks, and so benchmarks can quantify the engine against it.

// ExecuteReference evaluates the walk with the reference tuple-at-a-time
// executor: check the walk (Validate) and derive its join order, fetch each
// wrapper (into a dictionary of its own, decoded to tuples), apply the
// restricted projection, then apply the restricted joins in that order.
// Source fetches honor ctx, every materialized relation (fetched and joined)
// is charged against the context's lifecycle.Tracker, and the join loops
// check cancellation at chunk granularity. Unlike the compiled engine, it
// fetches every wrapper's full output, once for every walk that names it.
func (w *Walk) ExecuteReference(ctx context.Context, resolver WrapperResolver) (*Relation, error) {
	steps, err := w.validate(nil, true)
	if err != nil {
		return nil, err
	}
	track := lifecycle.TrackerFrom(ctx)
	// Fetch and project every wrapper.
	relations := map[string]*Relation{}
	for _, ref := range w.Wrappers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := NewValueDict()
		rel, err := resolver.Fetch(ctx, ref.Wrapper, Pushdown{}, d)
		if err != nil {
			return nil, fmt.Errorf("relational: fetching wrapper %s: %w", ref.Wrapper, err)
		}
		relations[ref.Wrapper] = rel.Decode(d).Project(ref.Projection)
		if err := chargeRelation(track, relations[ref.Wrapper]); err != nil {
			return nil, err
		}
	}
	acc := relations[w.Wrappers[0].Wrapper]
	for _, s := range steps {
		accAttr, nextAttr := s.attrs(w)
		if s.next < 0 {
			acc = filterEqual(acc, accAttr, nextAttr)
			continue
		}
		if acc, err = acc.EquiJoin(ctx, relations[w.Wrappers[s.next].Wrapper], accAttr, nextAttr); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// filterEqual keeps tuples where both attributes are equal. It implements
// join conditions whose two sides are already part of the accumulated
// relation.
func filterEqual(r *Relation, a, b string) *Relation {
	out := NewRelation(r.Name, r.Schema)
	for _, t := range r.Tuples {
		if ValuesEqual(t[a], t[b]) {
			out.Add(t.Clone())
		}
	}
	return out
}
