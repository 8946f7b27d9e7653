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
// executor: fetch each wrapper (into a dictionary of its own, decoded to
// tuples), apply the restricted projection, then apply the restricted joins
// in declaration-driven order. Source fetches honor ctx, every materialized
// relation (fetched and joined) is charged against the context's
// lifecycle.Tracker, and the join loops check cancellation at chunk
// granularity. Unlike the compiled engine, it fetches every wrapper's
// full output, once for every walk that names it.
func (w *Walk) ExecuteReference(ctx context.Context, resolver WrapperResolver) (*Relation, error) {
	if err := w.Validate(); err != nil {
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
	if len(w.Wrappers) == 1 {
		return relations[w.Wrappers[0].Wrapper], nil
	}
	// Iteratively apply join conditions; each join merges the right wrapper
	// into the accumulated relation. Conditions are processed in a order that
	// always joins against an already-joined wrapper when possible.
	joined := map[string]bool{w.Wrappers[0].Wrapper: true}
	acc := relations[w.Wrappers[0].Wrapper]
	remaining := append([]JoinCondition(nil), w.Joins...)
	for len(remaining) > 0 {
		progress := false
		for i, j := range remaining {
			var nextWrapper, accAttr, nextAttr string
			switch {
			case joined[j.LeftWrapper] && joined[j.RightWrapper]:
				// Both sides already joined: apply as a filter via join keys.
				nextWrapper, accAttr, nextAttr = "", j.LeftAttr, j.RightAttr
			case joined[j.LeftWrapper]:
				nextWrapper, accAttr, nextAttr = j.RightWrapper, j.LeftAttr, j.RightAttr
			case joined[j.RightWrapper]:
				nextWrapper, accAttr, nextAttr = j.LeftWrapper, j.RightAttr, j.LeftAttr
			default:
				continue
			}
			if nextWrapper == "" {
				acc = filterEqual(acc, accAttr, nextAttr)
			} else {
				next, ok := relations[nextWrapper]
				if !ok {
					return nil, fmt.Errorf("relational: join references wrapper %s not in walk", nextWrapper)
				}
				var err error
				acc, err = acc.EquiJoin(ctx, next, accAttr, nextAttr)
				if err != nil {
					return nil, err
				}
				joined[nextWrapper] = true
			}
			remaining = append(remaining[:i], remaining[i+1:]...)
			progress = true
			break
		}
		if !progress {
			return nil, fmt.Errorf("relational: walk joins are disconnected: %v", remaining)
		}
	}
	// Any wrapper never mentioned in a join is combined via cartesian-free
	// error: the walk is not a connected SPJ expression.
	for _, ref := range w.Wrappers {
		if !joined[ref.Wrapper] {
			return nil, fmt.Errorf("relational: wrapper %s is not connected by any join in the walk", ref.Wrapper)
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

// ExecuteReference evaluates the union with the reference executor: each
// walk runs through Walk.ExecuteReference, is restricted to the requested
// attributes available in that walk (all of its attributes when requested
// is empty), unioned and deduplicated.
func (u *UnionOfConjunctiveQueries) ExecuteReference(ctx context.Context, resolver WrapperResolver, requested []string) (*Relation, error) {
	if u.IsEmpty() {
		return NewRelation("∅", Schema{}), nil
	}
	var result *Relation
	for _, w := range u.Walks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rel, err := w.ExecuteReference(ctx, resolver)
		if err != nil {
			return nil, err
		}
		if len(requested) > 0 {
			var keep []string
			for _, a := range requested {
				if rel.Schema.Has(a) {
					keep = append(keep, a)
				}
			}
			rel = rel.StrictProject(keep)
		}
		if result == nil {
			result = rel
		} else {
			result = result.Union(rel)
		}
	}
	result.Name = "answer"
	return result.Distinct(), nil
}
