package relational

import (
	"context"
	"fmt"
	"testing"
)

// validateRefs returns one entry per wrapper name, each from a source of its
// own.
func validateRefs(names ...string) []WrapperRef {
	refs := make([]WrapperRef, len(names))
	for i, n := range names {
		refs[i] = WrapperRef{Wrapper: n, Source: "S" + n, Projection: []string{n + "v"}}
	}
	return refs
}

// on joins two wrappers on their ID attributes.
func on(l, r string) JoinCondition {
	return JoinCondition{LeftWrapper: l, LeftAttr: l + "id", RightWrapper: r, RightAttr: r + "id"}
}

// validateResolver holds one row per wrapper a..e: its ID attribute is 1, so
// every join of a connected walk matches.
func validateResolver() staticResolver {
	rels := staticResolver{}
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		rel := NewRelation(n, NewSchema([]string{n + "id"}, []string{n + "v"}))
		rel.Add(Tuple{n + "id": 1, n + "v": n})
		rels[n] = rel
	}
	return rels
}

// TestValidateIsTheWalkRule pins the one walk-validity rule on small walks.
// An invalid walk gets Validate's error, word for word, from the engine
// (Walk.Execute and a one-walk Union), and from the reference executor; a
// valid one runs on both and returns its one row.
func TestValidateIsTheWalkRule(t *testing.T) {
	dup := validateRefs("a", "b", "a")
	dup[2].Source = ""
	cases := []struct {
		name string
		walk *Walk
		err  string
	}{
		{"chain", &Walk{Wrappers: validateRefs("a", "b", "c", "d", "e"),
			Joins: []JoinCondition{on("a", "b"), on("b", "c"), on("c", "d"), on("d", "e")}}, ""},
		{"chain declared out of order", &Walk{Wrappers: validateRefs("a", "b", "c", "d"),
			Joins: []JoinCondition{on("c", "d"), on("a", "b"), on("b", "c")}}, ""},
		{"star", &Walk{Wrappers: validateRefs("a", "b", "c", "d"),
			Joins: []JoinCondition{on("b", "a"), on("a", "c"), on("d", "a")}}, ""},
		{"cycle: a filter closes it", &Walk{Wrappers: validateRefs("a", "b", "c"),
			Joins: []JoinCondition{on("a", "b"), on("b", "c"), on("c", "a")}}, ""},
		{"duplicate entry counts as one wrapper", &Walk{Wrappers: dup,
			Joins: []JoinCondition{on("b", "a")}}, ""},
		{"duplicate entry of one source", &Walk{Wrappers: validateRefs("a", "b", "a"),
			Joins: []JoinCondition{on("a", "b")}},
			"relational: walk joins two schema versions of the same data source: [a b]"},
		{"no wrappers", &Walk{}, "relational: walk has no wrappers"},
		{"join names an absent wrapper", &Walk{Wrappers: validateRefs("a", "b"),
			Joins: []JoinCondition{on("a", "b"), on("b", "x")}},
			"relational: join bid=xid references a wrapper not in the walk"},
		{"disconnected joins", &Walk{Wrappers: validateRefs("a", "b", "c", "d"),
			Joins: []JoinCondition{on("c", "d"), on("a", "b")}},
			"relational: walk joins are disconnected: [cid=did]"},
		{"wrapper no join names", &Walk{Wrappers: validateRefs("a", "b", "c"),
			Joins: []JoinCondition{on("a", "b")}},
			"relational: wrapper c is not connected by any join in the walk"},
	}
	ctx := context.Background()
	resolver := validateResolver()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.walk
			got, gotErr := w.Execute(ctx, resolver)
			ref, refErr := w.ExecuteReference(ctx, resolver)
			_, unionErr := NewUnion([]*Walk{w}, "", nil).Execute(ctx, resolver, 0)
			if tc.err == "" {
				if err := w.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				for _, err := range []error{gotErr, refErr, unionErr} {
					if err != nil {
						t.Fatalf("a valid walk does not run: %v", err)
					}
				}
				if got.Cardinality() != 1 || canonical(got) != canonical(ref) {
					t.Fatalf("engine:\n%s\nreference:\n%s\nwant the same one row", canonical(got), canonical(ref))
				}
				return
			}
			for label, err := range map[string]error{
				"Validate": w.Validate(), "Walk.Execute": gotErr, "Walk.ExecuteReference": refErr, "Union.Execute": unionErr,
			} {
				if err == nil || err.Error() != tc.err {
					t.Errorf("%s: error %v, want %q", label, err, tc.err)
				}
			}
		})
	}
}

// TestValidateAllocatesNothing pins that Validate allocates neither when it
// accepts a 5-wrapper chain nor when it rejects a walk, as Algorithm 5 does
// for every candidate its join plan leaves disconnected: the error renders
// its text only when read.
func TestValidateAllocatesNothing(t *testing.T) {
	chain := &Walk{Wrappers: validateRefs("a", "b", "c", "d", "e"),
		Joins: []JoinCondition{on("a", "b"), on("b", "c"), on("c", "d"), on("d", "e")}}
	unjoined := &Walk{Wrappers: validateRefs("a", "b", "c", "d", "e"),
		Joins: []JoinCondition{on("a", "b"), on("b", "c"), on("c", "d")}}
	if n := testing.AllocsPerRun(100, func() {
		if chain.Validate() != nil {
			t.Fatal("the chain is valid")
		}
	}); n != 0 {
		t.Errorf("Validate of a valid chain: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if unjoined.Validate() == nil {
			t.Fatal("e is joined by nothing")
		}
	}); n != 0 {
		t.Errorf("Validate of a disconnected walk: %v allocations, want 0", n)
	}
}

// TestValidateLongChain covers a walk longer than Validate's fixed scratch
// (64 wrappers): it is still one rule.
func TestValidateLongChain(t *testing.T) {
	var names []string
	for i := 0; i < 70; i++ {
		names = append(names, fmt.Sprintf("w%d", i))
	}
	w := &Walk{Wrappers: validateRefs(names...)}
	for i := 1; i < len(names); i++ {
		w.Joins = append(w.Joins, on(names[i-1], names[i]))
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("a chain of 70 wrappers: %v", err)
	}
	w.Joins = w.Joins[:len(w.Joins)-1]
	want := "relational: wrapper w69 is not connected by any join in the walk"
	if err := w.Validate(); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// TestOneWrapperWalkFilters pins that a walk of one wrapper applies a join
// condition on that wrapper as a filter, in both executors, as any walk
// does for a condition between joined wrappers.
func TestOneWrapperWalkFilters(t *testing.T) {
	w := &Walk{Wrappers: validateRefs("a"),
		Joins: []JoinCondition{{LeftWrapper: "a", LeftAttr: "aid", RightWrapper: "a", RightAttr: "av"}}}
	got, err := w.Execute(context.Background(), validateResolver())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.ExecuteReference(context.Background(), validateResolver())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 0 || ref.Cardinality() != 0 {
		t.Fatalf("aid = av holds in no row, yet the engine returned\n%s\nand the reference\n%s", got, ref)
	}
}
