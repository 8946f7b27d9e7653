package relational

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Result-order tests: the compiled engine hands its result over in canonical
// order — what Relation.Sorted gives — having built every ordering key once,
// in the ID domain; Relation.Sorted builds one key per tuple; and the
// reference executor's Distinct tells apart rows that only Tuple.Key's
// separator confuses.

// keysOf renders tuples by their canonical key.
func keysOf(tuples []Tuple, names []string) []string {
	keys := make([]string, len(tuples))
	for i, t := range tuples {
		keys[i] = t.Key(names)
	}
	return keys
}

// cellsOf renders tuples cell by cell, which tells apart the tuples whose
// canonical keys coincide.
func cellsOf(tuples []Tuple, names []string) []string {
	cells := make([]string, len(tuples))
	for i, t := range tuples {
		cells[i] = fmt.Sprintf("%q", t.cellKeys(names))
	}
	return cells
}

// requireCanonicalOrder checks one engine result against the contract: its
// tuples are in non-decreasing Tuple.Key order, in the order Sorted gives
// them, and in the order Sorted gives the reference executor's result. Ties
// are possible only through an embedded U+001F; both sides break them cell by
// cell, so the comparison is exact and not up to a permutation of equal keys.
func requireCanonicalOrder(t *testing.T, label string, got, ref *Relation) {
	t.Helper()
	names := got.Schema.Names()
	keys := keysOf(got.Tuples, names)
	if !slices.IsSorted(keys) {
		t.Fatalf("%s: result keys are not in non-decreasing order: %q", label, keys)
	}
	cells := cellsOf(got.Tuples, names)
	if sorted := cellsOf(got.Sorted(), names); !slices.Equal(cells, sorted) {
		t.Fatalf("%s: result order is not its own Sorted() order\nresult: %v\nsorted: %v", label, cells, sorted)
	}
	if ref == nil {
		return
	}
	if want := cellsOf(ref.Sorted(), names); !slices.Equal(cells, want) {
		t.Fatalf("%s: result order is not the reference result's Sorted() order\nresult:    %v\nreference: %v", label, cells, want)
	}
}

// TestCanonicalOrderMatchesTupleKey is the order property test: over generated
// unions — cells with control bytes, prefixes, nil and missing, NaN, numeric
// aliases and colliding joined keys; columns absent from some walks — the
// engine's result is in Tuple.Key order, for single walks and unions, and,
// under a Limit, is the canonical ordering of a subset of the full result.
func TestCanonicalOrderMatchesTupleKey(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	cases, ordered := 300, 0
	if testing.Short() {
		cases = 60
	}
	for c := 0; c < cases; c++ {
		data := make([]byte, 64+rng.Intn(700))
		rng.Read(data)
		gc := generateCase(data)
		if c%2 == 1 {
			gc = generateSharedCase(data)
		}
		resolver := staticResolver(gc.rels)
		u := gc.ucq()
		for wi, w := range gc.walks {
			ref, refErr := w.ExecuteReference(ctx, resolver)
			got, gotErr := w.Execute(ctx, resolver)
			if refErr == nil && gotErr == nil {
				requireCanonicalOrder(t, fmt.Sprintf("case %d walk %d", c, wi), got, ref)
			}
		}
		ref, err := u.ExecuteReference(ctx, resolver, gc.requested)
		if err != nil {
			continue
		}
		full, err := decoded(executeUnion(ctx, u.Walks, resolver, u.execOptions(gc.requested)))
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		requireCanonicalOrder(t, fmt.Sprintf("case %d", c), full, ref)
		if full.Cardinality() > 1 {
			ordered++
		}
		fullCells := cellsOf(full.Tuples, full.Schema.Names())
		for limit := 1; limit < full.Cardinality(); limit += 1 + limit/2 {
			opts := u.execOptions(gc.requested)
			opts.Limit = limit
			got, err := decoded(executeUnion(ctx, u.Walks, resolver, opts))
			if err != nil {
				t.Fatalf("case %d limit %d: %v", c, limit, err)
			}
			label := fmt.Sprintf("case %d limit %d", c, limit)
			requireCanonicalOrder(t, label, got, nil)
			cells := cellsOf(got.Tuples, got.Schema.Names())
			if len(cells) != limit {
				t.Fatalf("%s: %d rows", label, len(cells))
			}
			// In canonical order and a subset of the full result: a
			// subsequence of it.
			at := 0
			for _, row := range cells {
				for at < len(fullCells) && fullCells[at] != row {
					at++
				}
				if at == len(fullCells) {
					t.Fatalf("%s: row %s is not a row of the unlimited result, or is out of its order", label, row)
				}
				at++
			}
		}
	}
	if ordered < cases/4 {
		t.Fatalf("only %d of %d cases had two or more rows to order", ordered, cases)
	}
}

// TestCanonicalOrderIsJoinedKeyOrder pins, on hand-picked rows, the cases in
// which ordering by the joined key differs from ordering column by column: a
// value that is a prefix of another, bytes below the separator, a name the
// schema repeats, and joined keys that coincide.
func TestCanonicalOrderIsJoinedKeyOrder(t *testing.T) {
	rel := NewRelation("w", NewSchema([]string{"id"}, []string{"a", "b"}))
	rel.Add(
		Tuple{"id": 1, "a": "a", "b": "z"},
		Tuple{"id": 2, "a": "a\n", "b": "b"}, // "a\n" < "a\x1f": sorts before its own prefix
		Tuple{"id": 3, "a": "a\x00", "b": "c"},
		Tuple{"id": 4, "a": "ab", "b": "a"},
		Tuple{"id": 5, "a": "x\x1fsy", "b": "z"},
		Tuple{"id": 5, "a": "x", "b": "y\x1fsz"}, // the same joined key as the row before
		Tuple{"id": 6, "a": math.NaN()},
		Tuple{"id": 6, "a": nil, "b": 12},
		Tuple{"id": 6, "b": float64(12)}, // missing a ≡ nil a, 12.0 ≡ 12: a duplicate
		Tuple{"id": 7, "a": int64(12), "b": "12"},
	)
	rels := staticResolver{"w": rel}
	u := NewUCQ()
	u.Add(NewWalk("w", "S", "a", "b"))
	requested := []string{"a", "b", "a"} // a name the result schema repeats
	ref, err := u.ExecuteReference(context.Background(), rels, requested)
	if err != nil {
		t.Fatal(err)
	}
	got, err := u.Execute(context.Background(), rels, requested)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 9 {
		t.Fatalf("%d rows, want 9:\n%s", got.Cardinality(), got)
	}
	requireCanonicalOrder(t, "union", got, ref)
	single, err := u.Walks[0].Execute(context.Background(), rels)
	if err != nil {
		t.Fatal(err)
	}
	requireCanonicalOrder(t, "walk", single, nil)

	// Two output columns of one name fed by different attributes (two
	// features sharing a local name): every column of a name reads the
	// walk's first column of that name, so ordering by column is still
	// ordering by Tuple.Key.
	opts := ExecOptions{Name: "answer", Output: []OutputColumn{{Name: "n", Feeds: feedAll(u.Walks, "b")}, {Name: "n", Feeds: feedAll(u.Walks, "a")}}}
	renamed, err := decoded(executeUnion(context.Background(), u.Walks, rels, opts))
	if err != nil {
		t.Fatal(err)
	}
	requireCanonicalOrder(t, "repeated name", renamed, nil)
}

// TestDistinctSeparatesCollidingJoinedKeys is the regression test for rows the
// reference executor lost: two rows whose cells differ but whose Tuple.Key
// coincides, because a value holds the key's separator. Both executors keep
// both.
func TestDistinctSeparatesCollidingJoinedKeys(t *testing.T) {
	rel := NewRelation("w", NewSchema([]string{"a"}, []string{"b"}))
	rel.Add(
		Tuple{"a": "x\x1fsy", "b": "z"},
		Tuple{"a": "x", "b": "y\x1fsz"},
		Tuple{"a": "x", "b": "y\x1fsz"}, // a true duplicate
	)
	names := rel.Schema.Names()
	if rel.Tuples[0].Key(names) != rel.Tuples[1].Key(names) {
		t.Fatal("the two rows no longer share a joined key: the test tests nothing")
	}
	if got := rel.Distinct().Cardinality(); got != 2 {
		t.Fatalf("Distinct kept %d rows, want 2", got)
	}
	rels := staticResolver{"w": rel}
	u := NewUCQ()
	u.Add(NewWalk("w", "S", "b"))
	ref, err := u.ExecuteReference(context.Background(), rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := u.Execute(context.Background(), rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cardinality() != 2 || got.Cardinality() != 2 {
		t.Fatalf("reference kept %d rows and the engine %d, want 2 and 2", ref.Cardinality(), got.Cardinality())
	}
	if canonical(ref) != canonical(got) {
		t.Fatalf("result parity broken\nreference:\n%s\nengine:\n%s", canonical(ref), canonical(got))
	}
}

// orderingCase builds rows×8 distinct rows in ID form over a pool of distinct
// cell values, in a shuffled order, the way a union hands them to the
// ordering step.
func orderingCase(rows, distinct int) (*ValueDict, [][]ValueID) {
	const width = 8
	d := NewValueDict()
	pool := make([]ValueID, distinct)
	for i := range pool {
		switch i % 3 {
		case 0:
			pool[i] = d.Intern(i)
		case 1:
			pool[i] = d.Intern(float64(i) + 0.5)
		default:
			pool[i] = d.Intern(fmt.Sprintf("value-%d", i))
		}
	}
	rng := rand.New(rand.NewSource(int64(rows)))
	out := make([][]ValueID, rows)
	cells := make([]ValueID, rows*width)
	for r := range out {
		row := cells[r*width : (r+1)*width]
		row[0] = d.Intern(fmt.Sprintf("row-%d", r)) // keeps the rows distinct
		for c := 1; c < width; c++ {
			if row[c] = pool[rng.Intn(distinct)]; rng.Intn(16) == 0 {
				row[c] = MissingValueID
			}
		}
		out[r] = row
	}
	rng.Shuffle(rows, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return d, out
}

// decodeRows materializes ordered rows the way the engine does, for checking
// them against Tuple.Key.
func decodeRows(d *ValueDict, rows [][]ValueID) *Relation {
	cols := make([][]ValueID, len(rows[0]))
	names := make([]string, len(cols))
	for c := range cols {
		names[c] = fmt.Sprintf("c%d", c)
		cols[c] = make([]ValueID, len(rows))
		for r, row := range rows {
			cols[c][r] = row[c]
		}
	}
	return (&ColRelation{Name: "rows", Schema: NewSchema(nil, names), Cols: cols, rows: len(rows)}).Decode(d)
}

// TestOrderingBuildsEachKeyOnce is the allocation guard of the ordering step:
// ordering 2000×8 rows allocates a handful of objects per distinct value (its
// rendered key) plus a constant — nothing per row, nothing per comparison —
// and ordering again on the same dictionary renders no key at all. With
// comparator-side key building this measured ~200 objects per row.
func TestOrderingBuildsEachKeyOnce(t *testing.T) {
	const rows, distinct = 2000, 300
	d, in := orderingCase(rows, distinct)
	var out [][]ValueID
	first := testing.AllocsPerRun(1, func() {
		fresh := NewValueDict()
		for _, e := range d.ents {
			fresh.Intern(e.v)
		}
		out = fresh.order(in)
	})
	// Re-interning 2300 values is ~1 object per value (boxing aside), their
	// keys 2 more (the formatted number or string, and its kind prefix).
	if limit := float64(4*(rows+distinct) + 64); first > limit {
		t.Errorf("first ordering of %d rows over %d distinct values allocated %.0f objects, want <= %.0f", rows, rows+distinct, first, limit)
	}
	out = d.order(in) // renders the keys
	again := testing.AllocsPerRun(5, func() { out = d.order(in) })
	if again > 16 {
		t.Errorf("ordering %d rows on a dictionary whose keys are cached allocated %.0f objects, want a constant", rows, again)
	}
	if rel := decodeRows(d, out); !slices.IsSorted(keysOf(rel.Tuples, rel.Schema.Names())) {
		t.Fatal("ordered rows are not in Tuple.Key order")
	}
}

// TestSortedBuildsEachKeyOnce is the allocation guard of Relation.Sorted: it
// allocates what one Tuple.Key per tuple allocates (the cell slice, the cell
// renderings, the joined string) and a constant, whatever the number of
// comparisons. On the 2000×8 relation below that is ~15 objects per tuple; the
// comparator-side Key of the old Sorted measured ~365.
func TestSortedBuildsEachKeyOnce(t *testing.T) {
	d, rows := orderingCase(2000, 300)
	rel := decodeRows(d, rows)
	names := rel.Schema.Names()
	oneKeyEach := testing.AllocsPerRun(3, func() {
		for _, tup := range rel.Tuples {
			_ = tup.Key(names)
		}
	})
	var sorted []Tuple
	allocs := testing.AllocsPerRun(3, func() { sorted = rel.Sorted() })
	// The slack — a quarter of an object per tuple — absorbs what the race
	// detector's instrumentation allocates inside the sort.
	if allocs > oneKeyEach+float64(len(rel.Tuples))/4 {
		t.Errorf("Sorted allocated %.0f objects for %d tuples; one Tuple.Key per tuple is %.0f", allocs, len(rel.Tuples), oneKeyEach)
	}
	if !slices.IsSorted(keysOf(sorted, names)) {
		t.Fatal("Sorted() is not in Tuple.Key order")
	}
}

// BenchmarkAnswerOrdering measures the step between the dedup-union and the
// decode on its own: ordering rows×8 ValueID rows of a fresh union (every key
// rendered once) canonically.
func BenchmarkAnswerOrdering(b *testing.B) {
	for _, rows := range []int{2000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			d, in := orderingCase(rows, rows/4)
			ents := d.ents
			var out [][]ValueID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := NewValueDict()
				for _, e := range ents {
					fresh.Intern(e.v)
				}
				b.StartTimer()
				out = fresh.order(in)
			}
			b.StopTimer()
			rel := decodeRows(d, out)
			if len(out) != rows || !slices.IsSorted(keysOf(rel.Tuples, rel.Schema.Names())) {
				b.Fatal("ordered rows are not in Tuple.Key order")
			}
		})
	}
}

// Key returns a canonical key of the tuple over the given attributes.
func (t Tuple) Key(names []string) string {
	return strings.Join(t.cellKeys(names), "\x1f")
}
