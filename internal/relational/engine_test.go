package relational

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// chainCase builds a three-wrapper chain (w_a ⋈ w_b ⋈ w_c on shared ids)
// whose UCQ yields several distinct rows, for limit tests.
func chainCase() (staticResolver, *UnionOfConjunctiveQueries) {
	rels := staticResolver{}
	for i, name := range []string{"w_a", "w_b", "w_c"} {
		idL := fmt.Sprintf("k%d", i)
		idR := fmt.Sprintf("k%d", i+1)
		val := fmt.Sprintf("v%d", i)
		rel := NewRelation(name, NewSchema([]string{idL, idR}, []string{val}))
		for k := 0; k < 8; k++ {
			rel.Add(Tuple{idL: k, idR: k, val: fmt.Sprintf("%s=%d", name, k)})
		}
		rels[name] = rel
	}
	w := &Walk{
		Wrappers: []WrapperRef{
			{Wrapper: "w_a", Source: "SA", Projection: []string{"v0"}},
			{Wrapper: "w_b", Source: "SB", Projection: []string{"v1"}},
			{Wrapper: "w_c", Source: "SC", Projection: []string{"v2"}},
		},
		Joins: []JoinCondition{
			{LeftWrapper: "w_a", LeftAttr: "k1", RightWrapper: "w_b", RightAttr: "k1"},
			{LeftWrapper: "w_b", LeftAttr: "k2", RightWrapper: "w_c", RightAttr: "k2"},
		},
	}
	u := NewUCQ()
	u.Add(w)
	return rels, u
}

// TestEngineLimitIsDeterministicPrefix checks that a limited union result is
// the canonical ordering of exactly the first Limit distinct rows in walk
// order.
func TestEngineLimitIsDeterministicPrefix(t *testing.T) {
	rels, u := chainCase()
	ctx := context.Background()
	opts := u.execOptions(nil)
	full, err := decoded(executeUnion(ctx, u.Walks, rels, opts))
	if err != nil {
		t.Fatal(err)
	}
	if full.Cardinality() != 8 {
		t.Fatalf("chain case should yield 8 distinct rows, got %d", full.Cardinality())
	}
	names := full.Schema.Names()
	for limit := 1; limit <= full.Cardinality(); limit++ {
		lopts := opts
		lopts.Limit = limit
		want := limitOracle(t, u.Walks, rels, full.Schema, limit)
		got, err := decoded(executeUnion(ctx, u.Walks, rels, lopts))
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		requireTuples(t, fmt.Sprintf("limit %d", limit), names, got.Tuples, want)
	}
}

// TestEngineStrictEmptyProjection reproduces the reference's
// StrictProject(nil) corner: projecting to zero columns collapses every tuple
// into one empty tuple after dedupe.
func TestEngineStrictEmptyProjection(t *testing.T) {
	rels := staticResolver{"w1": w1Relation()}
	u := NewUCQ()
	u.Add(NewWalk("w1", "S1", "lagRatio"))
	requested := []string{"no_such_attribute"}
	ref, refErr := u.ExecuteReference(context.Background(), rels, requested)
	got, gotErr := u.Execute(context.Background(), rels, requested)
	if refErr != nil || gotErr != nil {
		t.Fatalf("unexpected errors: reference=%v engine=%v", refErr, gotErr)
	}
	if canonical(ref) != canonical(got) {
		t.Fatalf("strict empty projection parity broken\nreference:\n%s\nengine:\n%s",
			canonical(ref), canonical(got))
	}
	if got.Cardinality() != 1 || len(got.Schema.Attributes) != 0 {
		t.Fatalf("expected one zero-column tuple, got %d tuples over %s", got.Cardinality(), got.Schema)
	}
}

// TestEngineMissingVersusNil checks that an attribute absent from a tuple
// stays absent through ingest/decode (it must not materialize as an explicit
// nil: the mdm layer renders absent and null differently in JSON), while the
// two still compare equal under join and dedupe semantics.
func TestEngineMissingVersusNil(t *testing.T) {
	rel := NewRelation("w", NewSchema([]string{"id"}, []string{"v"}))
	rel.Add(
		Tuple{"id": 1, "v": nil}, // explicit nil
		Tuple{"id": 2},           // v missing
	)
	rels := staticResolver{"w": rel}
	got, err := NewWalk("w", "S", "v").Execute(context.Background(), rels)
	if err != nil {
		t.Fatal(err)
	}
	var sawNil, sawMissing bool
	for _, tup := range got.Tuples {
		if v, ok := tup["v"]; ok {
			if v != nil {
				t.Fatalf("unexpected value %v", v)
			}
			sawNil = true
		} else {
			sawMissing = true
		}
	}
	if !sawNil || !sawMissing {
		t.Fatalf("missing/nil distinction lost: sawNil=%t sawMissing=%t tuples=%v", sawNil, sawMissing, got.Tuples)
	}
}

// TestEngineSharedNameJoinOrder pins the left-wins merge hazard: when two
// wrappers expose the same non-ID attribute name with different values, the
// result cells depend on the join order, so the planner must replay the
// reference order exactly.
func TestEngineSharedNameJoinOrder(t *testing.T) {
	// big (3 rows) joins small (1 row); greedy would start from "small" and
	// flip which wrapper's "note" survives the merge.
	big := NewRelation("big", NewSchema([]string{"id"}, []string{"note"}))
	big.Add(
		Tuple{"id": 1, "note": "from-big"},
		Tuple{"id": 2, "note": "from-big"},
		Tuple{"id": 3, "note": "from-big"},
	)
	small := NewRelation("small", NewSchema([]string{"id"}, []string{"note"}))
	small.Add(Tuple{"id": 1, "note": "from-small"})
	rels := staticResolver{"big": big, "small": small}
	w := &Walk{
		Wrappers: []WrapperRef{
			{Wrapper: "big", Source: "SB", Projection: []string{"note"}},
			{Wrapper: "small", Source: "SS", Projection: []string{"note"}},
		},
		Joins: []JoinCondition{{LeftWrapper: "big", LeftAttr: "id", RightWrapper: "small", RightAttr: "id"}},
	}
	ref, err := w.ExecuteReference(context.Background(), rels)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.Execute(context.Background(), rels)
	if err != nil {
		t.Fatal(err)
	}
	if ref.String() != got.String() {
		t.Fatalf("shared-name join order diverged\nreference: %s\nengine:    %s", ref, got)
	}
	if !strings.Contains(got.String(), "from-big") {
		t.Fatalf("left-wins merge broken: %s", got)
	}
}

// TestEnginePushdownProjection checks the engine pushes the union of every
// walk's projection for a wrapper and that results survive the narrowing.
func TestEnginePushdownProjection(t *testing.T) {
	rel := NewRelation("w", NewSchema([]string{"id"}, []string{"a", "b", "c"}))
	rel.Add(
		Tuple{"id": 1, "a": "a1", "b": "b1", "c": "c1"},
		Tuple{"id": 2, "a": "a2", "b": "b2", "c": "c2"},
	)
	pd := &pushdownStaticResolver{rels: staticResolver{"w": rel}}
	walks := []*Walk{
		NewWalk("w", "S", "a"),
		NewWalk("w", "S", "b"),
	}
	got, err := decoded(executeUnion(context.Background(), walks, pd, ExecOptions{Name: "answer"}))
	if err != nil {
		t.Fatal(err)
	}
	if pd.calls != 1 {
		t.Fatalf("expected one pushdown fetch for the shared wrapper, got %d", pd.calls)
	}
	// The pushed projection is the sorted union of both walks' projections.
	if want := []string{"a", "b"}; fmt.Sprint(pd.lastAttrs) != fmt.Sprint(want) {
		t.Fatalf("pushed attrs = %v, want %v", pd.lastAttrs, want)
	}
	full, err := decoded(executeUnion(context.Background(), walks, fullOutputResolver{rels: pd.rels}, ExecOptions{Name: "answer"}))
	if err != nil {
		t.Fatal(err)
	}
	if full.String() != got.String() {
		t.Fatalf("pushdown changed results\nfull:     %s\npushdown: %s", full, got)
	}
}

// TestValueDictEquivalenceClasses pins the dictionary's value identity: every
// numeric spelling of the same integral value interns to one ID, renderings
// that collide across kinds do not, and missing vs nil stay distinct IDs that
// compare equal under join normalization.
func TestValueDictEquivalenceClasses(t *testing.T) {
	d := NewValueDict()
	one := d.Intern(1)
	for _, alias := range []Value{int64(1), float64(1), 1} {
		if got := d.Intern(alias); got != one {
			t.Fatalf("Intern(%T %v) = %d, want %d", alias, alias, got, one)
		}
	}
	if d.Intern("1") == one {
		t.Fatal("string \"1\" must not collapse into numeric 1")
	}
	if d.Intern(1.5) == d.Intern("1.5") {
		t.Fatal("float 1.5 must not collapse into string \"1.5\"")
	}
	if d.Intern(true) == d.Intern("true") {
		t.Fatal("bool true must not collapse into string \"true\"")
	}
	if d.Intern(nil) != NilValueID {
		t.Fatalf("Intern(nil) = %d, want %d", d.Intern(nil), NilValueID)
	}
	if joinID(MissingValueID) != joinID(NilValueID) {
		t.Fatal("missing and nil must join as equal")
	}
	if MissingValueID == NilValueID {
		t.Fatal("missing and nil must stay distinct IDs")
	}
}

// TestColRelationRoundTrip checks ingest/decode is lossless up to the
// canonical rendering, including missing cells.
func TestColRelationRoundTrip(t *testing.T) {
	rel := NewRelation("w", NewSchema([]string{"id"}, []string{"v", "u"}))
	rel.Add(
		Tuple{"id": 1, "v": 0.5, "u": "a"},
		Tuple{"id": 2, "v": nil},
		Tuple{"id": int64(3), "u": false},
		Tuple{},
	)
	d := NewValueDict()
	cr := IngestRelation(rel, d)
	if cr.NumRows() != 4 {
		t.Fatalf("NumRows = %d, want 4", cr.NumRows())
	}
	back := cr.Decode(d)
	if rel.String() != back.String() {
		t.Fatalf("round trip diverged\nin:  %s\nout: %s", rel, back)
	}
	for i, tup := range back.Tuples {
		if _, ok := tup["u"]; ok && i == 1 {
			t.Fatal("missing cell materialized on decode")
		}
	}
}

// TestEquiJoinProbeAllocations is the regression test for the per-probe
// valueKey string rebuild the hash join used to do: probing must not allocate
// per input tuple. The join below probes 4096 tuples against a 64-entry index
// with zero matches, so output-side allocations cannot mask probe-side ones;
// with the old fmt.Sprintf keying this measured >4096 allocations.
func TestEquiJoinProbeAllocations(t *testing.T) {
	left := NewRelation("l", NewSchema([]string{"id"}, []string{"v"}))
	for k := 0; k < 4096; k++ {
		left.Add(Tuple{"id": k, "v": k})
	}
	right := NewRelation("r", NewSchema([]string{"id"}, []string{"w"}))
	for k := 0; k < 64; k++ {
		right.Add(Tuple{"id": 100000 + k, "w": k})
	}
	allocs := testing.AllocsPerRun(10, func() {
		out, err := left.EquiJoin(context.Background(), right, "id", "id")
		if err != nil {
			t.Fatal(err)
		}
		if out.Cardinality() != 0 {
			t.Fatalf("expected empty join, got %d rows", out.Cardinality())
		}
	})
	// Index build + result shell only; generous margin for runtime noise and
	// race-instrumented builds, but far below one allocation per probe.
	if allocs > 1024 {
		t.Fatalf("EquiJoin allocated %.0f times for 4096 probes; probe path is allocating per tuple", allocs)
	}
}

// TestEngineRepeatedAttributeName checks a wrapper whose schema repeats an
// attribute name: the repeated column is carried along physically and the
// name resolves to its first occurrence, as in the reference executor.
func TestEngineRepeatedAttributeName(t *testing.T) {
	dup := NewRelation("dup", Schema{Attributes: []Attribute{
		{Name: "id", ID: true}, {Name: "v"}, {Name: "v"}, {Name: "u"},
	}})
	dup.Add(Tuple{"id": 1, "v": "a", "u": "x"}, Tuple{"id": 2, "v": "b", "u": "y"})
	other := NewRelation("other", NewSchema([]string{"oid"}, []string{"w"}))
	other.Add(Tuple{"oid": 1, "w": "p"}, Tuple{"oid": 2, "w": "q"}, Tuple{"oid": 2, "w": "r"})
	rels := staticResolver{"dup": dup, "other": other}
	single := NewWalk("dup", "SD", "v", "u")
	joined := &Walk{
		Wrappers: []WrapperRef{
			{Wrapper: "other", Source: "SO", Projection: []string{"w"}},
			{Wrapper: "dup", Source: "SD", Projection: []string{"v", "u"}},
		},
		Joins: []JoinCondition{{LeftWrapper: "other", LeftAttr: "oid", RightWrapper: "dup", RightAttr: "id"}},
	}
	for name, w := range map[string]*Walk{"single": single, "joined": joined} {
		ref, refErr := w.ExecuteReference(context.Background(), rels)
		got, gotErr := w.Execute(context.Background(), rels)
		if refErr != nil || gotErr != nil {
			t.Fatalf("%s: unexpected errors: reference=%v engine=%v", name, refErr, gotErr)
		}
		if ref.String() != got.String() {
			t.Errorf("%s: repeated attribute name diverged\nreference:\n%s\nengine:\n%s", name, ref, got)
		}
	}
}
