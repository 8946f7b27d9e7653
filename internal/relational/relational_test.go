package relational

import (
	"context"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// The wrappers of Table 1 in the paper.
func w1Relation() *Relation {
	r := NewRelation("w1", NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}))
	r.Add(
		Tuple{"VoDmonitorId": 12, "lagRatio": 0.75},
		Tuple{"VoDmonitorId": 12, "lagRatio": 0.90},
		Tuple{"VoDmonitorId": 18, "lagRatio": 0.1},
	)
	return r
}

func w3Relation() *Relation {
	r := NewRelation("w3", NewSchema([]string{"TargetApp", "MonitorId", "FeedbackId"}, nil))
	r.Add(
		Tuple{"TargetApp": 1, "MonitorId": 12, "FeedbackId": 77},
		Tuple{"TargetApp": 2, "MonitorId": 18, "FeedbackId": 45},
	)
	return r
}

// staticResolver is a source without native projection: it holds full
// wrapper outputs and answers every fetch through the shared Pushdown.Apply
// helper.
type staticResolver map[string]*Relation

func (s staticResolver) Fetch(_ context.Context, w string, p Pushdown, d *ValueDict) (*ColRelation, error) {
	r, ok := s[w]
	if !ok {
		return nil, errNotFound(w)
	}
	return p.Apply(r.Name, r.Schema, slices.Values(r.Tuples), d), nil
}

type errNotFound string

func (e errNotFound) Error() string { return "not found: " + string(e) }

func TestSchemaBasics(t *testing.T) {
	s := NewSchema([]string{"id"}, []string{"a", "b"})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Names()) != 3 || len(s.IDNames()) != 1 || len(nonIDNames(s)) != 2 {
		t.Errorf("unexpected name partitions: %v %v %v", s.Names(), s.IDNames(), nonIDNames(s))
	}
	if !s.IsID("id") || s.IsID("a") || s.IsID("absent") {
		t.Error("IsID misbehaves")
	}
	if !s.Has("b") || s.Has("absent") {
		t.Error("Has misbehaves")
	}
	proj := s.Project([]string{"b", "absent"})
	if len(proj.Attributes) != 1 {
		t.Errorf("projection = %v", proj)
	}
	merged := s.Merge(NewSchema([]string{"id"}, []string{"c"}))
	if len(merged.Attributes) != 4 {
		t.Errorf("merged = %v", merged)
	}
	if !s.Equal(NewSchema([]string{"id"}, []string{"b", "a"})) {
		t.Error("Equal should be order-insensitive")
	}
	if !strings.Contains(s.String(), "id*") {
		t.Errorf("String should mark IDs: %s", s)
	}
}

func TestSchemaValidateErrors(t *testing.T) {
	bad := Schema{Attributes: []Attribute{{Name: "a"}, {Name: "a"}}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate attributes should be invalid")
	}
	empty := Schema{Attributes: []Attribute{{Name: ""}}}
	if err := empty.Validate(); err == nil {
		t.Error("empty attribute name should be invalid")
	}
}

func TestRestrictedProjectionKeepsIDs(t *testing.T) {
	r := w1Relation()
	p := r.Project([]string{"lagRatio"})
	if !p.Schema.Has("VoDmonitorId") {
		t.Error("Π̃ must keep ID attributes")
	}
	if !p.Schema.Has("lagRatio") {
		t.Error("projected attribute missing")
	}
	strict := r.StrictProject([]string{"lagRatio"})
	if strict.Schema.Has("VoDmonitorId") {
		t.Error("strict projection should drop IDs")
	}
}

func TestEquiJoinRestrictedToIDs(t *testing.T) {
	w1, w3 := w1Relation(), w3Relation()
	// Valid: both are IDs.
	joined, err := w1.EquiJoin(context.Background(), w3, "VoDmonitorId", "MonitorId")
	if err != nil {
		t.Fatal(err)
	}
	if joined.Cardinality() != 3 {
		t.Errorf("join cardinality = %d, want 3", joined.Cardinality())
	}
	// lagRatio is not an ID: the restricted join must refuse it.
	if _, err := w1.EquiJoin(context.Background(), w3, "lagRatio", "MonitorId"); err == nil {
		t.Error(".̃/ must reject non-ID attributes on the left")
	}
	if _, err := w3.EquiJoin(context.Background(), w1, "MonitorId", "lagRatio"); err == nil {
		t.Error(".̃/ must reject non-ID attributes on the right")
	}
}

func TestJoinProducesTable2(t *testing.T) {
	// Π_{TargetApp, lagRatio}(w1 ⋈ w3) must reproduce Table 2 of the paper.
	joined, err := w1Relation().EquiJoin(context.Background(), w3Relation(), "VoDmonitorId", "MonitorId")
	if err != nil {
		t.Fatal(err)
	}
	result := joined.StrictProject([]string{"TargetApp", "lagRatio"})
	want := map[string]bool{"1|0.75": true, "1|0.9": true, "2|0.1": true}
	if result.Cardinality() != 3 {
		t.Fatalf("cardinality = %d\n%s", result.Cardinality(), result)
	}
	for _, tup := range result.Tuples {
		k := valueKey(tup["TargetApp"])[1:] + "|" + strings.TrimLeft(valueKey(tup["lagRatio"]), "if")
		if !want[k] {
			t.Errorf("unexpected tuple %v (key %s)", tup, k)
		}
	}
}

func TestUnionDistinctRename(t *testing.T) {
	a := NewRelation("a", NewSchema(nil, []string{"x"}))
	a.Add(Tuple{"x": 1}, Tuple{"x": 2})
	b := NewRelation("b", NewSchema(nil, []string{"x"}))
	b.Add(Tuple{"x": 2}, Tuple{"x": 3})
	u := a.Union(b)
	if u.Cardinality() != 4 {
		t.Errorf("union cardinality = %d", u.Cardinality())
	}
	if u.Distinct().Cardinality() != 3 {
		t.Errorf("distinct cardinality = %d", u.Distinct().Cardinality())
	}
	renamed := a.Rename(map[string]string{"x": "y"})
	if !renamed.Schema.Has("y") || renamed.Schema.Has("x") {
		t.Error("rename failed")
	}
	if _, ok := renamed.Tuples[0]["y"]; !ok {
		t.Error("tuple keys not renamed")
	}
}

func TestValuesEqualCrossTypes(t *testing.T) {
	if !ValuesEqual(12, float64(12)) {
		t.Error("12 and 12.0 should be equal across sources")
	}
	if !ValuesEqual(int64(5), 5) {
		t.Error("int64 and int should compare equal")
	}
	if ValuesEqual("12", nil) {
		t.Error("string and nil should differ")
	}
	if !ValuesEqual(nil, nil) {
		t.Error("nils should be equal")
	}
}

func TestWalkConstructionAndValidation(t *testing.T) {
	w := NewWalk("w1", "D1", "D1/lagRatio")
	w.AddWrapper(WrapperRef{Wrapper: "w3", Source: "D3", Projection: []string{"D3/TargetApp"}})
	w.AddJoin(JoinCondition{LeftWrapper: "w3", LeftAttr: "D3/MonitorId", RightWrapper: "w1", RightAttr: "D1/VoDmonitorId"})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.WrapperNames()) != 2 || !w.HasWrapper("w1") {
		t.Errorf("wrappers = %v", w.WrapperNames())
	}
	if w.Signature() != "w1|w3" {
		t.Errorf("signature = %q", w.Signature())
	}
	if !strings.Contains(w.String(), "⋈") {
		t.Errorf("String = %q", w.String())
	}
	// Same source twice is invalid (schema versions must not be joined).
	bad := NewWalk("w1", "D1", "a")
	bad.AddWrapper(WrapperRef{Wrapper: "w4", Source: "D1"})
	if err := bad.Validate(); err == nil {
		t.Error("walk joining two versions of the same source must be invalid")
	}
	// Join over a wrapper not in the walk.
	bad2 := NewWalk("w1", "D1", "a")
	bad2.AddJoin(JoinCondition{LeftWrapper: "w9", LeftAttr: "x", RightWrapper: "w1", RightAttr: "a"})
	if err := bad2.Validate(); err == nil {
		t.Error("join over unknown wrapper must be invalid")
	}
	empty := &Walk{}
	if err := empty.Validate(); err == nil {
		t.Error("empty walk must be invalid")
	}
}

func TestWalkMergeAndEquivalence(t *testing.T) {
	a := NewWalk("w1", "D1", "D1/lagRatio")
	b := NewWalk("w3", "D3", "D3/TargetApp")
	merged := a.Merge(b)
	if len(merged.WrapperNames()) != 2 {
		t.Errorf("merged wrappers = %v", merged.WrapperNames())
	}
	// Merging again with the same wrapper unions projections.
	c := NewWalk("w1", "D1", "D1/VoDmonitorId")
	merged2 := merged.Merge(c)
	ref, _ := merged2.Ref("w1")
	if len(ref.Projection) != 2 {
		t.Errorf("projection union = %v", ref.Projection)
	}
	// Equivalent walks join the same wrappers; their signature says so.
	if merged.Signature() != merged2.Signature() {
		t.Error("walks over the same wrappers are equivalent")
	}
	if a.Signature() == b.Signature() {
		t.Error("different wrapper sets are not equivalent")
	}
	// Original walks are unchanged (Merge is pure).
	if len(a.WrapperNames()) != 1 {
		t.Error("Merge must not mutate its receiver")
	}
}

func TestWalkExecuteSingleWrapper(t *testing.T) {
	resolver := staticResolver{"w1": w1Relation()}
	w := NewWalk("w1", "D1", "lagRatio")
	rel, err := w.Execute(context.Background(), resolver)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 3 {
		t.Errorf("cardinality = %d", rel.Cardinality())
	}
	if !rel.Schema.Has("VoDmonitorId") {
		t.Error("restricted projection must keep the ID")
	}
}

func TestWalkExecuteJoin(t *testing.T) {
	resolver := staticResolver{"w1": w1Relation(), "w3": w3Relation()}
	w := NewWalk("w1", "D1", "lagRatio")
	w.AddWrapper(WrapperRef{Wrapper: "w3", Source: "D3", Projection: []string{"TargetApp"}})
	w.AddJoin(JoinCondition{LeftWrapper: "w3", LeftAttr: "MonitorId", RightWrapper: "w1", RightAttr: "VoDmonitorId"})
	rel, err := w.Execute(context.Background(), resolver)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 3 {
		t.Fatalf("cardinality = %d\n%s", rel.Cardinality(), rel)
	}
}

func TestWalkExecuteErrors(t *testing.T) {
	resolver := staticResolver{"w1": w1Relation(), "w3": w3Relation()}
	// Unknown wrapper.
	missing := NewWalk("nope", "DX", "a")
	if _, err := missing.Execute(context.Background(), resolver); err == nil {
		t.Error("expected error for unknown wrapper")
	}
	// Disconnected walk (two wrappers, no join).
	disconnected := NewWalk("w1", "D1", "lagRatio")
	disconnected.AddWrapper(WrapperRef{Wrapper: "w3", Source: "D3", Projection: []string{"TargetApp"}})
	if _, err := disconnected.Execute(context.Background(), resolver); err == nil {
		t.Error("expected error for disconnected walk")
	}
}

func TestUCQAddDeduplicatesEquivalentWalks(t *testing.T) {
	u := NewUCQ()
	a := NewWalk("w1", "D1", "x")
	b := NewWalk("w1", "D1", "y")
	u.Add(a)
	u.Add(b)
	if u.Len() != 1 {
		t.Errorf("UCQ should deduplicate equivalent walks, len = %d", u.Len())
	}
	u.Add(NewWalk("w2", "D2", "z"))
	if u.Len() != 2 {
		t.Errorf("len = %d", u.Len())
	}
	if len(u.Signatures()) != 2 {
		t.Error("signatures mismatch")
	}
	if !strings.Contains(u.String(), "∪") {
		t.Errorf("String = %q", u.String())
	}
	if NewUCQ().String() != "∅" {
		t.Error("empty UCQ should render ∅")
	}
}

func TestUCQExecuteUnion(t *testing.T) {
	// Simulates the evolved scenario: w1 provides lagRatio, w4 provides
	// bufferingRatio; both join with w3.
	w4 := NewRelation("w4", NewSchema([]string{"VoDmonitorId"}, []string{"bufferingRatio"}))
	w4.Add(Tuple{"VoDmonitorId": 18, "bufferingRatio": 0.2})
	resolver := staticResolver{"w1": w1Relation(), "w3": w3Relation(), "w4": w4}

	walk1 := NewWalk("w1", "D1", "lagRatio")
	walk1.AddWrapper(WrapperRef{Wrapper: "w3", Source: "D3", Projection: []string{"TargetApp"}})
	walk1.AddJoin(JoinCondition{LeftWrapper: "w3", LeftAttr: "MonitorId", RightWrapper: "w1", RightAttr: "VoDmonitorId"})

	walk2 := NewWalk("w4", "D1", "bufferingRatio")
	walk2.AddWrapper(WrapperRef{Wrapper: "w3", Source: "D3", Projection: []string{"TargetApp"}})
	walk2.AddJoin(JoinCondition{LeftWrapper: "w3", LeftAttr: "MonitorId", RightWrapper: "w4", RightAttr: "VoDmonitorId"})

	u := NewUCQ()
	u.Add(walk1)
	u.Add(walk2)
	u.RequestedAttributes = []string{"TargetApp", "lagRatio", "bufferingRatio"}
	rel, err := u.Execute(context.Background(), resolver)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 4 {
		t.Fatalf("cardinality = %d, want 4 (3 from w1 + 1 from w4)\n%s", rel.Cardinality(), rel)
	}
	empty, err := NewUCQ().Execute(context.Background(), resolver)
	if err != nil || empty.Cardinality() != 0 {
		t.Errorf("empty UCQ execute = %v, %v", empty, err)
	}
}

// Property: the restricted projection never drops ID attributes and never
// increases cardinality.
func TestProjectionProperty(t *testing.T) {
	f := func(keepLag bool) bool {
		r := w1Relation()
		var names []string
		if keepLag {
			names = append(names, "lagRatio")
		}
		p := r.Project(names)
		return p.Schema.Has("VoDmonitorId") && p.Cardinality() == r.Cardinality()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: join cardinality is bounded by the product of the inputs, and
// every joined tuple agrees on the join attributes.
func TestJoinProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		left := NewRelation("l", NewSchema([]string{"id"}, []string{"v"}))
		right := NewRelation("r", NewSchema([]string{"id"}, []string{"w"}))
		for i, id := range ids {
			if i%2 == 0 {
				left.Add(Tuple{"id": int(id % 8), "v": i})
			} else {
				right.Add(Tuple{"id": int(id % 8), "w": i})
			}
		}
		j, err := left.EquiJoin(context.Background(), right, "id", "id")
		if err != nil {
			return false
		}
		if j.Cardinality() > left.Cardinality()*right.Cardinality() {
			return false
		}
		for _, tup := range j.Tuples {
			if tup["id"] == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
