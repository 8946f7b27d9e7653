package workload

import (
	"context"
	"testing"

	"bdi/internal/core"
	"bdi/internal/relational"
	"bdi/internal/rewriting"
	"bdi/internal/wrapper"
)

func TestBuildWorstCaseStructure(t *testing.T) {
	wc, err := BuildWorstCase(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(wc.Ontology.View().Concepts()) != 3 {
		t.Errorf("concepts = %d", len(wc.Ontology.View().Concepts()))
	}
	if len(wc.Ontology.Wrappers()) != 6 {
		t.Errorf("wrappers = %d", len(wc.Ontology.Wrappers()))
	}
	if wc.Registry.Len() != 6 {
		t.Errorf("registry = %d", wc.Registry.Len())
	}
	if wc.ExpectedWalks() != 8 {
		t.Errorf("expected walks = %d", wc.ExpectedWalks())
	}
}

func TestWorstCaseRewriteProducesWToTheC(t *testing.T) {
	cases := []struct{ c, w int }{
		{2, 1}, {2, 3}, {3, 2}, {3, 3}, {5, 2},
	}
	for _, cs := range cases {
		wc, err := BuildWorstCase(cs.c, cs.w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wc.Rewrite()
		if err != nil {
			t.Fatalf("C=%d W=%d: %v", cs.c, cs.w, err)
		}
		if got != wc.ExpectedWalks() {
			t.Errorf("C=%d W=%d: walks = %d, want %d", cs.c, cs.w, got, wc.ExpectedWalks())
		}
	}
}

func TestWorstCaseWalksAreExecutable(t *testing.T) {
	wc, err := BuildWorstCase(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rewriting.NewRewriter(wc.Ontology)
	res, err := r.Rewrite(wc.Query)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := r.ExecuteResultLimit(context.Background(), res, wrapper.NewQualifiedResolver(wc.Registry), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.UCQ.Len() != 8 {
		t.Errorf("walks = %d", res.UCQ.Len())
	}
	// Each wrapper has 3 aligned tuples; every walk yields the same 3 rows,
	// so the distinct union has 3 tuples with one column per value feature.
	if answer.Cardinality() != 3 {
		t.Errorf("answer cardinality = %d\n%s", answer.Cardinality(), answer)
	}
	if len(answer.Schema.Attributes) != 3 {
		t.Errorf("answer schema = %v", answer.Schema)
	}
}

func TestBuildWorstCaseRejectsBadArguments(t *testing.T) {
	if _, err := BuildWorstCase(0, 3); err == nil {
		t.Error("zero concepts must fail")
	}
	if _, err := BuildWorstCase(3, 0); err == nil {
		t.Error("zero wrappers must fail")
	}
}

func TestWordpressTraceShape(t *testing.T) {
	releases := WordpressPostsTrace()
	if len(releases) != 15 {
		t.Fatalf("releases = %d, want 15 (v1, v2 and 13 minor)", len(releases))
	}
	if !releases[0].Major || !releases[1].Major {
		t.Error("v1 and v2 must be major releases")
	}
	for _, r := range releases[2:] {
		if r.Major {
			t.Errorf("%s should be a minor release", r.Version)
		}
	}
	// v1 uses "ID", v2 onwards use "id".
	if releases[0].IDAttributes[0] != "ID" || releases[1].IDAttributes[0] != "id" {
		t.Error("identifier attribute rename between v1 and v2 missing")
	}
	// Minor releases change only a handful of attributes each.
	for i := 2; i < len(releases); i++ {
		diff := len(releases[i].AllAttributes()) - len(releases[i-1].AllAttributes())
		if diff > 2 || diff < -2 {
			t.Errorf("%s changes too many attributes (%d)", releases[i].Version, diff)
		}
	}
}

func TestSimulateWordpressGrowth(t *testing.T) {
	releases := WordpressPostsTrace()
	o, points, err := SimulateWordpressGrowth(releases, WordpressGrowthOptions{ReuseAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(releases) {
		t.Fatalf("points = %d", len(points))
	}
	// v1 carries the big initial batch; v2 is a major bump; minor releases
	// add a small, steady number of triples (Figure 11's shape).
	v1, v2 := points[0], points[1]
	if v1.SourceTriplesAdded <= v2.SourceTriplesAdded {
		t.Errorf("v1 (%d) should add more triples than v2 (%d)? (v1 registers the full schema)",
			v1.SourceTriplesAdded, v2.SourceTriplesAdded)
	}
	maxMinor := 0
	for _, p := range points[2:] {
		if p.SourceTriplesAdded > maxMinor {
			maxMinor = p.SourceTriplesAdded
		}
		if p.SourceTriplesAdded <= 0 {
			t.Errorf("%s added no triples", p.Version)
		}
	}
	if maxMinor >= v2.SourceTriplesAdded {
		t.Errorf("minor releases (max %d) should add fewer triples than the major v2 (%d)", maxMinor, v2.SourceTriplesAdded)
	}
	// Cumulative growth is monotone and matches the ontology state.
	for i := 1; i < len(points); i++ {
		if points[i].CumulativeTriples <= points[i-1].CumulativeTriples {
			t.Error("cumulative growth must be strictly increasing")
		}
	}
	if points[len(points)-1].CumulativeTriples != o.TriplesInSource()-core.NewOntology().TriplesInSource() {
		t.Error("cumulative total inconsistent with the ontology")
	}
	// Attribute reuse: minor releases reuse most attributes.
	if points[3].ReusedAttributes == 0 {
		t.Error("minor releases should reuse attributes of the same source")
	}
}

func TestSimulateWordpressGrowthWithoutReuse(t *testing.T) {
	releases := WordpressPostsTrace()
	_, reuse, err := SimulateWordpressGrowth(releases, WordpressGrowthOptions{ReuseAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	_, noReuse, err := SimulateWordpressGrowth(releases, WordpressGrowthOptions{ReuseAttributes: false})
	if err != nil {
		t.Fatal(err)
	}
	totalReuse := reuse[len(reuse)-1].CumulativeTriples
	totalNoReuse := noReuse[len(noReuse)-1].CumulativeTriples
	if totalNoReuse <= totalReuse {
		t.Errorf("disabling attribute reuse must grow S faster: %d vs %d", totalNoReuse, totalReuse)
	}
}

func TestSupersedeTable1Registry(t *testing.T) {
	reg := SupersedeTable1Registry(false)
	if reg.Len() != 3 {
		t.Errorf("registry = %d", reg.Len())
	}
	rel, err := fetched(reg, "w1")
	if err != nil || rel.Cardinality() != 3 {
		t.Errorf("w1 = %v, %v", rel, err)
	}
	regEvo := SupersedeTable1Registry(true)
	if regEvo.Len() != 4 {
		t.Errorf("registry with evolution = %d", regEvo.Len())
	}
}

func TestSupersedeScaledRegistryDeterministic(t *testing.T) {
	a := SupersedeScaledRegistry(10, 5, 42, true)
	b := SupersedeScaledRegistry(10, 5, 42, true)
	relA, _ := fetched(a, "w1")
	relB, _ := fetched(b, "w1")
	if relA.Cardinality() != relB.Cardinality() {
		t.Error("same seed must produce the same data")
	}
	if relA.Cardinality() == 0 {
		t.Error("scaled registry should contain VoD events")
	}
	w3, _ := fetched(a, "w3")
	if w3.Cardinality() != 10 {
		t.Errorf("w3 cardinality = %d, want 10", w3.Cardinality())
	}
	// Evolution splits the events across w1 (odd apps) and w4 (even apps).
	w4, _ := fetched(a, "w4")
	if w4.Cardinality() == 0 {
		t.Error("w4 should hold the even applications' events")
	}
}

// fetched fetches a wrapper into a dictionary of its own and decodes its
// output.
func fetched(r relational.WrapperResolver, name string) (*relational.Relation, error) {
	d := relational.NewValueDict()
	c, err := r.Fetch(context.Background(), name, relational.Pushdown{}, d)
	if err != nil {
		return nil, err
	}
	return c.Decode(d), nil
}
