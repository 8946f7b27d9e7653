package steward

import (
	"context"
	"testing"
	"testing/quick"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/wrapper"
)

func supersedeOntology(t *testing.T) *core.Ontology {
	t.Helper()
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNameSimilarity(t *testing.T) {
	cases := []struct {
		a, b string
		min  float64
		max  float64
	}{
		{"lagRatio", "lagRatio", 1, 1},
		{"lag_ratio", "lagRatio", 1, 1},
		{"VoDmonitorId", "monitorId", 0.7, 1},
		{"bufferingRatio", "lagRatio", 0.3, 0.7},
		{"tweet", "description", 0, 0.2},
		{"", "", 0, 0},
	}
	for _, c := range cases {
		got := NameSimilarity(c.a, c.b)
		if got < c.min || got > c.max {
			t.Errorf("similarity(%q, %q) = %.2f, want in [%.2f, %.2f]", c.a, c.b, got, c.min, c.max)
		}
	}
}

func TestNameSimilarityProperties(t *testing.T) {
	// Symmetry and boundedness.
	f := func(a, b string) bool {
		s1, s2 := NameSimilarity(a, b), NameSimilarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Identity: a name always matches itself perfectly (when non-empty after
	// normalization).
	if NameSimilarity("monitorId", "monitorId") != 1 {
		t.Error("identity similarity should be 1")
	}
}

func TestSuggestMappingsRunningExample(t *testing.T) {
	o := supersedeOntology(t)
	// The attributes of w4 (the evolved D1 schema): the steward should be
	// offered monitorId for VoDmonitorId; bufferingRatio has no close feature
	// name so it falls below the confidence threshold and is left to the
	// steward.
	suggestions := SuggestMappings(o.View(), []string{"VoDmonitorId", "bufferingRatio"}, 0.7)
	byAttr := map[string]MappingSuggestion{}
	for _, s := range suggestions {
		byAttr[s.Attribute] = s
	}
	vod, ok := byAttr["VoDmonitorId"]
	if !ok {
		t.Fatal("no suggestion for VoDmonitorId")
	}
	if vod.Feature != core.SupMonitorID {
		t.Errorf("VoDmonitorId suggested %v", vod.Feature)
	}
	if _, ok := byAttr["bufferingRatio"]; ok {
		t.Error("bufferingRatio should not get a high-confidence suggestion")
	}
	// With a lower threshold it is suggested (lagRatio shares the Ratio token).
	low := SuggestMappings(o.View(), []string{"bufferingRatio"}, 0.2)
	if len(low) != 1 || low[0].Feature != core.SupLagRatio {
		t.Errorf("low-threshold suggestion = %v", low)
	}
}

func TestSuggestSubgraphConnectsConcepts(t *testing.T) {
	o := supersedeOntology(t)
	s := SuggestSubgraph(o.View(), []rdf.IRI{core.SupApplicationID, core.SupLagRatio})
	if !s.Connected {
		t.Fatalf("subgraph should be connected:\n%s", s.Graph)
	}
	if len(s.Concepts) != 2 {
		t.Errorf("concepts = %v", s.Concepts)
	}
	// It must include both hasFeature edges and the path
	// SoftwareApplication -> Monitor -> InfoMonitor.
	if !s.Graph.Contains(rdf.T(core.SupSoftwareApplication, core.GHasFeature, core.SupApplicationID)) {
		t.Error("missing hasFeature edge for applicationId")
	}
	if !s.Graph.Contains(rdf.T(core.SupInfoMonitor, core.GHasFeature, core.SupLagRatio)) {
		t.Error("missing hasFeature edge for lagRatio")
	}
	if !s.Graph.Contains(rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor)) ||
		!s.Graph.Contains(rdf.T(core.SupMonitor, core.SupGeneratesQoS, core.SupInfoMonitor)) {
		t.Errorf("missing connecting path:\n%s", s.Graph)
	}
	// And it must be a valid LAV subgraph: contained in G.
	if !o.Store().Snapshot().NamedGraph(core.GlobalGraphName).Subsumes(s.Graph) {
		t.Error("suggested subgraph must be a subgraph of G")
	}
}

func TestSuggestSubgraphUnknownFeature(t *testing.T) {
	o := supersedeOntology(t)
	s := SuggestSubgraph(o.View(), []rdf.IRI{rdf.IRI("http://ex/unknown")})
	if s.Graph.Len() != 0 {
		t.Error("unknown features should produce an empty suggestion")
	}
}

func TestDraftReleaseIsAcceptedByAlgorithm1(t *testing.T) {
	o := supersedeOntology(t)
	spec := core.WrapperSpec{
		Name:            "w4",
		Source:          "D1",
		IDAttributes:    []string{"VoDmonitorId"},
		NonIDAttributes: []string{"bufferingRatio"},
	}
	draft, unmapped := DraftRelease(o, spec, 0.2)
	if len(unmapped) != 0 {
		t.Errorf("unmapped = %v", unmapped)
	}
	if draft.F["VoDmonitorId"] != core.SupMonitorID || draft.F["bufferingRatio"] != core.SupLagRatio {
		t.Errorf("draft F = %v", draft.F)
	}
	if _, err := o.NewRelease(draft); err != nil {
		t.Fatalf("draft release rejected by Algorithm 1: %v", err)
	}
	// The drafted release behaves like the hand-written one: the running
	// example query now has two walks.
	// (The rewriting package has its own tests; here we only check the LAV
	// graph registration took place.)
	if o.Store().GraphLen(core.MappingGraphURI("w4")) == 0 {
		t.Error("LAV graph for the drafted release missing")
	}
}

func TestDraftReleaseReportsUnmappedAttributes(t *testing.T) {
	o := supersedeOntology(t)
	spec := core.WrapperSpec{
		Name:            "w9",
		Source:          "D9",
		IDAttributes:    []string{"completelyCrypticAttr"},
		NonIDAttributes: []string{"zzz"},
	}
	_, unmapped := DraftRelease(o, spec, 0.9)
	if len(unmapped) != 2 {
		t.Errorf("unmapped = %v", unmapped)
	}
}

func TestCheckDatatypes(t *testing.T) {
	o := supersedeOntology(t)
	// lagRatio is declared xsd:double, monitorId xsd:integer. Build a wrapper
	// with one good row and two bad ones.
	w := wrapper.NewMemory("w1", "D1",
		relational.NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}),
		[]relational.Tuple{
			{"VoDmonitorId": 12, "lagRatio": 0.75},          // ok
			{"VoDmonitorId": "twelve", "lagRatio": 0.5},     // bad integer
			{"VoDmonitorId": 13, "lagRatio": "not a ratio"}, // bad double
			{"VoDmonitorId": 14, "lagRatio": nil},           // nil skipped
		})
	violations, err := CheckDatatypes(context.Background(), o, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 2 {
		t.Fatalf("violations = %v", violations)
	}
	for _, v := range violations {
		if v.Wrapper != "w1" || v.Datatype == "" || v.Feature == "" {
			t.Errorf("incomplete violation report %+v", v)
		}
	}
	// Integer-valued floats (as produced by JSON decoding) are accepted for
	// xsd:integer features.
	wOK := wrapper.NewMemory("w3", "D3",
		relational.NewSchema([]string{"TargetApp", "MonitorId", "FeedbackId"}, nil),
		[]relational.Tuple{{"TargetApp": float64(1), "MonitorId": float64(12), "FeedbackId": float64(77)}})
	violations, err = CheckDatatypes(context.Background(), o, wOK)
	if err != nil || len(violations) != 0 {
		t.Errorf("JSON-style integers should validate: %v, %v", violations, err)
	}
}

func TestValueMatchesDatatypeCases(t *testing.T) {
	cases := []struct {
		v    relational.Value
		dt   rdf.IRI
		want bool
	}{
		{"x", rdf.XSDString, true},
		{1, rdf.XSDString, false},
		{true, rdf.XSDBoolean, true},
		{"true", rdf.XSDBoolean, false},
		{3, rdf.XSDInteger, true},
		{3.5, rdf.XSDInteger, false},
		{3.0, rdf.XSDInteger, true},
		{3.5, rdf.XSDDouble, true},
		{"3.5", rdf.XSDDouble, false},
		{"anything", rdf.IRI("http://ex/customType"), true},
	}
	for _, c := range cases {
		if got := valueMatchesDatatype(c.v, c.dt); got != c.want {
			t.Errorf("valueMatchesDatatype(%v, %v) = %v, want %v", c.v, c.dt, got, c.want)
		}
	}
}
