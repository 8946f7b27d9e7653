package evolution

import (
	"math"
	"strings"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
)

func TestCatalogCoversTables3To5(t *testing.T) {
	// Table 3 has 7 rows, Table 4 has 8, Table 5 has 6.
	if got := len(ByLevel(APILevel)); got != 7 {
		t.Errorf("API-level changes = %d, want 7", got)
	}
	if got := len(ByLevel(MethodLevel)); got != 8 {
		t.Errorf("method-level changes = %d, want 8", got)
	}
	if got := len(ByLevel(ParameterLevel)); got != 6 {
		t.Errorf("parameter-level changes = %d, want 6", got)
	}
	if len(Catalog()) != 21 {
		t.Errorf("catalog size = %d, want 21", len(Catalog()))
	}
}

func TestClassificationMatchesPaperTables(t *testing.T) {
	// Spot-check the component assignment of Tables 3-5.
	cases := []struct {
		kind    ChangeKind
		handler Handler
		level   Level
	}{
		{AddAuthenticationModel, HandledByWrapper, APILevel},
		{ChangeResourceURL, HandledByWrapper, APILevel},
		{AddResponseFormat, HandledByOntology, APILevel},
		{DeleteResponseFormat, HandledByOntology, APILevel},
		{AddMethod, HandledByBoth, MethodLevel},
		{ChangeMethodName, HandledByBoth, MethodLevel},
		{ChangeResponseFormatMethod, HandledByOntology, MethodLevel},
		{AddErrorCode, HandledByWrapper, MethodLevel},
		{RenameResponseParameter, HandledByOntology, ParameterLevel},
		{ChangeFormatOrType, HandledByOntology, ParameterLevel},
		{AddParameter, HandledByBoth, ParameterLevel},
		{DeleteParameter, HandledByBoth, ParameterLevel},
		{ChangeRequireType, HandledByWrapper, ParameterLevel},
	}
	for _, c := range cases {
		got, ok := Classify(c.kind)
		if !ok {
			t.Errorf("%s: not in catalog", c.kind)
			continue
		}
		if got.Handler != c.handler {
			t.Errorf("%s: handler = %v, want %v", c.kind, got.Handler, c.handler)
		}
		if got.Level != c.level {
			t.Errorf("%s: level = %v, want %v", c.kind, got.Level, c.level)
		}
		if got.Action == "" {
			t.Errorf("%s: missing action description", c.kind)
		}
	}
	if _, ok := Classify("Unknown change"); ok {
		t.Error("unknown change kind should not classify")
	}
}

func TestHandlerPredicatesAndStrings(t *testing.T) {
	if !HandledByBoth.InvolvesWrapper() || !HandledByBoth.InvolvesOntology() {
		t.Error("Both must involve both components")
	}
	if HandledByWrapper.InvolvesOntology() || HandledByOntology.InvolvesWrapper() {
		t.Error("single-component handlers misreport")
	}
	for _, h := range []Handler{HandledByWrapper, HandledByOntology, HandledByBoth} {
		if h.String() == "" {
			t.Error("empty handler name")
		}
	}
	for _, l := range []Level{APILevel, MethodLevel, ParameterLevel} {
		if !strings.Contains(l.String(), "level") {
			t.Errorf("level string = %q", l)
		}
	}
}

func TestSummarize(t *testing.T) {
	changes := []Change{
		{Kind: AddParameter, API: "x"},
		{Kind: AddParameter, API: "x"},
		{Kind: RenameResponseParameter, API: "x"},
		{Kind: ChangeResourceURL, API: "x"},
		{Kind: "Bogus", API: "x"},
	}
	s := Summarize(changes)
	if s.Total != 5 || s.Both != 2 || s.OntologyOnly != 1 || s.WrapperOnly != 1 || s.Unknown != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.ByKind[AddParameter] != 2 {
		t.Errorf("by kind = %v", s.ByKind)
	}
	if empty := Summarize(nil); empty.Total != 0 || len(empty.ByKind) != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestTable6ProfilesMatchPaper(t *testing.T) {
	profiles := Table6Profiles()
	if len(profiles) != 5 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	byName := map[string]APIProfile{}
	for _, p := range profiles {
		byName[p.Name] = p
	}
	// Table 6 row checks.
	gc := byName["Google Calendar"]
	if math.Abs(gc.PartiallyAccommodated()-48.94) > 0.01 || math.Abs(gc.FullyAccommodated()-51.06) > 0.01 {
		t.Errorf("Google Calendar = %.2f%% / %.2f%%", gc.PartiallyAccommodated(), gc.FullyAccommodated())
	}
	gg := byName["Google Gadgets"]
	if math.Abs(gg.PartiallyAccommodated()-78.95) > 0.01 || math.Abs(gg.FullyAccommodated()-15.79) > 0.01 {
		t.Errorf("Google Gadgets = %.2f%% / %.2f%%", gg.PartiallyAccommodated(), gg.FullyAccommodated())
	}
	mws := byName["Amazon MWS"]
	if math.Abs(mws.PartiallyAccommodated()-19.44) > 0.01 || math.Abs(mws.FullyAccommodated()-50.0) > 0.01 {
		t.Errorf("Amazon MWS = %.2f%% / %.2f%%", mws.PartiallyAccommodated(), mws.FullyAccommodated())
	}
	tw := byName["Twitter API"]
	if math.Abs(tw.PartiallyAccommodated()-48.08) > 0.01 || tw.FullyAccommodated() != 0 {
		t.Errorf("Twitter = %.2f%% / %.2f%%", tw.PartiallyAccommodated(), tw.FullyAccommodated())
	}
	sw := byName["Sina Weibo"]
	if math.Abs(sw.PartiallyAccommodated()-59.57) > 0.01 || math.Abs(sw.FullyAccommodated()-3.19) > 0.01 {
		t.Errorf("Sina Weibo = %.2f%% / %.2f%%", sw.PartiallyAccommodated(), sw.FullyAccommodated())
	}
}

func TestTable6AggregatesMatchPaper(t *testing.T) {
	// §6.3: on average the ontology partially accommodates 48.84% of changes,
	// fully accommodates 22.77%, i.e. 71.62% in total (weighted over all
	// changes of the five APIs).
	rep := Applicability(Table6Profiles())
	if math.Abs(rep.AggregatePartially-48.84) > 0.1 {
		t.Errorf("aggregate partially = %.2f, want ≈48.84", rep.AggregatePartially)
	}
	if math.Abs(rep.AggregateFully-22.77) > 0.1 {
		t.Errorf("aggregate fully = %.2f, want ≈22.77", rep.AggregateFully)
	}
	if math.Abs(rep.AggregateTotal-71.62) > 0.2 {
		t.Errorf("aggregate total = %.2f, want ≈71.62", rep.AggregateTotal)
	}
	if !strings.Contains(rep.String(), "Google Calendar") {
		t.Error("report rendering incomplete")
	}
	empty := Applicability(nil)
	if empty.AggregateTotal != 0 {
		t.Error("empty report should have zero aggregates")
	}
}

func TestChangesFromProfileRoundTrip(t *testing.T) {
	for _, p := range Table6Profiles() {
		s := Summarize(ChangesFromProfile(p))
		if s.WrapperOnly != p.WrapperOnly || s.OntologyOnly != p.OntologyOnly || s.Both != p.WrapperOntology {
			t.Errorf("%s: summary %+v does not reproduce profile %+v", p.Name, s, p)
		}
	}
}

func TestSchemaDiff(t *testing.T) {
	oldAttrs := []string{"monitorId", "waitTime", "watchTime", "bitrate"}
	newAttrs := []string{"monitorId", "bufferingTime", "playbackTime", "qualityScore"}
	renames := map[string]string{"waitTime": "bufferingTime", "watchTime": "playbackTime"}
	changes := SchemaDiff(oldAttrs, newAttrs, renames)
	kinds := map[ChangeKind]int{}
	for _, c := range changes {
		kinds[c.Kind]++
	}
	if kinds[RenameResponseParameter] != 2 {
		t.Errorf("renames = %d, want 2 (%v)", kinds[RenameResponseParameter], changes)
	}
	if kinds[DeleteParameter] != 1 {
		t.Errorf("deletes = %d, want 1 (bitrate)", kinds[DeleteParameter])
	}
	if kinds[AddParameter] != 1 {
		t.Errorf("adds = %d, want 1 (qualityScore)", kinds[AddParameter])
	}
	// Without rename hints, renames degrade into delete+add pairs.
	noHints := SchemaDiff(oldAttrs, newAttrs, nil)
	kinds = map[ChangeKind]int{}
	for _, c := range noHints {
		kinds[c.Kind]++
	}
	if kinds[DeleteParameter] != 3 || kinds[AddParameter] != 3 {
		t.Errorf("no-hint diff = %v", noHints)
	}
	// Identical schemas produce no changes.
	if len(SchemaDiff(oldAttrs, oldAttrs, nil)) != 0 {
		t.Error("identical schemas should not differ")
	}
	// String rendering.
	if !strings.Contains(changes[0].String(), "->") && !strings.Contains(changes[0].String(), ":") {
		t.Errorf("change string = %q", changes[0])
	}
}

func TestDeriveReleaseCarriesMappings(t *testing.T) {
	prev := core.SupersedeReleaseW1()
	changes := []AttributeChange{
		{Kind: RenameResponseParameter, Attribute: "lagRatio", RenamedTo: "bufferingRatio"},
	}
	next, unresolved := DeriveRelease(prev, "w4", changes, nil)
	if len(unresolved) != 0 {
		t.Errorf("unresolved = %v", unresolved)
	}
	if next.Wrapper.Name != "w4" || next.Wrapper.Source != "D1" {
		t.Errorf("wrapper spec = %+v", next.Wrapper)
	}
	if next.F["bufferingRatio"] != core.SupLagRatio {
		t.Errorf("renamed attribute should keep its feature mapping: %v", next.F)
	}
	if _, stillThere := next.F["lagRatio"]; stillThere {
		t.Error("old attribute mapping should be removed")
	}
	// The derived release is accepted by Algorithm 1 and reproduces the
	// paper's manual w4 definition.
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.NewRelease(next); err != nil {
		t.Fatalf("derived release rejected: %v", err)
	}
	if attr, ok := o.View().AttributeOfFeatureInWrapper(core.WrapperURI("w4"), core.SupLagRatio); !ok ||
		core.AttributeName(attr) != "D1/bufferingRatio" {
		t.Errorf("derived mapping wrong: %v %v", attr, ok)
	}
}

func TestDeriveReleaseAdditionsAndDeletions(t *testing.T) {
	prev := core.SupersedeReleaseW1()
	newFeature := rdf.IRI(core.NSSupersede + "bitrate")
	changes := []AttributeChange{
		{Kind: AddParameter, Attribute: "bitrate"},
		{Kind: DeleteParameter, Attribute: "lagRatio"},
		{Kind: AddParameter, Attribute: "unmappedExtra"},
	}
	next, unresolved := DeriveRelease(prev, "w5", changes, map[string]rdf.IRI{"bitrate": newFeature})
	if len(unresolved) != 1 || unresolved[0].Attribute != "unmappedExtra" {
		t.Errorf("unresolved = %v", unresolved)
	}
	if _, ok := next.F["lagRatio"]; ok {
		t.Error("deleted attribute should not be mapped")
	}
	if next.F["bitrate"] != newFeature {
		t.Error("added attribute mapping missing")
	}
	found := false
	for _, a := range next.Wrapper.NonIDAttributes {
		if a == "unmappedExtra" {
			found = true
		}
	}
	if !found {
		t.Error("added attribute should appear in the wrapper spec even if unmapped")
	}
	for _, a := range next.Wrapper.NonIDAttributes {
		if a == "lagRatio" {
			t.Error("deleted attribute should be removed from the spec")
		}
	}
}
