package bdi

// Integration tests: the full pipeline from simulated HTTP providers through
// wrappers, releases, rewriting and execution — including evolution, version
// policies, the rewriting cache and the MDM backend — exercised together.

import (
	"context"
	"net/http/httptest"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/source"
	"bdi/internal/steward"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// buildEcosystemSystem wires the simulated providers (served over real HTTP)
// into a System, registering w1, w2 and w3.
func buildEcosystemSystem(t *testing.T) (*System, *source.Ecosystem, *httptest.Server) {
	t.Helper()
	gen := source.NewGenerator(3, 99)
	gen.EventsPerMonitor = 4
	eco := source.NewEcosystem(gen)
	srv := httptest.NewServer(eco.Mux())
	t.Cleanup(srv.Close)

	httpWrapper := func(name, sourceName string, schema Schema, path string, ops ...wrapper.Op) Wrapper {
		return wrapper.NewJSON(name, sourceName, schema, wrapper.NewHTTPSource(srv.URL+path), ops...)
	}
	w1 := httpWrapper("w1", "D1", NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}), "/vod/v1/events",
		wrapper.ProjectField{Path: "monitorId", As: "VoDmonitorId"},
		wrapper.ComputeRatio{Numerator: "waitTime", Denominator: "watchTime", As: "lagRatio"})
	w2 := httpWrapper("w2", "D2", NewSchema([]string{"FGId"}, []string{"tweet"}), "/feedback/v1/feedback",
		wrapper.ProjectField{Path: "feedbackGatheringId", As: "FGId"},
		wrapper.ProjectField{Path: "text", As: "tweet"})
	w3 := httpWrapper("w3", "D3", NewSchema([]string{"TargetApp", "MonitorId", "FeedbackId"}, nil), "/apps/v1/apps",
		wrapper.ProjectField{Path: "appId", As: "TargetApp"},
		wrapper.ProjectField{Path: "monitorId", As: "MonitorId"},
		wrapper.ProjectField{Path: "feedbackGatheringId", As: "FeedbackId"})

	sys := NewSystem()
	if err := BuildSupersedeGlobalGraph(sys.Ontology); err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		release Release
		w       Wrapper
	}{
		{SupersedeReleaseW1(), w1},
		{SupersedeReleaseW2(), w2},
		{SupersedeReleaseW3(), w3},
	} {
		if _, err := sys.RegisterRelease(pair.release, pair.w); err != nil {
			t.Fatal(err)
		}
	}
	return sys, eco, srv
}

func TestIntegrationHTTPProvidersEndToEnd(t *testing.T) {
	sys, eco, srv := buildEcosystemSystem(t)
	gen := eco.Generator

	answer, res, err := answerSPARQL(sys, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.UCQ.Len() != 1 {
		t.Errorf("walks = %d", res.UCQ.Len())
	}
	wantRows := gen.Apps * gen.EventsPerMonitor
	if answer.Cardinality() != wantRows {
		t.Errorf("rows = %d, want %d", answer.Cardinality(), wantRows)
	}

	// The VoD provider publishes v2 (renamed fields) and retires v1; the
	// steward derives and registers the w4 release semi-automatically.
	w4 := wrapper.NewJSON("w4", "D1", NewSchema([]string{"VoDmonitorId"}, []string{"bufferingRatio"}),
		wrapper.NewHTTPSource(srv.URL+"/vod/v2/events"),
		wrapper.ProjectField{Path: "monitorId", As: "VoDmonitorId"},
		wrapper.ComputeRatio{Numerator: "bufferingTime", Denominator: "playbackTime", As: "bufferingRatio"})
	prev := SupersedeReleaseW1()
	changes := SchemaDiff(prev.Wrapper.Attributes(), []string{"VoDmonitorId", "bufferingRatio"},
		map[string]string{"lagRatio": "bufferingRatio"})
	derived, unresolved := DeriveRelease(prev, "w4", changes, nil)
	if len(unresolved) != 0 {
		t.Fatalf("unresolved changes: %v", unresolved)
	}
	if _, err := sys.RegisterRelease(derived, w4); err != nil {
		t.Fatal(err)
	}
	eco.VoD.Retire("v1", "events")

	// The same query now answers from both schema versions; v1 data is gone
	// from the provider (retired endpoint), so w1 contributes an error if
	// queried. The rewriting still produces both walks; execution fails on
	// the retired endpoint, which is the expected operational signal...
	res2, err := rewriteSPARQL(sys, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res2.UCQ.Len() != 2 {
		t.Errorf("walks after evolution = %d", res2.UCQ.Len())
	}
	// ... unless the analyst asks for the latest versions only, in which case
	// only the live v2 endpoint is touched.
	omq, err := ParseOMQ(exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	latest, latestRes, err := sys.QueryWithPolicy(context.Background(), omq, PolicyOptions{Policy: LatestVersionsOnly})
	if err != nil {
		t.Fatal(err)
	}
	if latestRes.UCQ.Len() != 1 || latestRes.UCQ.Signatures()[0] != "w3|w4" {
		t.Errorf("latest-only signatures = %v", latestRes.UCQ.Signatures())
	}
	if n := latest.Relation().Cardinality(); n != gen.Apps*gen.EventsPerMonitor {
		t.Errorf("latest-only rows = %d", n)
	}
}

func TestIntegrationVersionPoliciesAndCache(t *testing.T) {
	sys := buildSystem(t, true)
	omq, err := ParseOMQ(exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	// All versions: 4 rows. Latest only: 1 row. As of release 3: 3 rows.
	ctx := context.Background()
	all, _, err := sys.Answer(ctx, omq, 0)
	if err != nil {
		t.Fatal(err)
	}
	latest, _, err := sys.QueryWithPolicy(ctx, omq, PolicyOptions{Policy: LatestVersionsOnly})
	if err != nil {
		t.Fatal(err)
	}
	historical, histRes, err := sys.QueryWithPolicy(ctx, omq, PolicyOptions{Policy: AsOfRelease, Release: 3})
	if err != nil {
		t.Fatal(err)
	}
	nAll, nLatest, nHistorical := all.Relation().Cardinality(), latest.Relation().Cardinality(), historical.Relation().Cardinality()
	if nAll != 4 || nLatest != 1 || nHistorical != 3 {
		t.Errorf("cardinalities all/latest/asOf3 = %d/%d/%d, want 4/1/3", nAll, nLatest, nHistorical)
	}
	if histRes.UCQ.Signatures()[0] != "w1|w3" {
		t.Errorf("as-of walks = %v", histRes.UCQ.Signatures())
	}

	// Cache: repeated rewritings are served from memory until a release
	// lands. The answer above was the one miss; policy queries bypass it.
	if _, err := sys.Rewrite(ctx, omq); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Rewrite(ctx, omq); err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("cache stats = %d/%d", st.Hits, st.Misses)
	}
}

func TestIntegrationStewardDraftMatchesManualRelease(t *testing.T) {
	// The steward aid drafts the same w4 release the paper defines manually,
	// and the resulting ontology answers the running example identically.
	manual, err := BuildSupersedeOntology(true)
	if err != nil {
		t.Fatal(err)
	}
	assisted, err := BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	draft, unmapped := steward.DraftRelease(assisted, core.WrapperSpec{
		Name:            "w4",
		Source:          "D1",
		IDAttributes:    []string{"VoDmonitorId"},
		NonIDAttributes: []string{"bufferingRatio"},
	}, 0.2)
	if len(unmapped) != 0 {
		t.Fatalf("unmapped attributes: %v", unmapped)
	}
	if _, err := assisted.NewRelease(draft); err != nil {
		t.Fatal(err)
	}
	reg := workload.SupersedeTable1Registry(true)
	for name, o := range map[string]*core.Ontology{"manual": manual, "assisted": assisted} {
		sys := NewSystemWith(o, reg)
		answer, res, err := answerSPARQL(sys, exampleQuery)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.UCQ.Len() != 2 || answer.Cardinality() != 4 {
			t.Errorf("%s: walks=%d rows=%d", name, res.UCQ.Len(), answer.Cardinality())
		}
	}
}

func TestIntegrationDatatypeGovernance(t *testing.T) {
	// Wrapper data is validated against the datatypes declared in G before it
	// reaches analysts.
	o, err := BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	dirty := wrapper.NewMemory("w1", "D1",
		relational.NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}),
		[]relational.Tuple{
			{"VoDmonitorId": 12, "lagRatio": 0.75},
			{"VoDmonitorId": 12, "lagRatio": "NaN-ish"},
		})
	violations, err := steward.CheckDatatypes(context.Background(), o, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Fatalf("violations = %v", violations)
	}
	if violations[0].Feature != core.SupLagRatio || violations[0].Datatype != rdf.XSDDouble {
		t.Errorf("violation = %+v", violations[0])
	}
}
