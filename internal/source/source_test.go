package source

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"bdi/internal/relational"
	"bdi/internal/wrapper"
)

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(5, 7)
	b := NewGenerator(5, 7)
	ea, eb := a.VoDEvents(), b.VoDEvents()
	if len(ea) != len(eb) || len(ea) != 50 {
		t.Fatalf("event counts = %d / %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if len(a.FeedbackEvents()) != 15 {
		t.Errorf("feedback events = %d", len(a.FeedbackEvents()))
	}
	if len(a.AppLinks()) != 5 {
		t.Errorf("app links = %d", len(a.AppLinks()))
	}
}

func TestGeneratorDocumentSchemas(t *testing.T) {
	g := NewGenerator(2, 1)
	v1 := g.VoDDocumentsV1()
	v2 := g.VoDDocumentsV2()
	if len(v1) != len(v2) {
		t.Fatal("both versions should expose the same events")
	}
	if _, ok := v1[0]["waitTime"]; !ok {
		t.Error("v1 should expose waitTime")
	}
	if _, ok := v1[0]["bufferingTime"]; ok {
		t.Error("v1 should not expose bufferingTime")
	}
	if _, ok := v2[0]["bufferingTime"]; !ok {
		t.Error("v2 should expose the renamed bufferingTime")
	}
	if _, ok := v2[0]["qualityScore"]; !ok {
		t.Error("v2 should expose the added qualityScore")
	}
	if _, ok := v2[0]["waitTime"]; ok {
		t.Error("v2 should not expose the old waitTime")
	}
	fb := g.FeedbackDocuments()
	if len(fb) == 0 || fb[0]["text"] == "" {
		t.Error("feedback documents malformed")
	}
	links := g.AppLinkDocuments()
	if len(links) != 2 {
		t.Errorf("app link documents = %d", len(links))
	}
}

func TestAPISourceAndRetirement(t *testing.T) {
	api := NewAPI("test")
	api.RegisterStatic("v1", "things", []wrapper.Document{{"a": 1.0}})
	docs, err := api.Source("v1", "things").Documents(context.Background())
	if err != nil || len(docs) != 1 {
		t.Fatalf("docs = %v, %v", docs, err)
	}
	if api.RequestCount("v1", "things") != 1 {
		t.Errorf("request count = %d", api.RequestCount("v1", "things"))
	}
	if _, err := api.Source("v1", "missing").Documents(context.Background()); err == nil {
		t.Error("unknown endpoint should error")
	}
	api.Retire("v1", "things")
	if _, err := api.Source("v1", "things").Documents(context.Background()); err == nil {
		t.Error("retired endpoint should error")
	}
	var epErr *EndpointError
	_, err = api.Source("v1", "things").Documents(context.Background())
	if e, ok := err.(*EndpointError); !ok || !e.Gone {
		t.Errorf("expected EndpointError with Gone, got %v (%T)", err, err)
	}
	_ = epErr
}

func TestAPIHTTPHandler(t *testing.T) {
	gen := NewGenerator(3, 1)
	eco := NewEcosystem(gen)
	srv := httptest.NewServer(eco.Mux())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/vod/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var docs []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 30 {
		t.Errorf("events = %d", len(docs))
	}

	// Unknown endpoint and retired endpoint status codes.
	if resp, _ := srv.Client().Get(srv.URL + "/vod/v9/events"); resp.StatusCode != 404 {
		t.Errorf("unknown version status = %d", resp.StatusCode)
	}
	if resp, _ := srv.Client().Get(srv.URL + "/vod/bad"); resp.StatusCode != 404 {
		t.Errorf("malformed path status = %d", resp.StatusCode)
	}
	eco.VoD.Retire("v1", "events")
	if resp, _ := srv.Client().Get(srv.URL + "/vod/v1/events"); resp.StatusCode != 410 {
		t.Errorf("retired endpoint status = %d", resp.StatusCode)
	}

	// An HTTP wrapper over the simulated API.
	w := wrapper.NewJSON("w-feedback", "D2",
		relational.NewSchema([]string{"FGId"}, []string{"tweet"}),
		wrapper.NewHTTPSource(srv.URL+"/feedback/v1/feedback"),
		wrapper.ProjectField{Path: "feedbackGatheringId", As: "FGId"},
		wrapper.ProjectField{Path: "text", As: "tweet"},
	)
	rows, err := w.Rows(context.Background(), relational.Pushdown{})
	if err != nil || len(rows) != 9 {
		t.Errorf("HTTP wrapper rows = %d, %v", len(rows), err)
	}
}

func TestEcosystemWrappers(t *testing.T) {
	gen := NewGenerator(4, 11)
	eco := NewEcosystem(gen)
	reg := eco.WrapperRegistry(true)
	if reg.Len() != 4 {
		t.Fatalf("registry = %d", reg.Len())
	}
	w1, err := reg.Fetch(context.Background(), "w1", relational.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	if w1.Cardinality() != 4*gen.EventsPerMonitor {
		t.Errorf("w1 cardinality = %d", w1.Cardinality())
	}
	if !w1.Schema.Has("lagRatio") || !w1.Schema.IsID("VoDmonitorId") {
		t.Errorf("w1 schema = %v", w1.Schema)
	}
	w4, err := reg.Fetch(context.Background(), "w4", relational.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	if !w4.Schema.Has("bufferingRatio") {
		t.Errorf("w4 schema = %v", w4.Schema)
	}
	w3, err := reg.Fetch(context.Background(), "w3", relational.Pushdown{})
	if err != nil || w3.Cardinality() != 4 {
		t.Errorf("w3 = %v, %v", w3, err)
	}
	w2, err := reg.Fetch(context.Background(), "w2", relational.Pushdown{})
	if err != nil || w2.Cardinality() != 4*gen.FeedbackPerTool {
		t.Errorf("w2 = %v, %v", w2, err)
	}
}
