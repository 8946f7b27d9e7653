package mdm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"bdi/internal/core"
	"bdi/internal/wal"
	"bdi/internal/workload"
)

const exampleQuery = `
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
PREFIX sc: <http://schema.org/>
SELECT ?x ?y
WHERE {
  VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
  sc:SoftwareApplication G:hasFeature sup:applicationId .
  sc:SoftwareApplication sup:hasMonitor sup:Monitor .
  sup:Monitor sup:generatesQoS sup:InfoMonitor .
  sup:InfoMonitor G:hasFeature sup:lagRatio
}
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o, workload.SupersedeTable1Registry(false))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndStats(t *testing.T) {
	ts := newTestServer(t)
	var health map[string]string
	if code := getJSON(t, ts.URL+"/api/health", &health); code != 200 || health["status"] != "ok" {
		t.Errorf("health = %d %v", code, health)
	}
	var stats core.Stats
	if code := getJSON(t, ts.URL+"/api/ontology/stats", &stats); code != 200 {
		t.Errorf("stats status = %d", code)
	}
	if stats.Concepts != 5 || stats.Wrappers != 3 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestConceptsAndSources(t *testing.T) {
	ts := newTestServer(t)
	var concepts []ConceptView
	if code := getJSON(t, ts.URL+"/api/ontology/concepts", &concepts); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(concepts) != 5 {
		t.Errorf("concepts = %d", len(concepts))
	}
	var sources []SourceView
	if code := getJSON(t, ts.URL+"/api/ontology/sources", &sources); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(sources) != 3 {
		t.Errorf("sources = %d", len(sources))
	}
	found := false
	for _, s := range sources {
		for w, attrs := range s.Wrappers {
			if w == "w1" && len(attrs) == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("w1 attributes missing: %+v", sources)
	}
}

func TestGraphDumpIsParseableTriG(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/ontology/graph")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GRAPH") {
		t.Error("dump should contain named graph blocks")
	}
}

func TestQueryRewriteAndAnswerEndpoints(t *testing.T) {
	ts := newTestServer(t)
	var rewrite RewriteResponse
	if code := postJSON(t, ts.URL+"/api/queries/rewrite", QueryRequest{SPARQL: exampleQuery}, &rewrite); code != 200 {
		t.Fatalf("rewrite status = %d", code)
	}
	if len(rewrite.Walks) != 1 || len(rewrite.Concepts) != 3 {
		t.Errorf("rewrite = %+v", rewrite)
	}
	var answer AnswerResponse
	if code := postJSON(t, ts.URL+"/api/queries/answer", QueryRequest{SPARQL: exampleQuery}, &answer); code != 200 {
		t.Fatalf("answer status = %d", code)
	}
	if len(answer.Rows) != 3 {
		t.Errorf("answer rows = %d", len(answer.Rows))
	}
	// Malformed queries yield 422.
	if code := postJSON(t, ts.URL+"/api/queries/answer", QueryRequest{SPARQL: "SELECT nonsense"}, nil); code != 422 {
		t.Errorf("malformed query status = %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/queries/rewrite", QueryRequest{SPARQL: ""}, nil); code != 422 {
		t.Errorf("empty query status = %d", code)
	}
}

// w4Release is the running example's evolution step: a second schema version
// of D1 providing lagRatio under a new attribute name.
func w4Release() ReleaseRequest {
	return ReleaseRequest{
		Wrapper:         "w4",
		Source:          "D1",
		IDAttributes:    []string{"VoDmonitorId"},
		NonIDAttributes: []string{"bufferingRatio"},
		Subgraph: [][3]string{
			{string(core.SupMonitor), string(core.SupGeneratesQoS), string(core.SupInfoMonitor)},
			{string(core.SupMonitor), string(core.GHasFeature), string(core.SupMonitorID)},
			{string(core.SupInfoMonitor), string(core.GHasFeature), string(core.SupLagRatio)},
		},
		Mappings: map[string]string{
			"VoDmonitorId":   string(core.SupMonitorID),
			"bufferingRatio": string(core.SupLagRatio),
		},
		SampleTuples: []map[string]any{
			{"VoDmonitorId": 18, "bufferingRatio": 0.42},
		},
	}
}

func TestReleaseEndpointRegistersW4(t *testing.T) {
	ts := newTestServer(t)
	req := w4Release()
	var resp ReleaseResponse
	if code := postJSON(t, ts.URL+"/api/releases", req, &resp); code != 201 {
		t.Fatalf("release status = %d (%+v)", code, resp)
	}
	if resp.NewSource {
		t.Error("D1 already exists")
	}
	if resp.ReusedAttributes != 1 || resp.NewAttributes != 1 {
		t.Errorf("release response = %+v", resp)
	}
	// The response carries the computed invalidation delta.
	if resp.Delta == nil {
		t.Fatal("release response carries no delta")
	}
	if resp.Delta.Wrapper != string(core.WrapperURI("w4")) || resp.Delta.Sequence != 4 {
		t.Errorf("delta identity = %+v", resp.Delta)
	}
	wantConcepts := []string{string(core.SupMonitor), string(core.SupInfoMonitor)}
	for _, c := range wantConcepts {
		if !slices.Contains(resp.Delta.Concepts, c) {
			t.Errorf("delta concepts %v miss %s", resp.Delta.Concepts, c)
		}
	}
	if slices.Contains(resp.Delta.Concepts, string(core.SupUserFeedback)) {
		t.Errorf("delta concepts leak untouched concepts: %v", resp.Delta.Concepts)
	}
	if len(resp.Delta.Edges) != 1 {
		t.Errorf("delta edges = %v", resp.Delta.Edges)
	}
	// The same OMQ now unions both schema versions and returns the extra row.
	var answer AnswerResponse
	if code := postJSON(t, ts.URL+"/api/queries/answer", QueryRequest{SPARQL: exampleQuery}, &answer); code != 200 {
		t.Fatalf("answer status = %d", code)
	}
	if len(answer.Walks) != 2 {
		t.Errorf("walks after release = %d", len(answer.Walks))
	}
	if len(answer.Rows) != 4 {
		t.Errorf("rows after release = %d", len(answer.Rows))
	}
	// Registering the same wrapper again fails.
	if code := postJSON(t, ts.URL+"/api/releases", req, nil); code != 422 {
		t.Errorf("duplicate release status = %d", code)
	}
	// Malformed JSON fails with 400.
	resp2, err := http.Post(ts.URL+"/api/releases", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Errorf("malformed body status = %d", resp2.StatusCode)
	}
}

func TestChangeCatalogAndApplicabilityEndpoints(t *testing.T) {
	ts := newTestServer(t)
	var catalog []ChangeView
	if code := getJSON(t, ts.URL+"/api/changes/catalog", &catalog); code != 200 {
		t.Fatalf("catalog status = %d", code)
	}
	if len(catalog) != 21 {
		t.Errorf("catalog size = %d", len(catalog))
	}
	var applicability struct {
		APIs           []map[string]any `json:"apis"`
		AggregateTotal float64          `json:"aggregateTotal"`
	}
	if code := getJSON(t, ts.URL+"/api/changes/applicability", &applicability); code != 200 {
		t.Fatalf("applicability status = %d", code)
	}
	if len(applicability.APIs) != 5 || applicability.AggregateTotal < 70 || applicability.AggregateTotal > 73 {
		t.Errorf("applicability = %+v", applicability)
	}
}

// TestQueryCacheStats exercises the cached rewrite path: the second
// identical rewrite must be a hit, and the cache endpoint must report it.
func TestQueryCacheStats(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 2; i++ {
		var rewrite RewriteResponse
		if code := postJSON(t, ts.URL+"/api/queries/rewrite", QueryRequest{SPARQL: exampleQuery}, &rewrite); code != 200 {
			t.Fatalf("rewrite %d status = %d", i, code)
		}
		if len(rewrite.Walks) == 0 {
			t.Fatalf("rewrite %d returned no walks", i)
		}
	}
	var stats CacheStatsResponse
	if code := getJSON(t, ts.URL+"/api/queries/cache", &stats); code != 200 {
		t.Fatalf("cache stats status = %d", code)
	}
	if stats.Hits != 1 || stats.Misses != 1 || stats.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 miss, 1 entry", stats)
	}

	// A release touching the query's concepts retires the entry; the
	// per-concept invalidation counters report it.
	var release ReleaseResponse
	if code := postJSON(t, ts.URL+"/api/releases", ReleaseRequest{
		Wrapper:         "w4",
		Source:          "D1",
		IDAttributes:    []string{"VoDmonitorId"},
		NonIDAttributes: []string{"bufferingRatio"},
		Subgraph: [][3]string{
			{string(core.SupMonitor), string(core.SupGeneratesQoS), string(core.SupInfoMonitor)},
			{string(core.SupMonitor), string(core.GHasFeature), string(core.SupMonitorID)},
			{string(core.SupInfoMonitor), string(core.GHasFeature), string(core.SupLagRatio)},
		},
		Mappings: map[string]string{
			"VoDmonitorId":   string(core.SupMonitorID),
			"bufferingRatio": string(core.SupLagRatio),
		},
	}, &release); code != 201 {
		t.Fatalf("release status = %d", code)
	}
	var rewrite RewriteResponse
	if code := postJSON(t, ts.URL+"/api/queries/rewrite", QueryRequest{SPARQL: exampleQuery}, &rewrite); code != 200 {
		t.Fatalf("post-release rewrite status = %d", code)
	}
	if len(rewrite.Walks) != 2 {
		t.Fatalf("post-release walks = %d", len(rewrite.Walks))
	}
	if code := getJSON(t, ts.URL+"/api/queries/cache", &stats); code != 200 {
		t.Fatalf("cache stats status = %d", code)
	}
	if stats.EntriesInvalidated != 1 || stats.EntriesRetained != 0 || stats.Misses != 2 || stats.Entries != 1 {
		t.Errorf("post-release cache stats = %+v, want the entry invalidated and rebuilt (2 misses, 1 entry)", stats)
	}
	if stats.InvalidatedByConcept[string(core.SupMonitor)] == 0 || stats.InvalidatedByConcept[string(core.SupInfoMonitor)] == 0 {
		t.Errorf("per-concept invalidation stats = %v", stats.InvalidatedByConcept)
	}
}

func TestDurabilityEndpoints(t *testing.T) {
	// Without a manager the endpoints answer 404.
	ts := newTestServer(t)
	if code := getJSON(t, ts.URL+"/api/durability", nil); code != http.StatusNotFound {
		t.Fatalf("GET /api/durability without durability = %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/api/durability/checkpoint", nil, nil); code != http.StatusNotFound {
		t.Fatalf("POST /api/durability/checkpoint without durability = %d, want 404", code)
	}

	// With a manager: stats report the journaled state and a checkpoint can
	// be triggered through the API.
	m, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	if _, err := o.NewRelease(core.SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o, workload.SupersedeTable1Registry(false))
	srv.EnableDurability(m)
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)

	var stats wal.Stats
	if code := getJSON(t, ts2.URL+"/api/durability", &stats); code != http.StatusOK {
		t.Fatalf("GET /api/durability = %d, want 200", code)
	}
	if stats.RecordsAppended == 0 || stats.StoreQuads == 0 {
		t.Fatalf("durability stats look empty: %+v", stats)
	}
	var info wal.CheckpointInfo
	if code := postJSON(t, ts2.URL+"/api/durability/checkpoint", nil, &info); code != http.StatusOK {
		t.Fatalf("POST /api/durability/checkpoint = %d, want 200", code)
	}
	if info.Generation != o.Store().Generation() || info.Quads != o.Store().Len() {
		t.Fatalf("checkpoint info %+v does not match the store (gen %d, %d quads)", info, o.Store().Generation(), o.Store().Len())
	}
}
