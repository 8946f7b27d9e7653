package mdm

import (
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"bdi/internal/core"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// TestReleaseNamesWithSeparatorsAnswer registers the running example's w1
// through POST /api/releases under wrapper and source names holding the
// separators an IRI's local name stops at (':', '/', '#'). A name must map
// to its IRI and back unchanged: otherwise the release is accepted but no
// OMQ over its concepts can use the wrapper.
func TestReleaseNamesWithSeparatorsAnswer(t *testing.T) {
	for _, tc := range []struct{ wrapper, source string }{
		{"v1:w1", "D1"},
		{"api/w1", "D1"},
		{"w#1", "D1"},
		{"w1", "api/D1"},
	} {
		t.Run(tc.wrapper+" of "+tc.source, func(t *testing.T) {
			o := core.NewOntology()
			if err := core.BuildSupersedeGlobalGraph(o); err != nil {
				t.Fatal(err)
			}
			demo := workload.SupersedeTable1Registry(false)
			reg := wrapper.NewRegistry()
			for _, r := range []core.Release{core.SupersedeReleaseW2(), core.SupersedeReleaseW3()} {
				if _, err := o.NewRelease(r); err != nil {
					t.Fatal(err)
				}
				w, _ := demo.Get(r.Wrapper.Name)
				reg.Register(w)
			}
			h := NewServer(o, reg).Handler()

			// w1 as Table 1 has it, with w4's LAV subgraph (the same as w1's).
			req := w4Release()
			req.Wrapper, req.Source = tc.wrapper, tc.source
			req.NonIDAttributes = []string{"lagRatio"}
			req.Mappings = map[string]string{"VoDmonitorId": string(core.SupMonitorID), "lagRatio": string(core.SupLagRatio)}
			req.SampleTuples = []map[string]any{{"VoDmonitorId": 18, "lagRatio": 0.1}}
			if rec := serveJSON(h, http.MethodPost, "/api/releases", req); rec.Code != http.StatusCreated {
				t.Fatalf("release status = %d: %s", rec.Code, rec.Body)
			}
			rec := serveJSON(h, http.MethodPost, "/api/queries/answer", QueryRequest{SPARQL: exampleQuery})
			if rec.Code != http.StatusOK {
				t.Fatalf("answer status = %d: %s", rec.Code, rec.Body)
			}
			var answer AnswerResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil {
				t.Fatal(err)
			}
			if want := []string{tc.wrapper + "|w3"}; !slices.Equal(answer.Signatures, want) {
				t.Errorf("signatures = %v, want %v", answer.Signatures, want)
			}
			if len(answer.Rows) != 1 {
				t.Errorf("rows = %v, want one", answer.Rows)
			}
		})
	}
}
