package mdm

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"bdi/internal/core"
	"bdi/internal/workload"
)

// TestOntologyEndpointsGolden pins the bodies of the ontology read endpoints
// (stats, concepts, sources, the TriG graph) and of GET /api/queries/cache on
// the running example, before and after the W4 release lands through POST
// /api/releases. The golden files were written while every read handler
// still held a server-wide read lock, so reading through the atomic server
// view must reproduce them byte for byte.
func TestOntologyEndpointsGolden(t *testing.T) {
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(o, workload.SupersedeTable1Registry(false)).Handler()
	do := func(method, path string, body any) []byte {
		t.Helper()
		var in io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			in = bytes.NewReader(raw)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, in))
		if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
			t.Fatalf("%s %s = %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for _, stage := range []string{"before_w4", "after_w4"} {
		if stage == "after_w4" {
			do(http.MethodPost, "/api/releases", w4Release())
		}
		do(http.MethodPost, "/api/queries/rewrite", QueryRequest{SPARQL: exampleQuery})
		bodies := map[string][]byte{"cache": do(http.MethodGet, "/api/queries/cache", nil)}
		for _, endpoint := range []string{"stats", "concepts", "sources", "graph"} {
			bodies["ontology_"+endpoint] = do(http.MethodGet, "/api/ontology/"+endpoint, nil)
		}
		for name, got := range bodies {
			path := filepath.Join("testdata", name+"_"+stage+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s diverged from %s\ngot:\n%s\nwant:\n%s", name, path, got, want)
			}
		}
	}
}
