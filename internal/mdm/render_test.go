package mdm

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rewriting"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestRewriteResponseGolden pins the rewriting part of every query reply —
// walk text, walk order, sorted signatures, concepts — byte for byte on the
// running example and on the Figure 8 worst case. The golden files were
// written by the fmt.Sprintf/map-based rendering this package started with,
// so any cheaper rendering must reproduce it exactly. The worst case is 86 KB
// of walk text; its golden keeps the digest and the first and last entries.
// The endpoint serves the rendering its cached result keeps: a miss and a
// cache hit must both reply with the view json.Encoder writes.
func TestRewriteResponseGolden(t *testing.T) {
	cases := []struct {
		name   string
		digest bool
		build  func() (*core.Ontology, string, error)
	}{
		{"running_example", false, func() (*core.Ontology, string, error) {
			o, err := core.BuildSupersedeOntology(true)
			return o, exampleQuery, err
		}},
		{"worst_case_5x3", true, func() (*core.Ontology, string, error) {
			wc, err := workload.BuildWorstCase(5, 3)
			if err != nil {
				return nil, "", err
			}
			return wc.Ontology, omqSPARQL(wc.Query), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, sparql, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			omq, err := rewriting.ParseOMQ(sparql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rewriting.NewRewriter(o).Rewrite(omq)
			if err != nil {
				t.Fatal(err)
			}
			var resp RewriteResponse
			if err := json.Unmarshal(res.ViewJSON(), &resp); err != nil {
				t.Fatal(err)
			}
			var encoded bytes.Buffer
			if err := json.NewEncoder(&encoded).Encode(resp); err != nil {
				t.Fatal(err)
			}
			srv := NewServer(o, wrapper.NewRegistry())
			h := srv.Handler()
			request, _ := json.Marshal(QueryRequest{SPARQL: sparql})
			for _, call := range []string{"miss", "cache hit"} {
				rec := postRaw(h, "/api/queries/rewrite", request)
				if rec.Code != http.StatusOK || rec.Body.String() != encoded.String() {
					t.Fatalf("%s: status %d, body diverges from the encoded view:\n%.300s\nwant:\n%.300s", call, rec.Code, rec.Body, encoded.String())
				}
			}
			if stats := srv.sys.Load().CacheStats(); stats.Hits != 1 || stats.Misses != 1 {
				t.Fatalf("cache stats %+v, want one miss and one hit", stats)
			}
			got, err := json.MarshalIndent(resp, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if tc.digest {
				last := len(resp.Walks) - 1
				got = []byte(fmt.Sprintf("walks: %d\nsignatures: %d\nbytes: %d\nsha256: %x\nfirst walk: %s\nlast walk: %s\nfirst signature: %s\nlast signature: %s\n",
					len(resp.Walks), len(resp.Signatures), len(got), sha256.Sum256(got),
					resp.Walks[0], resp.Walks[last], resp.Signatures[0], resp.Signatures[last]))
			}
			path := filepath.Join("testdata", "rewrite_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("rewriting reply diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
