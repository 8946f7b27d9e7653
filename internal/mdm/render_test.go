package mdm

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rewriting"
	"bdi/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestRewriteResponseGolden pins the rewriting part of every query reply —
// walk text, walk order, sorted signatures, concepts — byte for byte on the
// running example and on the Figure 8 worst case. The golden files were
// written by the fmt.Sprintf/map-based rendering this package started with,
// so any cheaper rendering must reproduce it exactly. The worst case is 86 KB
// of walk text; its golden keeps the digest and the first and last entries.
func TestRewriteResponseGolden(t *testing.T) {
	cases := []struct {
		name   string
		digest bool
		build  func() (*core.Ontology, *rewriting.OMQ, error)
	}{
		{"running_example", false, func() (*core.Ontology, *rewriting.OMQ, error) {
			o, err := core.BuildSupersedeOntology(true)
			if err != nil {
				return nil, nil, err
			}
			omq, err := rewriting.ParseOMQ(exampleQuery)
			return o, omq, err
		}},
		{"worst_case_5x3", true, func() (*core.Ontology, *rewriting.OMQ, error) {
			wc, err := workload.BuildWorstCase(5, 3)
			if err != nil {
				return nil, nil, err
			}
			return wc.Ontology, wc.Query, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, omq, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := rewriting.NewRewriter(o).Rewrite(omq)
			if err != nil {
				t.Fatal(err)
			}
			resp := rewriteResponse(res)
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
