package mdm

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"bdi/internal/core"
	"bdi/internal/relational"
	"bdi/internal/source"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// TestAnswerResponseGolden pins whole POST /api/queries/answer bodies, row
// order included, on the SUPERSEDE running example (with and without a
// limit) and on a 2000-row answer over the JSON wrappers of the simulated
// ecosystem. The golden files were written when the handler sorted every
// answer with Relation.Sorted, so an engine that orders its own result must
// reproduce that order byte for byte, at any parallelism. Every request is
// sent twice: the second is a cache hit executed from the program the first
// one compiled (or, after the first parallelism, both are), and must reply
// with the same bytes. The 2000-row reply is ~100 KB; its golden keeps the
// counts, the digest and the first and last rows.
func TestAnswerResponseGolden(t *testing.T) {
	table1 := func() (*core.Ontology, *wrapper.Registry, error) {
		o, err := core.BuildSupersedeOntology(true)
		return o, workload.SupersedeTable1Registry(true), err
	}
	cases := []struct {
		name   string
		digest bool
		limit  int
		build  func() (*core.Ontology, *wrapper.Registry, error)
	}{
		{"running_example", false, 0, table1},
		{"running_example_limit2", false, 2, table1},
		{"json_rows_2000", true, 0, func() (*core.Ontology, *wrapper.Registry, error) {
			o, err := core.BuildSupersedeOntology(true)
			gen := source.NewGenerator(200, 1)
			eco := source.NewEcosystem(gen)
			eco.VoD.RegisterStatic("v1", "events", gen.VoDDocumentsV1())
			eco.VoD.RegisterStatic("v2", "events", gen.VoDDocumentsV2())
			eco.Feedback.RegisterStatic("v1", "feedback", gen.FeedbackDocuments())
			eco.Registry.RegisterStatic("v1", "apps", gen.AppLinkDocuments())
			return o, eco.WrapperRegistry(true), err
		}},
	}
	defer func(par int) { relational.DefaultEngine.MaxParallel = par }(relational.DefaultEngine.MaxParallel)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, reg, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(o, reg)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			request, err := json.Marshal(QueryRequest{SPARQL: exampleQuery, Limit: tc.limit})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "answer_"+tc.name+".golden")
			post := func(par int) []byte {
				resp, err := http.Post(ts.URL+"/api/queries/answer", "application/json", bytes.NewReader(request))
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("MaxParallel=%d: status %d, read error %v: %.200s", par, resp.StatusCode, err, got)
				}
				return got
			}
			pars := []int{0, 1, 2, 8}
			for _, par := range pars {
				relational.DefaultEngine.MaxParallel = par
				got := post(par)
				if again := post(par); !bytes.Equal(again, got) {
					t.Fatalf("MaxParallel=%d: the cache-hit reply diverged from the first\nfirst:\n%.300s\nagain:\n%.300s", par, got, again)
				}
				if tc.digest {
					var reply struct {
						Rows []json.RawMessage `json:"rows"`
					}
					if err := json.Unmarshal(got, &reply); err != nil || len(reply.Rows) == 0 {
						t.Fatalf("MaxParallel=%d: %d rows, decode error %v", par, len(reply.Rows), err)
					}
					got = []byte(fmt.Sprintf("rows: %d\nbytes: %d\nsha256: %x\nfirst row: %s\nlast row: %s\n",
						len(reply.Rows), len(got), sha256.Sum256(got), reply.Rows[0], reply.Rows[len(reply.Rows)-1]))
				}
				if *updateGolden && par == 0 {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("MaxParallel=%d: answer reply diverged from %s\ngot:\n%s\nwant:\n%s", par, path, got, want)
				}
			}
			if stats := srv.sys.Load().CacheStats(); stats.Misses != 1 || stats.Hits != 2*len(pars)-1 {
				t.Fatalf("cache stats %+v, want one miss and %d hits", stats, 2*len(pars)-1)
			}
		})
	}
}
