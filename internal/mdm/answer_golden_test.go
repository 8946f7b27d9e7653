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
	"bdi/internal/source"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// TestAnswerResponseGolden pins whole POST /api/queries/answer bodies, row
// order included, on the SUPERSEDE running example (with and without a
// limit) and on a 2000-row answer over the JSON wrappers of the simulated
// ecosystem. The golden files were written when the handler sorted every
// answer with Relation.Sorted, so an engine that orders its own result must
// reproduce that order byte for byte. Every request is sent twice: the
// second is a cache hit executed from the program the first one compiled,
// and must reply with the same bytes. The 2000-row reply is ~100 KB; its
// golden keeps the counts, the digest and the first and last rows.
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
			post := func() []byte {
				resp, err := http.Post(ts.URL+"/api/queries/answer", "application/json", bytes.NewReader(request))
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, read error %v: %.200s", resp.StatusCode, err, got)
				}
				return got
			}
			got := post()
			if again := post(); !bytes.Equal(again, got) {
				t.Fatalf("the cache-hit reply diverged from the first\nfirst:\n%.300s\nagain:\n%.300s", got, again)
			}
			if tc.digest {
				var reply struct {
					Rows []json.RawMessage `json:"rows"`
				}
				if err := json.Unmarshal(got, &reply); err != nil || len(reply.Rows) == 0 {
					t.Fatalf("%d rows, decode error %v", len(reply.Rows), err)
				}
				got = []byte(fmt.Sprintf("rows: %d\nbytes: %d\nsha256: %x\nfirst row: %s\nlast row: %s\n",
					len(reply.Rows), len(got), sha256.Sum256(got), reply.Rows[0], reply.Rows[len(reply.Rows)-1]))
			}
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("answer reply diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
			}
			if stats := srv.sys.Load().CacheStats(); stats.Misses != 1 || stats.Hits != 1 {
				t.Fatalf("cache stats %+v, want one miss and one hit", stats)
			}
		})
	}
}
