package store_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestDumpTriGGolden pins Store.DumpTriG byte for byte — the body of GET
// /api/ontology/graph and of bdictl dump — on the SUPERSEDE running example
// after its W4 release, and on a small store whose literals need escaping
// (quotes, a newline, a datatype, a language tag) beside a named graph.
func TestDumpTriGGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*store.Store, *rdf.PrefixMap, error)
	}{
		{"supersede", func() (*store.Store, *rdf.PrefixMap, error) {
			o, err := core.BuildSupersedeOntology(true)
			if err != nil {
				return nil, nil, err
			}
			return o.Store(), o.Prefixes(), nil
		}},
		{"escapes", func() (*store.Store, *rdf.PrefixMap, error) {
			const ex = "http://example.org/"
			s := store.New()
			_, err := s.AddAll([]rdf.Quad{
				rdf.Q(ex+"s", ex+"p", ex+"o", ""),
				rdf.Q(ex+"s", rdf.RDFType, ex+"Class", ""),
				{Triple: rdf.NewTriple(rdf.IRI(ex+"s"), rdf.IRI(ex+"q"), rdf.NewLiteral("value with \"quotes\" and\nnewline"))},
				{Triple: rdf.NewTriple(rdf.IRI(ex+"s"), rdf.IRI(ex+"r"), rdf.NewTypedLiteral("0.5", rdf.XSDDouble))},
				{Triple: rdf.NewTriple(rdf.IRI(ex+"s"), rdf.IRI(ex+"label"), rdf.NewLangLiteral("hola", "es"))},
				rdf.Q(ex+"a", ex+"b", ex+"c", ex+"g1"),
			})
			prefixes := rdf.DefaultPrefixes()
			prefixes.Bind("ex", ex)
			return s, prefixes, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, prefixes, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			got := s.DumpTriG(prefixes)
			path := filepath.Join("testdata", "dump_"+tc.name+".trig")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("TriG dump diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
