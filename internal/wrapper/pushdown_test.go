package wrapper

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bdi/internal/relational"
)

// countingOps wraps a DocumentSource to count fetches, so tests can assert
// pushdowns still hit the source exactly once.
type countingDocs struct {
	docs    []Document
	fetches int
}

func (c *countingDocs) Documents(context.Context) ([]Document, error) {
	c.fetches++
	return c.docs, nil
}

func pushdownTestJSON(docs *countingDocs) *JSON {
	schema := relational.NewSchema([]string{"id"}, []string{"ratio", "tag", "opt"})
	return NewJSON("wj", "SJ", schema, docs,
		ProjectField{Path: "monitorId", As: "id"},
		ComputeRatio{Numerator: "wait", Denominator: "watch", As: "ratio"},
		Constant{As: "tag", Value: "v1"},
		ProjectField{Path: "extra", As: "opt", Optional: true},
	)
}

func pushdownTestDocs() *countingDocs {
	return &countingDocs{docs: []Document{
		{"monitorId": 1, "wait": 1.0, "watch": 4.0},
		{"monitorId": 2, "wait": 1.0, "watch": 2.0, "extra": "x"},
		{"monitorId": 3, "wait": 3.0, "watch": 4.0},
	}}
}

// TestJSONRowsPushdownPrunesSafely checks that a projection pushdown prunes
// only never-failing ops (Constant, optional ProjectField), keeps the
// pushed-down schema's order and IDs, and fetches the documents once.
func TestJSONRowsPushdownPrunesSafely(t *testing.T) {
	docs := pushdownTestDocs()
	rel, err := Relation(context.Background(), pushdownTestJSON(docs), relational.Pushdown{Attrs: []string{"ratio"}})
	if err != nil {
		t.Fatalf("pushdown failed: %v", err)
	}
	if docs.fetches != 1 {
		t.Fatalf("pushdown fetched the documents %d times, want 1", docs.fetches)
	}
	if got, want := fmt.Sprint(rel.Schema.Names()), fmt.Sprint([]string{"id", "ratio"}); got != want {
		t.Fatalf("pushed schema = %s, want %s", got, want)
	}
	if rel.Cardinality() != 3 {
		t.Fatalf("got %d rows, want 3", rel.Cardinality())
	}
	for _, r := range rel.Tuples {
		if _, ok := r["tag"]; ok {
			t.Fatalf("pruned constant leaked into row %v", r)
		}
		if _, ok := r["ratio"]; !ok {
			t.Fatalf("kept attribute missing from row %v", r)
		}
	}
}

// TestJSONRowsPushdownKeepsFallibleOps checks that a pushdown never changes
// which documents fail: a required projection of a missing field must still
// error even when the pushdown does not need its attribute.
func TestJSONRowsPushdownKeepsFallibleOps(t *testing.T) {
	docs := &countingDocs{docs: []Document{{"monitorId": 1, "wait": 1.0, "watch": 4.0, "must": "x"}, {"monitorId": 2}}}
	schema := relational.NewSchema([]string{"id"}, []string{"m"})
	j := NewJSON("wj", "SJ", schema, docs,
		ProjectField{Path: "monitorId", As: "id"},
		ProjectField{Path: "must", As: "m"}, // fails on doc 2
	)
	_, fullErr := j.Rows(context.Background(), relational.Pushdown{})
	_, pdErr := j.Rows(context.Background(), relational.Pushdown{Attrs: []string{"id"}})
	if fullErr == nil || pdErr == nil {
		t.Fatalf("fallible op outcome changed: full=%v pushdown=%v", fullErr, pdErr)
	}
	if fullErr.Error() != pdErr.Error() {
		t.Fatalf("error text changed under pushdown:\nfull:     %v\npushdown: %v", fullErr, pdErr)
	}
}

// pushdownReferenceCase is a wrapper output and a pushdown over it, with the
// result the engine's reference projection semantics give.
func pushdownReferenceCase() (relational.Schema, []relational.Tuple, relational.Pushdown, string) {
	schema := relational.NewSchema([]string{"id"}, []string{"a", "b"})
	rows := []relational.Tuple{
		{"id": 1, "a": "x", "b": 1},
		{"id": 2, "a": "y"},
		{"id": int64(1), "a": "z", "b": 2},
	}
	pd := relational.Pushdown{Attrs: []string{"a"}}
	full := relational.NewRelation("w", schema)
	full.Add(rows...)
	return schema, rows, pd, full.Project(pd.Attrs).String()
}

// TestMemoryRowsPushdownMatchesApplySelections checks the in-memory wrapper
// against the engine's reference projection semantics, and that the zero
// Pushdown yields the full output.
func TestMemoryRowsPushdownMatchesApplySelections(t *testing.T) {
	schema, rows, pd, want := pushdownReferenceCase()
	m := NewMemory("w", "SM", schema, rows)
	got, err := Relation(context.Background(), m, pd)
	if err != nil {
		t.Fatalf("pushdown failed: %v", err)
	}
	if got.String() != want {
		t.Fatalf("memory pushdown diverges from reference semantics\nwant: %s\ngot:  %s", want, got)
	}
	full, err := Relation(context.Background(), m, relational.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(full.Schema.Names()) != fmt.Sprint(schema.Names()) || full.Cardinality() != len(rows) {
		t.Fatalf("zero pushdown must yield the full output, got %s", full)
	}
}

// TestQualifiedFetchPushdownTranslatesNames checks the qualified resolver
// unqualifies pushdown attribute names for the source and requalifies the
// result schema.
func TestQualifiedFetchPushdownTranslatesNames(t *testing.T) {
	schema := relational.NewSchema([]string{"id"}, []string{"a", "b"})
	rows := []relational.Tuple{{"id": 1, "a": "x", "b": "y"}}
	reg := NewRegistry()
	reg.Register(NewMemory("wm", "SM", schema, rows))
	q := NewQualifiedResolver(reg)
	rel, err := q.Fetch(context.Background(), "wm", relational.Pushdown{Attrs: []string{"SM/a"}})
	if err != nil {
		t.Fatalf("qualified pushdown failed: %v", err)
	}
	if got, want := fmt.Sprint(rel.Schema.Names()), fmt.Sprint([]string{"SM/id", "SM/a"}); got != want {
		t.Fatalf("qualified pushdown schema = %s, want %s", got, want)
	}
	if rel.Cardinality() != 1 {
		t.Fatalf("got %d rows, want 1", rel.Cardinality())
	}
}

// TestPlainWrapperAppliesSharedHelper checks that a wrapper with no native
// projection honors the pushdown contract by passing its full
// output through the shared Pushdown.Apply helper: the registry serves the
// pushed-down schema and exactly the reference rows, never a partial result.
func TestPlainWrapperAppliesSharedHelper(t *testing.T) {
	schema, rows, pd, want := pushdownReferenceCase()
	reg := NewRegistry()
	reg.Register(plainWrapper{schema: schema, rows: rows})
	got, err := reg.Fetch(context.Background(), "w", pd)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf("shared helper diverges from reference semantics\nwant: %s\ngot:  %s", want, got)
	}
}

// plainWrapper is a third-party wrapper over a source with no native
// projection.
type plainWrapper struct {
	schema relational.Schema
	rows   []relational.Tuple
}

func (plainWrapper) Name() string                { return "w" }
func (plainWrapper) Source() string              { return "SP" }
func (p plainWrapper) Schema() relational.Schema { return p.schema }
func (p plainWrapper) Rows(ctx context.Context, pd relational.Pushdown) ([]relational.Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return pd.Apply(p.schema, slices.Values(p.rows)), nil
}

// TestJSONRowsPushdownParityRandomized holds JSON.Rows under a pushdown to
// the shared helper over its full output: for generated pipelines (required,
// optional and nested paths, constants, ratios over failing documents),
// documents, SkipBadDocuments settings and pushdowns (attributes, renames),
// JSON.Rows(ctx, p) equals
// p.Apply(schema, JSON.Rows(ctx, Pushdown{})) tuple for tuple, in order, and
// fails with the same error.
func TestJSONRowsPushdownParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	paths := []string{"id", "n", "m", "s", "o.id", "o.n", "o.p.q", "missing"}
	values := []any{1.0, 2.0, int64(2), 3, "2", "x", "NaN", "0", 0.0, nil, true, Document{"q": 1.0}}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	failed, kept := 0, 0
	for c := 0; c < 400; c++ {
		var pipeline []Op
		var outputs []string
		for range 1 + rng.Intn(5) {
			as := fmt.Sprintf("a%d", rng.Intn(6))
			switch rng.Intn(4) {
			case 0:
				pipeline = append(pipeline, ProjectField{Path: pick(paths), As: as, Optional: rng.Intn(3) > 0})
			case 1:
				pipeline = append(pipeline, Constant{As: as, Value: values[rng.Intn(len(values))]})
			case 2:
				pipeline = append(pipeline, ComputeRatio{Numerator: pick(paths), Denominator: pick(paths), As: as})
			default:
				// No As: the attribute is the path's last segment.
				p := ProjectField{Path: pick(paths), Optional: rng.Intn(2) == 0}
				as, _ = p.PushdownOutput()
				pipeline = append(pipeline, p)
			}
			outputs = append(outputs, as)
		}
		// Declare some outputs (and an attribute no op writes), the first as ID.
		var declared []string
		for _, a := range append(outputs, "a9") {
			if !slices.Contains(declared, a) && (len(declared) == 0 || rng.Intn(3) > 0) {
				declared = append(declared, a)
			}
		}
		schema := relational.NewSchema(declared[:1], declared[1:])
		docs := make([]Document, rng.Intn(12))
		for i := range docs {
			docs[i] = Document{}
			for _, p := range paths {
				if rng.Intn(4) == 0 {
					continue
				}
				head, rest, nested := strings.Cut(p, ".")
				if !nested {
					docs[i][p] = values[rng.Intn(len(values))]
					continue
				}
				inner, _ := docs[i][head].(Document)
				if inner == nil {
					inner = Document{}
					docs[i][head] = inner
				}
				inner[strings.Split(rest, ".")[0]] = values[rng.Intn(len(values))]
			}
		}
		j := NewJSON("wj", "SJ", schema, StaticDocuments(docs), pipeline...)
		j.SkipBadDocuments = rng.Intn(2) == 0

		var p relational.Pushdown
		for _, a := range schema.Names() {
			if rng.Intn(3) == 0 {
				p.Attrs = append(p.Attrs, a)
			}
		}
		if rng.Intn(2) == 0 {
			p.Rename = map[string]string{}
			for _, a := range schema.Names() {
				if rng.Intn(2) == 0 {
					p.Rename[a] = "SJ/" + a
				}
			}
		}

		full, fullErr := j.Rows(context.Background(), relational.Pushdown{})
		got, gotErr := j.Rows(context.Background(), p)
		if fmt.Sprint(fullErr) != fmt.Sprint(gotErr) {
			t.Fatalf("case %d: errors differ under %+v\nfull:     %v\npushdown: %v", c, p, fullErr, gotErr)
		}
		if fullErr != nil {
			failed++
			continue
		}
		if want := p.Apply(schema, slices.Values(full)); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: pushdown %+v over %v diverges from the shared helper\ngot:  %v\nwant: %v", c, p, docs, got, want)
		}
		kept += len(got)
	}
	t.Logf("400 cases: %d failed in both runs, %d rows kept by the others", failed, kept)
}
