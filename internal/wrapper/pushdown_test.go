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
		Constant{As: "tag", Fixed: "v1"},
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
	d := relational.NewValueDict()
	c, err := pushdownTestJSON(docs).Rows(context.Background(), relational.Pushdown{Attrs: []string{"ratio"}}, d)
	if err != nil {
		t.Fatalf("pushdown failed: %v", err)
	}
	rel := c.Decode(d)
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
	_, fullErr := j.Rows(context.Background(), relational.Pushdown{}, relational.NewValueDict())
	_, pdErr := j.Rows(context.Background(), relational.Pushdown{Attrs: []string{"id"}}, relational.NewValueDict())
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
	reg := NewRegistry()
	reg.Register(m)
	got, err := fetched(reg, "w", pd)
	if err != nil {
		t.Fatalf("pushdown failed: %v", err)
	}
	if got.String() != want {
		t.Fatalf("memory pushdown diverges from reference semantics\nwant: %s\ngot:  %s", want, got)
	}
	full, err := fetched(reg, "w", relational.Pushdown{})
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
	rel, err := fetched(q, "wm", relational.Pushdown{Attrs: []string{"SM/a"}})
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
	got, err := fetched(reg, "w", pd)
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
func (p plainWrapper) Rows(ctx context.Context, pd relational.Pushdown, d *relational.ValueDict) (*relational.ColRelation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, src := pd.Project(p.schema)
	return pd.Apply(p.Name(), p.schema, relational.TupleCells(p.rows, src), d), nil
}

// TestJSONRowsPushdownParityRandomized holds the column path to a
// tuple-at-a-time reference built here: the full pipeline run on each
// document into a tuple of its own, Tuple.Project onto the kept attributes,
// and the rename. For generated pipelines (required, optional and nested
// paths, constants, ratios over failing documents), documents,
// SkipBadDocuments settings and pushdowns (attributes, renames), the decoded
// columns of JSON.Rows(ctx, p, d) equal the reference tuple for tuple, in
// order, and fail with the same error. A Memory arm holds the same wrapper
// outputs, with cells outside the schema, to the same reference.
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
				pipeline = append(pipeline, Constant{As: as, Fixed: values[rng.Intn(len(values))]})
			case 2:
				pipeline = append(pipeline, ComputeRatio{Numerator: pick(paths), Denominator: pick(paths), As: as})
			default:
				// No As: the attribute is the path's last segment.
				p := ProjectField{Path: pick(paths), Optional: rng.Intn(2) == 0}
				as, _ = p.Output()
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

		// The reference: every op of the pipeline, document by document.
		var outs []relational.Tuple
		var wantErr error
	docs:
		for _, doc := range docs {
			out := relational.Tuple{}
			for _, op := range pipeline {
				v, err := op.Value(doc)
				if err != nil {
					if j.SkipBadDocuments {
						continue docs
					}
					wantErr = fmt.Errorf("wrapper wj: %w", err)
					break docs
				}
				attr, _ := op.Output()
				out[attr] = v
			}
			outs = append(outs, out)
		}
		want := referencePushdown(schema, p, outs)

		got, gotErr := decodedRows(context.Background(), j, p)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("case %d: errors differ under %+v\nreference: %v\ncolumns:   %v", c, p, wantErr, gotErr)
		}
		if wantErr != nil {
			failed++
			continue
		}
		if !sameTuples(got, want) {
			t.Fatalf("case %d: pushdown %+v over %v diverges from the reference\ngot:  %v\nwant: %v", c, p, docs, got, want)
		}
		kept += len(got)

		// The Memory arm: the pipeline outputs as literal rows, one cell
		// outside the schema each.
		for _, out := range outs {
			out["undeclared"] = values[rng.Intn(len(values))]
		}
		m := NewMemory("wm", "SM", schema, outs)
		got, err := decodedRows(context.Background(), m, p)
		if err != nil || !sameTuples(got, want) {
			t.Fatalf("case %d: Memory under %+v diverges from the reference (%v)\ngot:  %v\nwant: %v", c, p, err, got, want)
		}
	}
	t.Logf("400 cases: %d failed in both runs, %d rows kept by the others", failed, kept)
}

// referencePushdown applies the pushdown contract to full-output tuples one
// at a time: the attributes p names and every ID (all of them for an empty
// p.Attrs), kept by Tuple.Project, then renamed.
func referencePushdown(s relational.Schema, p relational.Pushdown, rows []relational.Tuple) []relational.Tuple {
	var keep []string
	for _, a := range s.Attributes {
		if len(p.Attrs) == 0 || a.ID || slices.Contains(p.Attrs, a.Name) {
			keep = append(keep, a.Name)
		}
	}
	out := make([]relational.Tuple, len(rows))
	for i, row := range rows {
		out[i] = relational.Tuple{}
		for k, v := range row.Project(keep) {
			if nn, ok := p.Rename[k]; ok {
				k = nn
			}
			out[i][k] = v
		}
	}
	return out
}

// sameTuples reports whether got and want hold the same attributes, row by
// row, with values equal under the dictionary's equality: a decoded cell is
// its equality class's first-interned value (2.0 may come back as int64(2)).
func sameTuples(got, want []relational.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for k, v := range want[i] {
			if g, ok := got[i][k]; !ok || !relational.ValuesEqual(g, v) {
				return false
			}
		}
	}
	return true
}

// TestRowsNilVersusMissing checks that the column path keeps an explicit nil
// apart from an absent cell, for JSON and Memory: an optional projection of a
// field the document lacks is NilValueID, an attribute nothing writes is
// MissingValueID, and the decoded columns are exactly the tuples a
// tuple-at-a-time projection builds.
func TestRowsNilVersusMissing(t *testing.T) {
	schema := relational.NewSchema([]string{"id"}, []string{"opt", "never"})
	want := []relational.Tuple{{"id": 1.0, "opt": nil}, {"id": 2.0, "opt": "x"}}
	wrappers := []Wrapper{
		NewJSON("wj", "SJ", schema, StaticDocuments{{"monitorId": 1.0}, {"monitorId": 2.0, "extra": "x"}},
			ProjectField{Path: "monitorId", As: "id"},
			ProjectField{Path: "extra", As: "opt", Optional: true},
		),
		NewMemory("wm", "SM", schema, want),
	}
	for _, w := range wrappers {
		d := relational.NewValueDict()
		c, err := w.Rows(context.Background(), relational.Pushdown{}, d)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if c.Name != w.Name() || fmt.Sprint(c.Schema.Names()) != "[id opt never]" || c.NumRows() != 2 {
			t.Fatalf("%s: fetched %s%v with %d rows", w.Name(), c.Name, c.Schema.Names(), c.NumRows())
		}
		if got := c.Cols[1][0]; got != relational.NilValueID {
			t.Errorf("%s: the optional field a document lacks is ValueID %d, want NilValueID", w.Name(), got)
		}
		for r, id := range c.Cols[2] {
			if id != relational.MissingValueID {
				t.Errorf("%s: row %d of an attribute nothing writes is ValueID %d, want MissingValueID", w.Name(), r, id)
			}
		}
		if got := c.Decode(d).Tuples; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %v, want %v", w.Name(), got, want)
		}
	}
}

// TestJSONRowsPipelineEdgeCases pins the pipeline semantics a pushdown must
// keep, case by case: the last of two steps writing one attribute wins, a
// step whose output the schema lacks still fails its document, a fallible
// step is run (and fails or skips its document) when the pushdown drops its
// attribute, a schema attribute no step writes is MissingValueID rather than
// nil, and SkipBadDocuments drops exactly the failing documents, in order.
func TestJSONRowsPipelineEdgeCases(t *testing.T) {
	idOnly := relational.Pushdown{Attrs: []string{"id"}}
	renamed := relational.Pushdown{Attrs: []string{"x"}, Rename: map[string]string{"id": "SJ/id", "x": "SJ/x"}}
	noField := func(f string) string { return fmt.Sprintf("wrapper wj: wrapper: document has no field %q", f) }
	cases := []struct {
		name     string
		attrs    []string // non-ID attributes of the schema, after "id"
		pipeline []Op
		docs     []Document
		skip     bool
		p        relational.Pushdown
		want     []relational.Tuple
		wantErr  string
	}{
		{
			name:  "last write wins",
			attrs: []string{"x"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"},
				ProjectField{Path: "a", As: "x"}, Constant{As: "x", Fixed: "c"}},
			docs: []Document{{"n": 1.0, "a": "va"}},
			p:    renamed,
			want: []relational.Tuple{{"SJ/id": 1.0, "SJ/x": "c"}},
		},
		{
			name:  "last write wins, projection last",
			attrs: []string{"x"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"},
				Constant{As: "x", Fixed: "c"}, ProjectField{Path: "a", As: "x"}},
			docs: []Document{{"n": 1.0, "a": "va"}},
			want: []relational.Tuple{{"id": 1.0, "x": "va"}},
		},
		{
			name:  "last write of nil wins",
			attrs: []string{"x"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"},
				Constant{As: "x", Fixed: "c"}, ProjectField{Path: "none", As: "x", Optional: true}},
			docs: []Document{{"n": 1.0}},
			p:    renamed,
			want: []relational.Tuple{{"SJ/id": 1.0, "SJ/x": nil}},
		},
		{
			name:  "output outside the schema still fails",
			attrs: []string{"x"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"}, ProjectField{Path: "a", As: "x"},
				ProjectField{Path: "must", As: "undeclared"}, Constant{As: "alsoUndeclared", Fixed: 1}},
			docs:    []Document{{"n": 1.0, "a": "va", "must": 1}, {"n": 2.0, "a": "vb"}},
			wantErr: noField("must"),
		},
		{
			name:  "output outside the schema is dropped",
			attrs: []string{"x"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"}, ProjectField{Path: "a", As: "x"},
				ProjectField{Path: "must", As: "undeclared"}, Constant{As: "alsoUndeclared", Fixed: 1}},
			docs: []Document{{"n": 1.0, "a": "va", "must": 1}, {"n": 2.0, "a": "vb"}},
			skip: true,
			p:    renamed,
			want: []relational.Tuple{{"SJ/id": 1.0, "SJ/x": "va"}},
		},
		{
			name:  "fallible step on a pruned attribute fails",
			attrs: []string{"r"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"},
				ComputeRatio{Numerator: "wait", Denominator: "watch", As: "r"}},
			docs:    []Document{{"n": 1.0, "wait": 1.0, "watch": 2.0}, {"n": 2.0, "watch": 2.0}},
			p:       idOnly,
			wantErr: noField("wait"),
		},
		{
			name:  "fallible step on a pruned attribute skips",
			attrs: []string{"r"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"},
				ComputeRatio{Numerator: "wait", Denominator: "watch", As: "r"}},
			docs: []Document{{"n": 1.0, "wait": 1.0, "watch": 2.0}, {"n": 2.0, "watch": 2.0}, {"n": 3.0, "wait": 1.0, "watch": 0.0}},
			skip: true,
			p:    idOnly,
			want: []relational.Tuple{{"id": 1.0}, {"id": 3.0}},
		},
		{
			name:     "attribute no step writes is missing",
			attrs:    []string{"x", "never"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"}, ProjectField{Path: "a", As: "x", Optional: true}},
			docs:     []Document{{"n": 1.0}, {"n": 2.0, "a": "va"}},
			p:        relational.Pushdown{Attrs: []string{"never", "x"}, Rename: map[string]string{"never": "SJ/never"}},
			want:     []relational.Tuple{{"id": 1.0, "x": nil}, {"id": 2.0, "x": "va"}},
		},
		{
			name:  "skip bad documents keeps the others in order",
			attrs: []string{"x", "r"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"}, ProjectField{Path: "a", As: "x"},
				ComputeRatio{Numerator: "wait", Denominator: "watch", As: "r"}, Constant{As: "x", Fixed: "c"}},
			docs: []Document{
				{"n": 1.0, "a": "va", "wait": 1.0, "watch": 4.0},
				{"n": 2.0, "wait": 1.0, "watch": 4.0},
				{"n": 3.0, "a": "vc", "wait": "x", "watch": 4.0},
				{"n": 4.0, "a": "vd", "wait": 3.0, "watch": 4.0},
				{"a": "ve", "wait": 3.0, "watch": 4.0},
			},
			skip: true,
			want: []relational.Tuple{{"id": 1.0, "x": "c", "r": 0.25}, {"id": 4.0, "x": "c", "r": 0.75}},
		},
		{
			name:  "first failing step names the error",
			attrs: []string{"x", "r"},
			pipeline: []Op{ProjectField{Path: "n", As: "id"}, ProjectField{Path: "a", As: "x"},
				ComputeRatio{Numerator: "wait", Denominator: "watch", As: "r"}},
			docs:    []Document{{"n": 1.0, "a": "va", "wait": 1.0, "watch": 4.0}, {"n": 2.0}},
			p:       relational.Pushdown{Attrs: []string{"r"}},
			wantErr: noField("a"),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			schema := relational.NewSchema([]string{"id"}, tc.attrs)
			j := NewJSON("wj", "SJ", schema, StaticDocuments(tc.docs), tc.pipeline...)
			j.SkipBadDocuments = tc.skip
			d := relational.NewValueDict()
			c, err := j.Rows(context.Background(), tc.p, d)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("error = %v, want %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, _ := tc.p.Project(schema)
			if fmt.Sprint(c.Schema.Names()) != fmt.Sprint(want.Names()) {
				t.Fatalf("schema %v, want %v", c.Schema.Names(), want.Names())
			}
			for i, a := range want.Attributes {
				if !strings.HasSuffix(a.Name, "never") {
					continue
				}
				for r, id := range c.Cols[i] {
					if id != relational.MissingValueID {
						t.Errorf("row %d of %s is ValueID %d, want MissingValueID", r, a.Name, id)
					}
				}
			}
			if got := c.Decode(d).Tuples; !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decoded %v, want %v", got, tc.want)
			}
		})
	}
}
