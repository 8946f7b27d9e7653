package wrapper

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bdi/internal/relational"
)

// vodDocuments mirrors the JSON payload of Code 1 in the paper.
func vodDocuments() []Document {
	return []Document{
		{"monitorId": float64(12), "timestamp": float64(1475010424), "bitrate": float64(6), "waitTime": float64(3), "watchTime": float64(4)},
		{"monitorId": float64(12), "timestamp": float64(1475010425), "bitrate": float64(5), "waitTime": float64(9), "watchTime": float64(10)},
		{"monitorId": float64(18), "timestamp": float64(1475010426), "bitrate": float64(8), "waitTime": float64(1), "watchTime": float64(10)},
	}
}

// newW1 builds the running example's wrapper w1: it projects VoDmonitorId
// (renamed from monitorId) and computes lagRatio = waitTime / watchTime,
// mirroring the MongoDB aggregation of Code 2.
func newW1(docs DocumentSource) *JSON {
	return NewJSON("w1", "D1",
		relational.NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}),
		docs,
		ProjectField{Path: "monitorId", As: "VoDmonitorId"},
		ComputeRatio{Numerator: "waitTime", Denominator: "watchTime", As: "lagRatio"},
	)
}

// decodedRows runs the wrapper into a dictionary of its own and decodes its
// output.
func decodedRows(ctx context.Context, w Wrapper, p relational.Pushdown) ([]relational.Tuple, error) {
	d := relational.NewValueDict()
	c, err := w.Rows(ctx, p, d)
	if err != nil {
		return nil, err
	}
	return c.Decode(d).Tuples, nil
}

// fetched fetches a wrapper through a resolver into a dictionary of its own
// and decodes its output.
func fetched(r relational.WrapperResolver, name string, p relational.Pushdown) (*relational.Relation, error) {
	d := relational.NewValueDict()
	c, err := r.Fetch(context.Background(), name, p, d)
	if err != nil {
		return nil, err
	}
	return c.Decode(d), nil
}

func TestJSONWrapperPipeline(t *testing.T) {
	w := newW1(StaticDocuments(vodDocuments()))
	rows, err := decodedRows(context.Background(), w, relational.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0]["VoDmonitorId"] != float64(12) {
		t.Errorf("VoDmonitorId = %v", rows[0]["VoDmonitorId"])
	}
	if rows[0]["lagRatio"] != 0.75 {
		t.Errorf("lagRatio = %v, want 0.75", rows[0]["lagRatio"])
	}
	// The raw fields must not leak into the tuple.
	if _, ok := rows[0]["waitTime"]; ok {
		t.Error("undeclared attribute leaked into the tuple")
	}
	if len(w.Pipeline()) != 2 {
		t.Errorf("pipeline description = %v", w.Pipeline())
	}
}

func TestJSONWrapperErrorOnMissingField(t *testing.T) {
	bad := StaticDocuments([]Document{{"other": 1.0}})
	w := newW1(bad)
	if _, err := decodedRows(context.Background(), w, relational.Pushdown{}); err == nil {
		t.Error("expected error for missing field")
	}
	w.SkipBadDocuments = true
	rows, err := decodedRows(context.Background(), w, relational.Pushdown{})
	if err != nil || len(rows) != 0 {
		t.Errorf("skip-bad-documents: rows=%v err=%v", rows, err)
	}
}

func TestComputeRatioEdgeCases(t *testing.T) {
	out := relational.Tuple{}
	op := ComputeRatio{Numerator: "a", Denominator: "b", As: "r"}
	if err := op.Apply(Document{"a": 1.0, "b": 0.0}, out); err != nil {
		t.Fatal(err)
	}
	if out["r"] != nil {
		t.Error("division by zero should yield nil")
	}
	if err := op.Apply(Document{"a": "3", "b": "4"}, out); err != nil {
		t.Fatalf("numeric strings should be accepted: %v", err)
	}
	if out["r"] != 0.75 {
		t.Errorf("r = %v", out["r"])
	}
	if err := op.Apply(Document{"a": "x", "b": 1.0}, out); err == nil {
		t.Error("non-numeric field should error")
	}
	if err := op.Apply(Document{"b": 1.0}, out); err == nil {
		t.Error("missing numerator should error")
	}
	// A ratio overflowing to ±Inf has no value, as for a zero denominator.
	for _, doc := range []Document{{"a": 1e308, "b": 1e-308}, {"a": "-1e308", "b": "1e-10"}} {
		if err := op.Apply(doc, out); err != nil || out["r"] != nil {
			t.Errorf("%v: r = %v, err %v; want nil, no error", doc, out["r"], err)
		}
	}
}

// TestNonFiniteFieldIsNotNumeric checks that NaN and ±Inf, spelled as a
// string or held as a float, fail the document like any non-numeric field:
// an answer has no JSON for them.
func TestNonFiniteFieldIsNotNumeric(t *testing.T) {
	op := ComputeRatio{Numerator: "a", Denominator: "b", As: "r"}
	for _, v := range []any{"NaN", "nan", "Inf", "+Inf", "-Infinity", "1e400", math.NaN(), math.Inf(-1), float32(math.Inf(1))} {
		if err := op.Apply(Document{"a": v, "b": 2.0}, relational.Tuple{}); err == nil {
			t.Errorf("numerator %v (%T) accepted", v, v)
		}
		if err := op.Apply(Document{"a": 1.0, "b": v}, relational.Tuple{}); err == nil {
			t.Errorf("denominator %v (%T) accepted", v, v)
		}
	}
	w := newW1(StaticDocuments{
		{"monitorId": 1.0, "waitTime": "NaN", "watchTime": 2.0},
		{"monitorId": 2.0, "waitTime": 1.0, "watchTime": 2.0},
	})
	if _, err := decodedRows(context.Background(), w, relational.Pushdown{}); err == nil || !strings.Contains(err.Error(), "waitTime") {
		t.Fatalf("a NaN waitTime must fail the wrapper naming the field, got %v", err)
	}
	w.SkipBadDocuments = true
	rows, err := decodedRows(context.Background(), w, relational.Pushdown{})
	if err != nil || len(rows) != 1 || rows[0]["lagRatio"] != 0.5 {
		t.Fatalf("skip-bad-documents: rows=%v err=%v, want only the finite document", rows, err)
	}
}

func TestProjectFieldNestedAndOptional(t *testing.T) {
	doc := Document{"user": map[string]any{"id": float64(7), "name": "ana"}}
	out := relational.Tuple{}
	if err := (ProjectField{Path: "user.id", As: "userId"}).Apply(doc, out); err != nil {
		t.Fatal(err)
	}
	if out["userId"] != float64(7) {
		t.Errorf("userId = %v", out["userId"])
	}
	if err := (ProjectField{Path: "user.missing"}).Apply(doc, out); err == nil {
		t.Error("missing nested field should error")
	}
	if err := (ProjectField{Path: "user.missing", As: "m", Optional: true}).Apply(doc, out); err != nil {
		t.Errorf("optional missing field should not error: %v", err)
	}
	if v, ok := out["m"]; !ok || v != nil {
		t.Error("optional missing field should be nil")
	}
	// Default output name is the last path segment.
	if err := (ProjectField{Path: "user.name"}).Apply(doc, out); err != nil {
		t.Fatal(err)
	}
	if out["name"] != "ana" {
		t.Errorf("name = %v", out["name"])
	}
}

func TestConstantAndConcat(t *testing.T) {
	out := relational.Tuple{}
	if err := (Constant{As: "version", Value: "v2"}).Apply(Document{}, out); err != nil {
		t.Fatal(err)
	}
	if out["version"] != "v2" {
		t.Errorf("version = %v", out["version"])
	}
	doc := Document{"first": "sergi", "last": "nadal"}
	if err := (Concat{Paths: []string{"first", "last"}, Separator: " ", As: "author"}).Apply(doc, out); err != nil {
		t.Fatal(err)
	}
	if out["author"] != "sergi nadal" {
		t.Errorf("author = %v", out["author"])
	}
	if err := (Concat{Paths: []string{"missing"}, As: "x"}).Apply(doc, out); err == nil {
		t.Error("missing concat path should error")
	}
	if !strings.Contains((Constant{As: "a", Value: 1}).Describe(), "a") {
		t.Error("describe missing attribute name")
	}
}

func TestMemoryWrapperAndRegistry(t *testing.T) {
	schema := relational.NewSchema([]string{"FGId"}, []string{"tweet"})
	w2 := NewMemory("w2", "D2", schema, []relational.Tuple{
		{"FGId": 77, "tweet": "I continuously see the loading symbol"},
		{"FGId": 45, "tweet": "Your video player is great!"},
	})
	reg := NewRegistry()
	reg.Register(w2)
	reg.Register(newW1(StaticDocuments(vodDocuments())))
	reg.Alias("http://example.org/Wrapper/w2", "w2")

	if reg.Len() != 2 {
		t.Errorf("registry size = %d", reg.Len())
	}
	if _, ok := reg.Get("w2"); !ok {
		t.Error("w2 not found by name")
	}
	if _, ok := reg.Get("http://example.org/Wrapper/w2"); !ok {
		t.Error("w2 not found by alias")
	}
	if _, ok := reg.Get("unknown"); ok {
		t.Error("unknown wrapper should not resolve")
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "w1" {
		t.Errorf("names = %v", got)
	}
	if w, _ := reg.Get("w1"); w.Source() != "D1" {
		t.Errorf("w1 source = %s", w.Source())
	}
	rel, err := fetched(reg, "w2", relational.Pushdown{})
	if err != nil || rel.Cardinality() != 2 {
		t.Errorf("fetch w2 = %v, %v", rel, err)
	}
	if _, err := fetched(reg, "missing", relational.Pushdown{}); err == nil {
		t.Error("fetching unknown wrapper should error")
	}
	// Appending events to the memory wrapper is visible on the next fetch.
	w2.Append(relational.Tuple{"FGId": 99, "tweet": "new"})
	rel, _ = fetched(reg, "w2", relational.Pushdown{})
	if rel.Cardinality() != 3 {
		t.Error("appended tuple not visible")
	}
}

func TestQualifiedResolver(t *testing.T) {
	reg := NewRegistry()
	reg.Register(newW1(StaticDocuments(vodDocuments())))
	q := NewQualifiedResolver(reg)
	rel, err := fetched(q, "w1", relational.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Schema.Has("D1/VoDmonitorId") || !rel.Schema.Has("D1/lagRatio") {
		t.Errorf("qualified schema = %v", rel.Schema)
	}
	if !rel.Schema.IsID("D1/VoDmonitorId") {
		t.Error("ID flag lost during qualification")
	}
	if _, err := fetched(q, "missing", relational.Pushdown{}); err == nil {
		t.Error("unknown wrapper should error")
	}
}

func TestHTTPSourceAndDecode(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/array" {
			w.Write([]byte(`[{"monitorId": 12, "waitTime": 3, "watchTime": 4}]`))
			return
		}
		if r.URL.Path == "/enveloped" {
			w.Write([]byte(`{"posts": [{"id": 1}, {"id": 2}]}`))
			return
		}
		if r.URL.Path == "/single" {
			w.Write([]byte(`{"id": 5}`))
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()

	docs, err := NewHTTPSource(srv.URL + "/array").Documents(context.Background())
	if err != nil || len(docs) != 1 {
		t.Fatalf("array fetch = %v, %v", docs, err)
	}
	env := NewHTTPSource(srv.URL + "/enveloped")
	env.Envelope = "posts"
	docs, err = env.Documents(context.Background())
	if err != nil || len(docs) != 2 {
		t.Fatalf("enveloped fetch = %v, %v", docs, err)
	}
	docs, err = NewHTTPSource(srv.URL + "/single").Documents(context.Background())
	if err != nil || len(docs) != 1 {
		t.Fatalf("single fetch = %v, %v", docs, err)
	}
	if _, err := NewHTTPSource(srv.URL + "/404").Documents(context.Background()); err == nil {
		t.Error("404 should be an error")
	}
	// A full wrapper over HTTP.
	w := newW1(NewHTTPSource(srv.URL + "/array"))
	rows, err := decodedRows(context.Background(), w, relational.Pushdown{})
	if err != nil || len(rows) != 1 || rows[0]["lagRatio"] != 0.75 {
		t.Errorf("HTTP wrapper rows = %v, %v", rows, err)
	}
}

func TestDecodeDocumentsErrors(t *testing.T) {
	if _, err := DecodeDocuments([]byte(`"just a string"`), ""); err == nil {
		t.Error("scalar JSON should error")
	}
	if _, err := DecodeDocuments([]byte(`{"a": 1}`), "missing"); err == nil {
		t.Error("missing envelope should error")
	}
	if _, err := DecodeDocuments([]byte(`not json`), "x"); err == nil {
		t.Error("invalid JSON should error")
	}
}

func TestDocumentFunc(t *testing.T) {
	called := 0
	src := DocumentFunc(func(context.Context) ([]Document, error) {
		called++
		return []Document{{"id": 1.0}}, nil
	})
	if _, err := src.Documents(context.Background()); err != nil || called != 1 {
		t.Error("DocumentFunc not invoked")
	}
}

// blockedWrapper is a third-party wrapper whose source query never returns
// on its own.
type blockedWrapper struct{ entered chan struct{} }

func (blockedWrapper) Name() string              { return "blocked" }
func (blockedWrapper) Source() string            { return "SB" }
func (blockedWrapper) Schema() relational.Schema { return relational.Schema{} }
func (b blockedWrapper) Rows(ctx context.Context, _ relational.Pushdown, _ *relational.ValueDict) (*relational.ColRelation, error) {
	close(b.entered)
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCancelledFetchReturnsCanceled checks the one cancellation contract of
// the read path: a fetch blocked in its source returns context.Canceled as
// soon as the requesting context is cancelled, whatever kind of wrapper or
// document source sits underneath.
func TestCancelledFetchReturnsCanceled(t *testing.T) {
	handlerEntered := make(chan struct{})
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(handlerEntered)
		<-release
	}))
	defer srv.Close()
	defer close(release)

	funcEntered := make(chan struct{})
	blockedFunc := DocumentFunc(func(ctx context.Context) ([]Document, error) {
		close(funcEntered)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	plainEntered := make(chan struct{})

	cases := []struct {
		name    string
		w       Wrapper
		entered chan struct{}
	}{
		{"JSON over DocumentFunc", NewJSON("blocked", "SB", relational.Schema{}, blockedFunc), funcEntered},
		{"JSON over HTTPSource", NewJSON("blocked", "SB", relational.Schema{}, NewHTTPSource(srv.URL)), handlerEntered},
		{"third-party wrapper", blockedWrapper{plainEntered}, plainEntered},
	}
	for _, tc := range cases {
		reg := NewRegistry()
		reg.Register(tc.w)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := NewQualifiedResolver(reg).Fetch(ctx, "blocked", relational.Pushdown{}, relational.NewValueDict())
			errc <- err
		}()
		<-tc.entered
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Errorf("%s: blocked fetch returned %v, want context.Canceled", tc.name, err)
		}
	}

	// The in-memory wrapper cannot block; it must still refuse a context
	// that is already cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMemory("m", "SM", relational.NewSchema([]string{"id"}, nil), []relational.Tuple{{"id": 1}})
	if _, err := m.Rows(ctx, relational.Pushdown{}, relational.NewValueDict()); !errors.Is(err, context.Canceled) {
		t.Errorf("Memory: cancelled fetch returned %v, want context.Canceled", err)
	}
}
