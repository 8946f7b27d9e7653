package wrapper

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"bdi/internal/lifecycle"
	"bdi/internal/relational"
)

// DocumentSource supplies the JSON documents a JSON wrapper transforms. A
// data source typically exposes one DocumentSource per endpoint/method.
type DocumentSource interface {
	// Documents returns the current batch of documents (e.g. the events
	// accumulated since the last poll, or the full response of a REST call).
	// A cancelled ctx aborts the fetch (an HTTP source tears down the
	// in-flight request).
	Documents(ctx context.Context) ([]Document, error)
}

// StaticDocuments is a DocumentSource over a fixed slice of documents.
type StaticDocuments []Document

// Documents implements DocumentSource.
func (s StaticDocuments) Documents(context.Context) ([]Document, error) { return s, nil }

// DocumentFunc adapts a function to the DocumentSource interface.
type DocumentFunc func(ctx context.Context) ([]Document, error)

// Documents implements DocumentSource.
func (f DocumentFunc) Documents(ctx context.Context) ([]Document, error) { return f(ctx) }

// HTTPSource fetches a JSON array of documents from a REST endpoint. It
// plays the role of the HTTP query engine under a wrapper; authentication,
// rate limits and query parameters are its concern, not the ontology's.
type HTTPSource struct {
	URL    string
	Client *http.Client
	// Header holds extra request headers (e.g. an Authorization token).
	Header http.Header
	// Envelope optionally names a top-level field that holds the document
	// array (e.g. "posts" when the response is {"posts": [...]}).
	Envelope string
}

// NewHTTPSource returns an HTTP document source with a 10 second timeout.
func NewHTTPSource(url string) *HTTPSource {
	return &HTTPSource{URL: url, Client: &http.Client{Timeout: 10 * time.Second}}
}

// Documents implements DocumentSource: the request carries ctx, so a
// cancelled query aborts the source round-trip immediately.
func (h *HTTPSource) Documents(ctx context.Context) ([]Document, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.URL, nil)
	if err != nil {
		return nil, err
	}
	for k, vs := range h.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	client := h.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("wrapper: GET %s returned %s", h.URL, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return DecodeDocuments(body, h.Envelope)
}

// DecodeDocuments parses a JSON payload into documents. The payload may be a
// JSON array of objects, a single object, or an enveloped object whose
// `envelope` field holds the array.
func DecodeDocuments(payload []byte, envelope string) ([]Document, error) {
	if envelope != "" {
		var wrapper map[string]json.RawMessage
		if err := json.Unmarshal(payload, &wrapper); err != nil {
			return nil, fmt.Errorf("wrapper: decoding enveloped payload: %w", err)
		}
		inner, ok := wrapper[envelope]
		if !ok {
			return nil, fmt.Errorf("wrapper: payload has no %q envelope", envelope)
		}
		payload = inner
	}
	var docs []Document
	if err := json.Unmarshal(payload, &docs); err == nil {
		return docs, nil
	}
	var single Document
	if err := json.Unmarshal(payload, &single); err == nil {
		return []Document{single}, nil
	}
	return nil, fmt.Errorf("wrapper: payload is neither a JSON object nor an array of objects")
}

// JSON is a wrapper over a DocumentSource with a projection pipeline; it is
// the Go analogue of the MongoDB aggregation wrapper of Code 2.
type JSON struct {
	name     string
	source   string
	schema   relational.Schema
	docs     DocumentSource
	pipeline []Op
	// SkipBadDocuments makes documents that fail the pipeline be dropped
	// instead of failing the whole wrapper execution.
	SkipBadDocuments bool
}

// NewJSON returns a JSON wrapper.
//
// name and source identify the wrapper and its data source; schema declares
// the projected attributes (marking IDs); docs supplies the documents; and
// pipeline transforms each document into a flat tuple.
func NewJSON(name, source string, schema relational.Schema, docs DocumentSource, pipeline ...Op) *JSON {
	return &JSON{name: name, source: source, schema: schema, docs: docs, pipeline: pipeline}
}

// Name implements Wrapper.
func (j *JSON) Name() string { return j.name }

// Source implements Wrapper.
func (j *JSON) Source() string { return j.source }

// Schema implements Wrapper.
func (j *JSON) Schema() relational.Schema { return j.schema }

// Pipeline returns the pipeline step descriptions, for documentation and the
// MDM user interface.
func (j *JSON) Pipeline() []string {
	out := make([]string, len(j.pipeline))
	for i, op := range j.pipeline {
		out[i] = op.Describe()
	}
	return out
}

// Rows implements Wrapper: it fetches the documents under ctx and runs the
// pipeline on each (checking cancellation at chunk granularity), compiled
// against the pushdown once: a prunable step whose attribute p drops is
// skipped, and the others fill the slot of their kept attribute, if any, in
// one scratch row of cells (the last write wins) that Pushdown.Apply interns.
// Steps that can fail are never pruned, so exactly the same documents succeed
// as in a full execution.
func (j *JSON) Rows(ctx context.Context, p relational.Pushdown, d *relational.ValueDict) (*relational.ColRelation, error) {
	_, kept := p.Project(j.schema)
	type step struct {
		op   Op
		slot int // into kept; -1: the attribute is not kept
	}
	steps := make([]step, 0, len(j.pipeline))
	for _, op := range j.pipeline {
		attr, prunable := op.Output()
		if slot := slices.Index(kept, attr); slot >= 0 || !prunable {
			steps = append(steps, step{op, slot})
		}
	}
	docs, err := j.docs.Documents(ctx)
	if err != nil {
		return nil, err
	}
	rows := func(yield func([]relational.Value) bool) {
		cells := make([]relational.Value, len(kept))
	next:
		for i, doc := range docs {
			if i%lifecycle.CheckEvery == 0 {
				if err = ctx.Err(); err != nil {
					return
				}
			}
			for k := range cells {
				cells[k] = relational.Absent
			}
			for _, s := range steps {
				v, stepErr := s.op.Value(doc)
				if stepErr != nil {
					if j.SkipBadDocuments {
						continue next
					}
					err = fmt.Errorf("wrapper %s: %w", j.name, stepErr)
					return
				}
				if s.slot >= 0 {
					cells[s.slot] = v
				}
			}
			if !yield(cells) {
				return
			}
		}
	}
	if c := p.Apply(j.name, j.schema, rows, d); err == nil {
		return c, nil
	}
	return nil, err
}
