package mdm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bdi/internal/core"
	"bdi/internal/workload"
)

// newSupersedeHandler returns the API handler of a fresh server over the
// SUPERSEDE running example (w1-w3, executable).
func newSupersedeHandler(t testing.TB) http.Handler {
	t.Helper()
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(o, workload.SupersedeTable1Registry(false)).Handler()
}

// postRaw posts body to path through h.
func postRaw(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// jsonError returns the "error" field of a JSON error body, or fails.
func jsonError(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("body %q is not a JSON error (%v)", rec.Body, err)
	}
	return e.Error
}

// TestRequestBodyBoundedAndSingleValue pins the body contract of the three
// POST endpoints that decode JSON: a body over maxRequestBody answers 413, a
// second JSON value (or trailing garbage) 400, both as JSON error bodies;
// trailing whitespace is fine.
func TestRequestBodyBoundedAndSingleValue(t *testing.T) {
	release, _ := json.Marshal(w4Release())
	query, _ := json.Marshal(QueryRequest{SPARQL: exampleQuery})
	endpoints := map[string][]byte{
		"/api/releases":        release,
		"/api/queries/rewrite": query,
		"/api/queries/answer":  query,
	}
	for path, body := range endpoints {
		t.Run(strings.TrimPrefix(path, "/api/"), func(t *testing.T) {
			h := newSupersedeHandler(t)
			// Padding inside the value keeps the body one well-formed JSON
			// value, so only its size can be at fault.
			padded := append([]byte(`{"padding":"`+strings.Repeat("x", maxRequestBody)+`",`), body[1:]...)
			rec := postRaw(h, path, padded)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("oversized body = %d, want 413: %.200s", rec.Code, rec.Body)
			}
			jsonError(t, rec)

			for name, trailer := range map[string]string{"second value": " {}", "trailing garbage": "}x"} {
				rec := postRaw(h, path, append(append([]byte{}, body...), trailer...))
				if rec.Code != http.StatusBadRequest {
					t.Errorf("%s = %d, want 400: %s", name, rec.Code, rec.Body)
				}
				jsonError(t, rec)
			}

			rec = postRaw(h, path, append(append([]byte{}, body...), " \n\t"...))
			if rec.Code/100 != 2 {
				t.Errorf("body with trailing whitespace = %d, want 2xx: %s", rec.Code, rec.Body)
			}
		})
	}
}

// TestAnswerLimit pins how /api/queries/answer reads its limit: zero (or no
// limit field) is no limit, a positive limit keeps that many rows, and a
// negative one is a 400 JSON error naming the field.
func TestAnswerLimit(t *testing.T) {
	h := newSupersedeHandler(t)
	sparql, _ := json.Marshal(exampleQuery)
	for _, tc := range []struct {
		name   string
		limit  string
		status int
		rows   int
	}{
		{"absent", "", http.StatusOK, 3},
		{"zero", `,"limit":0`, http.StatusOK, 3},
		{"positive", `,"limit":2`, http.StatusOK, 2},
		{"above the answer", `,"limit":10`, http.StatusOK, 3},
		{"minus one", `,"limit":-1`, http.StatusBadRequest, 0},
		{"most negative", `,"limit":-9223372036854775808`, http.StatusBadRequest, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := postRaw(h, "/api/queries/answer", []byte(`{"sparql":`+string(sparql)+tc.limit+`}`))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if tc.status != http.StatusOK {
				if msg := jsonError(t, rec); !strings.Contains(msg, "limit") {
					t.Errorf("error %q does not name the limit", msg)
				}
				return
			}
			var answer AnswerResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil || len(answer.Rows) != tc.rows {
				t.Errorf("%d rows (decode error %v), want %d", len(answer.Rows), err, tc.rows)
			}
		})
	}
}

// unexpressibleQueries are the running example with one clause added that
// an OMQ cannot carry, each with the name its error must give.
var unexpressibleQueries = []struct{ clause, sparql string }{
	{"FILTER", strings.Replace(exampleQuery, "sup:lagRatio\n}", "sup:lagRatio .\n  FILTER(?y > 1000)\n}", 1)},
	{"LIMIT", exampleQuery + "LIMIT 1\n"},
	{"OFFSET", exampleQuery + "OFFSET 1\n"},
	{"FROM", strings.Replace(exampleQuery, "WHERE {", "FROM <http://example.org/Other>\nWHERE {", 1)},
	{"GRAPH", strings.Replace(exampleQuery, "sup:InfoMonitor G:hasFeature sup:lagRatio",
		"GRAPH <http://example.org/Other> { sup:InfoMonitor G:hasFeature sup:lagRatio }", 1)},
}

// TestQueryRejectsUnexpressibleClauses: the rewrite and answer endpoints
// answer 422 naming the clause, instead of answering the query without it.
func TestQueryRejectsUnexpressibleClauses(t *testing.T) {
	h := newSupersedeHandler(t)
	for _, q := range unexpressibleQueries {
		if q.sparql == exampleQuery {
			t.Fatalf("%s case did not change the running example", q.clause)
		}
		body, _ := json.Marshal(QueryRequest{SPARQL: q.sparql})
		for _, path := range []string{"/api/queries/rewrite", "/api/queries/answer"} {
			rec := postRaw(h, path, body)
			if rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s with %s = %d, want 422: %s", path, q.clause, rec.Code, rec.Body)
			}
			if msg := jsonError(t, rec); !strings.Contains(msg, q.clause) {
				t.Errorf("%s with %s: error %q does not name the clause", path, q.clause, msg)
			}
		}
	}
}

// fuzzStatusAllowed is what a request body may produce: success, a bad or
// oversized body, or a release or query the ontology rejects. Never a 500.
func fuzzStatusAllowed(code int) bool {
	switch code {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		return true
	}
	return code/100 == 2
}

// FuzzReleaseRequest posts arbitrary bytes to POST /api/releases on a fresh
// SUPERSEDE server, then answers the running example over whatever the
// release registered: neither may panic or answer 500. Seeded from
// testdata/fuzz/FuzzReleaseRequest.
func FuzzReleaseRequest(f *testing.F) {
	w4, _ := json.Marshal(w4Release())
	f.Add(w4)
	f.Add([]byte(`{"wrapper":"w1"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := newSupersedeHandler(t)
		if rec := postRaw(h, "/api/releases", body); !fuzzStatusAllowed(rec.Code) {
			t.Fatalf("release %q = %d: %s", body, rec.Code, rec.Body)
		}
		query, _ := json.Marshal(QueryRequest{SPARQL: exampleQuery})
		if rec := postRaw(h, "/api/queries/answer", query); !fuzzStatusAllowed(rec.Code) {
			t.Fatalf("answer after release %q = %d: %s", body, rec.Code, rec.Body)
		}
	})
}

// FuzzQueryRequest posts arbitrary bytes to the rewrite and answer
// endpoints of a fresh SUPERSEDE server: neither may panic or answer 500.
// Seeded from testdata/fuzz/FuzzQueryRequest.
func FuzzQueryRequest(f *testing.F) {
	query, _ := json.Marshal(QueryRequest{SPARQL: exampleQuery, Limit: 2})
	f.Add(query)
	negative, _ := json.Marshal(QueryRequest{SPARQL: exampleQuery, Limit: -1})
	f.Add(negative)
	f.Add([]byte(`{"sparql":"SELECT ?x WHERE { ?x ?p ?o }"}`))
	for _, q := range unexpressibleQueries {
		body, _ := json.Marshal(QueryRequest{SPARQL: q.sparql})
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := newSupersedeHandler(t)
		for _, path := range []string{"/api/queries/rewrite", "/api/queries/answer"} {
			if rec := postRaw(h, path, body); !fuzzStatusAllowed(rec.Code) {
				t.Fatalf("%s %q = %d: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}
