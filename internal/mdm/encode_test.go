package mdm

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bdi/internal/core"
	"bdi/internal/relational"
	"bdi/internal/source"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// answerExample posts the running example's query and returns the status and
// the body.
func answerExample(t *testing.T, o *core.Ontology, reg *wrapper.Registry) (int, []byte) {
	t.Helper()
	ts := httptest.NewServer(NewServer(o, reg).Handler())
	defer ts.Close()
	request, err := json.Marshal(QueryRequest{SPARQL: exampleQuery})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/queries/answer", "application/json", bytes.NewReader(request))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// errorOf decodes an {"error": ...} body, failing on anything else.
func errorOf(t *testing.T, body []byte) string {
	t.Helper()
	var reply struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &reply); err != nil || reply.Error == "" {
		t.Fatalf("want a JSON error body, got %q (%v)", body, err)
	}
	return reply.Error
}

// TestAnswerNonFiniteWaitTime pins what one VoD document whose waitTime is
// the string "NaN" does to an answer over the JSON wrappers: the document is
// not numeric, so the wrapper fails and the reply is a JSON error naming the
// field, never a 200 with an empty body.
func TestAnswerNonFiniteWaitTime(t *testing.T) {
	for _, bad := range []string{"NaN", "Inf", "-Infinity"} {
		o, err := core.BuildSupersedeOntology(true)
		if err != nil {
			t.Fatal(err)
		}
		gen := source.NewGenerator(3, 1)
		eco := source.NewEcosystem(gen)
		docs := gen.VoDDocumentsV1()
		docs[1]["waitTime"] = bad
		eco.VoD.RegisterStatic("v1", "events", docs)
		eco.VoD.RegisterStatic("v2", "events", gen.VoDDocumentsV2())
		eco.Feedback.RegisterStatic("v1", "feedback", gen.FeedbackDocuments())
		eco.Registry.RegisterStatic("v1", "apps", gen.AppLinkDocuments())
		status, body := answerExample(t, o, eco.WrapperRegistry(true))
		if status == http.StatusOK {
			t.Fatalf("waitTime %q: status 200 with body %q", bad, body)
		}
		if msg := errorOf(t, body); !strings.Contains(msg, `"waitTime"`) {
			t.Errorf("waitTime %q: error %q does not name the field", bad, msg)
		}
	}
}

// TestAnswerUnencodableValueIs500 pins that a value JSON cannot encode, a
// NaN held by an in-memory wrapper, answers 500 with a JSON error naming the
// answer column instead of a 200 with an empty body.
func TestAnswerUnencodableValueIs500(t *testing.T) {
	o, err := core.BuildSupersedeOntology(true)
	if err != nil {
		t.Fatal(err)
	}
	reg := workload.SupersedeTable1Registry(true)
	reg.Register(wrapper.NewMemory("w1", "D1",
		relational.NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}),
		[]relational.Tuple{{"VoDmonitorId": 12, "lagRatio": math.NaN()}}))
	status, body := answerExample(t, o, reg)
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", status, body)
	}
	if msg := errorOf(t, body); !strings.Contains(msg, `"lagRatio"`) {
		t.Errorf("error %q does not name the column", msg)
	}
}

// TestWriteJSONUnencodableValueIs500 pins that writeJSON builds the body
// before it writes the status.
func TestWriteJSONUnencodableValueIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", rec.Code, rec.Body)
	}
	errorOf(t, rec.Body.Bytes())
}
