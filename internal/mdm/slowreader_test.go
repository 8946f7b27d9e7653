package mdm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bdi/internal/core"
	"bdi/internal/workload"
)

// blockedWriter is a ResponseWriter standing in for a client that stops
// reading: the first Write announces itself on entered and returns only once
// unblock is closed.
type blockedWriter struct {
	header  http.Header
	once    sync.Once
	entered chan struct{}
	unblock chan struct{}
}

func newBlockedWriter() *blockedWriter {
	return &blockedWriter{header: http.Header{}, entered: make(chan struct{}), unblock: make(chan struct{})}
}

func (w *blockedWriter) Header() http.Header { return w.header }
func (w *blockedWriter) WriteHeader(int)     {}
func (w *blockedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.unblock
	return len(p), nil
}

// TestSlowReaderDoesNotBlockRelease pins the first step of taking the
// server lock off the read path: a query handler stuck in the socket write
// of its reply holds no lock, so a release lands meanwhile — and with no
// writer pending, so does the next reader. The test waits on events; the
// timeout only turns the pre-fix deadlock into a failure.
func TestSlowReaderDoesNotBlockRelease(t *testing.T) {
	const stuck = 10 * time.Second
	for _, path := range []string{"/api/queries/answer", "/api/queries/rewrite"} {
		t.Run(path, func(t *testing.T) {
			o, err := core.BuildSupersedeOntology(false)
			if err != nil {
				t.Fatal(err)
			}
			h := NewServer(o, workload.SupersedeTable1Registry(false)).Handler()
			post := func(w http.ResponseWriter, path string, body any) {
				raw, _ := json.Marshal(body)
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
			}

			slow := newBlockedWriter()
			slowDone := make(chan struct{})
			go func() {
				defer close(slowDone)
				post(slow, path, QueryRequest{SPARQL: exampleQuery})
			}()
			defer func() {
				close(slow.unblock)
				<-slowDone
			}()
			select {
			case <-slow.entered:
			case <-time.After(stuck):
				t.Fatal("the query handler never wrote its reply")
			}

			released := make(chan int, 1)
			go func() {
				rec := httptest.NewRecorder()
				post(rec, "/api/releases", w4Release())
				released <- rec.Code
			}()
			select {
			case code := <-released:
				if code != http.StatusCreated {
					t.Fatalf("release status = %d", code)
				}
			case <-time.After(stuck):
				t.Fatal("POST /api/releases is blocked behind a reader stuck in its socket write")
			}

			// The release is visible to the next reader, which was not held
			// up either.
			rec := httptest.NewRecorder()
			post(rec, "/api/queries/rewrite", QueryRequest{SPARQL: exampleQuery})
			var resp RewriteResponse
			if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || len(resp.Walks) != 2 {
				t.Fatalf("rewrite after the release: status %d, %d walks, err %v", rec.Code, len(resp.Walks), err)
			}
		})
	}
}
