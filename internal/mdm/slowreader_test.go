package mdm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/store"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// feedbackQuery shares no wrapper with exampleQuery's monitor path: it joins
// w2 and w3 over the feedback-gathering tool.
const feedbackQuery = `
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
PREFIX sc: <http://schema.org/>
SELECT ?x ?y
WHERE {
  VALUES (?x ?y) { (sup:applicationId sup:description) }
  sc:SoftwareApplication G:hasFeature sup:applicationId .
  sc:SoftwareApplication sup:hasFGTool sup:FeedbackGathering .
  sup:FeedbackGathering sup:generatesUF sup:UserFeedback .
  sup:UserFeedback G:hasFeature sup:description
}
`

// serveJSON runs one request through h and returns the recorded reply.
func serveJSON(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	raw, _ := json.Marshal(body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	return rec
}

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

// TestReleaseDoesNotWaitForBlockedFetch parks a POST /api/queries/answer
// inside a wrapper fetch whose source does not answer until the test says
// so. A read holds no lock a release needs, so meanwhile a release lands and
// an unrelated rewrite is served. The test waits on events; the timeout only
// turns a deadlock into a failure.
func TestReleaseDoesNotWaitForBlockedFetch(t *testing.T) {
	const stuck = 10 * time.Second
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	reg := workload.SupersedeTable1Registry(false)
	entered, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	blocked := wrapper.DocumentFunc(func(ctx context.Context) ([]wrapper.Document, error) {
		once.Do(func() { close(entered) })
		select {
		case <-unblock:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	reg.Register(wrapper.NewJSON("w1", "D1",
		relational.NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}), blocked))
	h := NewServer(o, reg).Handler()

	answered := make(chan int, 1)
	go func() {
		answered <- serveJSON(h, http.MethodPost, "/api/queries/answer", QueryRequest{SPARQL: exampleQuery}).Code
	}()
	released := false
	defer func() {
		if !released {
			close(unblock)
			<-answered
		}
	}()
	select {
	case <-entered:
	case <-time.After(stuck):
		t.Fatal("the answer never reached the wrapper fetch")
	}

	for _, step := range []struct {
		path string
		body any
		want int
	}{
		{"/api/releases", w4Release(), http.StatusCreated},
		{"/api/queries/rewrite", QueryRequest{SPARQL: feedbackQuery}, http.StatusOK},
	} {
		done := make(chan int, 1)
		go func() { done <- serveJSON(h, http.MethodPost, step.path, step.body).Code }()
		select {
		case code := <-done:
			if code != step.want {
				t.Fatalf("POST %s = %d, want %d", step.path, code, step.want)
			}
		case <-time.After(stuck):
			t.Fatalf("POST %s is blocked behind an answer parked in a wrapper fetch", step.path)
		}
	}

	released = true
	close(unblock)
	if code := <-answered; code != http.StatusOK {
		t.Fatalf("the parked answer finished with %d", code)
	}
}

// userFeedbackQuery is answered by w2 alone; w4Release touches none of its
// concepts.
const userFeedbackQuery = `
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
SELECT ?x ?y
WHERE {
  VALUES (?x ?y) { (sup:feedbackGatheringId sup:description) }
  sup:FeedbackGathering G:hasFeature sup:feedbackGatheringId .
  sup:FeedbackGathering sup:generatesUF sup:UserFeedback .
  sup:UserFeedback G:hasFeature sup:description
}
`

// TestRewriteDoesNotWaitForBlockedRelease parks a POST /api/releases inside
// the store's commit hook, where a slow WAL fsync would hold it, and asserts
// that meanwhile a cold rewrite and a cold answer over concepts the release
// does not touch are served. No read takes a lock a release holds, so
// neither waits for the release to be published. The test waits on events;
// the timeout only turns a deadlock into a failure.
func TestRewriteDoesNotWaitForBlockedRelease(t *testing.T) {
	const stuck = 10 * time.Second
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(o, workload.SupersedeTable1Registry(false)).Handler()
	parked, unpark := make(chan struct{}), make(chan struct{})
	var once sync.Once
	o.Store().SetCommitHook(func(store.Batch) error {
		once.Do(func() { close(parked) })
		<-unpark
		return nil
	})

	released := make(chan int, 1)
	go func() {
		released <- serveJSON(h, http.MethodPost, "/api/releases", w4Release()).Code
	}()
	unparked := false
	defer func() {
		if !unparked {
			close(unpark)
			<-released
		}
	}()
	select {
	case <-parked:
	case <-time.After(stuck):
		t.Fatal("the release never reached the commit hook")
	}

	for _, step := range []struct {
		path  string
		query string
	}{
		{"/api/queries/rewrite", userFeedbackQuery},
		{"/api/queries/answer", feedbackQuery},
	} {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- serveJSON(h, http.MethodPost, step.path, QueryRequest{SPARQL: step.query}) }()
		select {
		case rec := <-done:
			if rec.Code != http.StatusOK {
				t.Fatalf("POST %s = %d: %s", step.path, rec.Code, rec.Body)
			}
		case <-time.After(stuck):
			t.Fatalf("POST %s waits for a release parked in the commit hook", step.path)
		}
	}

	unparked = true
	close(unpark)
	if code := <-released; code != http.StatusCreated {
		t.Fatalf("the parked release finished with %d", code)
	}
}

// TestReleaseSampleDataVisibleWithRelease hammers POST /api/queries/answer
// with a query every release widens while releases carrying sampleTuples
// land. No answer may fail on a walk whose wrapper is missing, and no reader
// may see the walk count shrink (run under -race in CI). The store's commit
// hook asserts the ordering directly: it sees every batch before its
// generation is published, so each wrapper a release batch registers in S
// must already be in the registry there.
func TestReleaseSampleDataVisibleWithRelease(t *testing.T) {
	const readers, releases, minRounds = 4, 12, 3
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	reg := workload.SupersedeTable1Registry(false)
	h := NewServer(o, reg).Handler()
	answerWalks := func() (int, error) {
		rec := serveJSON(h, http.MethodPost, "/api/queries/answer", QueryRequest{SPARQL: exampleQuery})
		var resp AnswerResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || rec.Code != http.StatusOK {
			return 0, fmt.Errorf("answer = %d (decode error %v): %s", rec.Code, err, rec.Body)
		}
		return len(resp.Walks), nil
	}

	var landed atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	hooked := 0
	o.Store().SetCommitHook(func(b store.Batch) error {
		for _, w := range batchWrappers(b) {
			hooked++
			if _, ok := reg.Get(core.WrapperLocalName(w)); !ok {
				t.Errorf("generation %d publishes %s before its wrapper is registered", b.Generation, w)
			}
		}
		return nil
	})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for round := 0; round < minRounds || !landed.Load(); round++ {
				walks, err := answerWalks()
				if err != nil {
					errs <- err
					return
				}
				if walks < last {
					errs <- fmt.Errorf("walk count went from %d down to %d", last, walks)
					return
				}
				last = walks
			}
		}()
	}
	for k := 0; k < releases; k++ {
		req := w4Release()
		req.Wrapper = fmt.Sprintf("w%d", 4+k)
		req.SampleTuples = []map[string]any{{"VoDmonitorId": 18, "bufferingRatio": float64(k) / 100}}
		if rec := serveJSON(h, http.MethodPost, "/api/releases", req); rec.Code != http.StatusCreated {
			t.Errorf("release %s = %d: %s", req.Wrapper, rec.Code, rec.Body)
			break
		}
	}
	landed.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if walks, err := answerWalks(); err != nil || walks != 1+releases {
		t.Errorf("after %d releases: %d walks, error %v; want %d", releases, walks, err, 1+releases)
	}
	if hooked != releases {
		t.Errorf("the commit hook saw %d releases, want %d", hooked, releases)
	}
}

// batchWrappers returns the wrappers a store batch registers in S.
func batchWrappers(b store.Batch) []rdf.IRI {
	var out []rdf.IRI
	for _, q := range b.Quads {
		if q.Graph == core.SourceGraphName && q.Predicate == rdf.RDFType && q.Object == core.SWrapper {
			out = append(out, q.Subject.(rdf.IRI))
		}
	}
	return out
}

// TestRejectedReleaseLeavesRegistryUnchanged posts releases with sample data
// that Algorithm 1 rejects. The sample wrapper is registered before the
// release would be published, so the rejection must put the registry back
// exactly: the same names, and the rows of a wrapper the rejected release
// tried to replace.
func TestRejectedReleaseLeavesRegistryUnchanged(t *testing.T) {
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	reg := workload.SupersedeTable1Registry(false)
	h := NewServer(o, reg).Handler()
	if rec := serveJSON(h, http.MethodPost, "/api/releases", w4Release()); rec.Code != http.StatusCreated {
		t.Fatalf("w4 release = %d: %s", rec.Code, rec.Body)
	}
	rows := func(name string) []relational.Tuple {
		w, ok := reg.Get(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		d := relational.NewValueDict()
		out, err := w.Rows(context.Background(), relational.Pushdown{}, d)
		if err != nil {
			t.Fatal(err)
		}
		return out.Decode(d).Tuples
	}
	names, w4Rows := reg.Names(), rows("w4")

	duplicate := w4Release()
	duplicate.SampleTuples = []map[string]any{{"VoDmonitorId": 99, "bufferingRatio": 0.99}}
	outsideG := w4Release()
	outsideG.Wrapper = "w5"
	outsideG.Subgraph = [][3]string{{string(core.SupMonitor), string(core.GHasFeature), string(core.SupLagRatio)}}
	for name, req := range map[string]ReleaseRequest{"duplicate wrapper": duplicate, "subgraph not in G": outsideG} {
		if rec := serveJSON(h, http.MethodPost, "/api/releases", req); rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: release = %d, want 422: %s", name, rec.Code, rec.Body)
		}
		if got := reg.Names(); !slices.Equal(got, names) {
			t.Errorf("%s: registry names = %v, want %v", name, got, names)
		}
		for _, key := range []string{"w4", string(core.WrapperURI("w4"))} {
			if got := rows(key); !reflect.DeepEqual(got, w4Rows) {
				t.Errorf("%s: %s rows = %v, want %v", name, key, got, w4Rows)
			}
		}
	}
}

// TestReleaseSampleWrapperResolvableByNameAndIRI posts a release with sample
// data and checks, from the store's commit hook (the release's batch is
// accepted, its snapshot about to be published), that the sample wrapper
// resolves both by its name and by its wrapper IRI: a reader that sees the
// release finds the wrapper under either key.
func TestReleaseSampleWrapperResolvableByNameAndIRI(t *testing.T) {
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	reg := workload.SupersedeTable1Registry(false)
	h := NewServer(o, reg).Handler()
	var hooked []string
	o.Store().SetCommitHook(func(b store.Batch) error {
		for _, w := range batchWrappers(b) {
			name := core.WrapperLocalName(w)
			hooked = append(hooked, name)
			for _, key := range []string{name, string(w)} {
				if got, ok := reg.Get(key); !ok || got.Name() != name {
					t.Errorf("%s does not resolve to wrapper %s when its batch is committed", key, name)
				}
			}
		}
		return nil
	})
	if rec := serveJSON(h, http.MethodPost, "/api/releases", w4Release()); rec.Code != http.StatusCreated {
		t.Fatalf("w4 release = %d: %s", rec.Code, rec.Body)
	}
	if !slices.Equal(hooked, []string{"w4"}) {
		t.Errorf("the commit hook saw releases %v, want [w4]", hooked)
	}
}
