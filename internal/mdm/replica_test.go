package mdm

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/replication"
	"bdi/internal/wal"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// TestReplicaServerEndToEnd runs a durable primary and a replica MDM server
// in one process: the replica must answer the same rewriting the primary
// does, reject writes by pointing at the primary, report its role, and pick
// up releases registered on the primary.
func TestReplicaServerEndToEnd(t *testing.T) {
	m, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	for _, r := range core.SupersedeReleases(false) {
		if _, err := o.NewRelease(r); err != nil {
			t.Fatal(err)
		}
	}

	registry := workload.SupersedeTable1Registry(false)
	primary := NewServer(o, registry)
	primary.EnableDurability(m)
	primary.EnableReplication(replication.NewPrimary(m))
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	rep := replication.Start(replication.Options{
		Primary:        pts.URL,
		ID:             "mdm-e2e",
		PollWait:       50 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
	})
	defer rep.Close()
	rts := httptest.NewServer(NewReplicaServer(rep, registry).Handler())
	defer rts.Close()
	if err := rep.WaitForGeneration(o.Store().Generation(), 15*time.Second); err != nil {
		t.Fatal(err)
	}

	// The replica answers the same rewriting the primary does.
	req := map[string]string{"sparql": exampleQuery}
	var want, got RewriteResponse
	if code := postJSON(t, pts.URL+"/api/queries/rewrite", req, &want); code != 200 {
		t.Fatalf("primary rewrite = %d", code)
	}
	if code := postJSON(t, rts.URL+"/api/queries/rewrite", req, &got); code != 200 {
		t.Fatalf("replica rewrite = %d", code)
	}
	if !slices.Equal(want.Walks, got.Walks) || !slices.Equal(want.Signatures, got.Signatures) {
		t.Fatalf("replica rewriting diverged:\nreplica %v\nprimary %v", got, want)
	}

	// Writes are rejected with a pointer at the primary.
	var rejection map[string]string
	if code := postJSON(t, rts.URL+"/api/releases", map[string]any{}, &rejection); code != http.StatusForbidden {
		t.Fatalf("replica accepted a release registration: %d", code)
	}
	if code := postJSON(t, rts.URL+"/api/durability/checkpoint", nil, nil); code != http.StatusForbidden {
		t.Fatalf("replica accepted a checkpoint request: %d", code)
	}

	// Both ends report their replication role; the primary lists its peer.
	var rst, pst map[string]any
	if code := getJSON(t, rts.URL+"/api/replication", &rst); code != 200 || rst["role"] != "replica" || rst["synced"] != true {
		t.Fatalf("replica status = %d %v", code, rst)
	}
	if code := getJSON(t, pts.URL+"/api/replication", &pst); code != 200 || pst["role"] != "primary" {
		t.Fatalf("primary status = %d %v", code, pst)
	}
	if peers, ok := pst["replicas"].([]any); !ok || len(peers) == 0 {
		t.Errorf("primary does not list its replica: %v", pst["replicas"])
	}

	// Probes: alive and ready.
	if code := getJSON(t, rts.URL+"/healthz", nil); code != 200 {
		t.Errorf("replica healthz = %d", code)
	}
	// The replica's scrape surface mirrors its replication state.
	body := scrape(t, rts.URL)
	if v, ok := metricValue(body, "bdi_replication_synced_state"); !ok || v != 1 {
		t.Errorf("bdi_replication_synced_state = %v (present=%v), want 1", v, ok)
	}
	if v, ok := metricValue(body, "bdi_replication_frames_applied_total"); !ok || v < 1 {
		t.Errorf("bdi_replication_frames_applied_total = %v, want >= 1", v)
	}
	if _, ok := metricValue(body, "bdi_store_size_quads"); !ok {
		t.Errorf("replica scrape is missing bdi_store_size_quads")
	}
	var ready ReadyzResponse
	if code := getJSON(t, rts.URL+"/readyz", &ready); code != 200 || !ready.Ready {
		t.Errorf("replica readyz = %d %+v", code, ready)
	}

	// A release registered on the primary reaches the replica's rewritings.
	if _, err := o.NewRelease(core.SupersedeReleaseW4()); err != nil {
		t.Fatal(err)
	}
	if err := rep.WaitForGeneration(o.Store().Generation(), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	var after RewriteResponse
	if code := postJSON(t, rts.URL+"/api/queries/rewrite", req, &after); code != 200 {
		t.Fatalf("replica rewrite after w4 = %d", code)
	}
	if len(after.Walks) <= len(got.Walks) {
		t.Fatalf("w4 did not widen the replica's rewriting: %d walks, had %d", len(after.Walks), len(got.Walks))
	}
}

// TestReplicaCacheRetainsAcrossReplicatedRelease caches a rewriting on a
// replica server, registers a release on the primary that the cached OMQ
// does not touch, and requires the replica's cache to keep the entry: the
// replica derives the release's delta from the replicated batch, so it
// invalidates incrementally instead of flushing.
func TestReplicaCacheRetainsAcrossReplicatedRelease(t *testing.T) {
	m, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	for _, r := range core.SupersedeReleases(false) {
		if _, err := o.NewRelease(r); err != nil {
			t.Fatal(err)
		}
	}
	side, sideID := rdf.IRI("http://ex/replica/Side"), rdf.IRI("http://ex/replica/sideId")
	if err := o.AddConcept(side); err != nil {
		t.Fatal(err)
	}
	if err := o.AddFeatureTo(side, sideID, rdf.XSDString); err != nil {
		t.Fatal(err)
	}

	registry := workload.SupersedeTable1Registry(false)
	primary := NewServer(o, registry)
	primary.EnableDurability(m)
	primary.EnableReplication(replication.NewPrimary(m))
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()
	rep := replication.Start(replication.Options{
		Primary:        pts.URL,
		ID:             "mdm-retain",
		PollWait:       50 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
	})
	defer rep.Close()
	rts := httptest.NewServer(NewReplicaServer(rep, registry).Handler())
	defer rts.Close()
	if err := rep.WaitForGeneration(o.Store().Generation(), 15*time.Second); err != nil {
		t.Fatal(err)
	}

	req := map[string]string{"sparql": exampleQuery}
	var cached, after RewriteResponse
	if code := postJSON(t, rts.URL+"/api/queries/rewrite", req, &cached); code != 200 {
		t.Fatalf("replica rewrite = %d", code)
	}
	type cacheStats struct {
		EntriesRetained int `json:"entriesRetained"`
		FullFlushes     int `json:"fullFlushes"`
	}
	var before, got cacheStats
	if code := getJSON(t, rts.URL+"/api/queries/cache", &before); code != 200 {
		t.Fatalf("replica cache stats = %d", code)
	}

	g := rdf.NewGraph("")
	g.Add(rdf.T(side, core.GHasFeature, sideID))
	if _, err := o.NewRelease(core.Release{
		Wrapper:  core.WrapperSpec{Name: "w_side", Source: "D_side", IDAttributes: []string{"id"}},
		Subgraph: g,
		F:        map[string]rdf.IRI{"id": sideID},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rep.WaitForGeneration(o.Store().Generation(), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, rts.URL+"/api/queries/rewrite", req, &after); code != 200 {
		t.Fatalf("replica rewrite after the release = %d", code)
	}
	if !slices.Equal(after.Walks, cached.Walks) {
		t.Fatalf("an unrelated release changed the walks: %v, had %v", after.Walks, cached.Walks)
	}
	if code := getJSON(t, rts.URL+"/api/queries/cache", &got); code != 200 {
		t.Fatalf("replica cache stats = %d", code)
	}
	if got.EntriesRetained < 1 || got.FullFlushes != before.FullFlushes {
		t.Fatalf("replica cache after an unrelated release: %+v (before %+v); want an entry retained and no full flush", got, before)
	}
}

// TestReplicaCacheSwapDoesNotRaceCacheStats swaps the server's view — and
// with it the rewriting cache — through refreshReplicaView, as a checkpoint
// resync does, while GET /api/queries/cache is hammered. Every read of the
// cache must be ordered against the swap (run under -race in CI).
func TestReplicaCacheSwapDoesNotRaceCacheStats(t *testing.T) {
	var onts [2]*core.Ontology
	for i := range onts {
		o, err := core.BuildSupersedeOntology(false)
		if err != nil {
			t.Fatal(err)
		}
		onts[i] = o
	}
	srv := NewServer(onts[0], workload.SupersedeTable1Registry(false))
	h := srv.Handler()

	const readers, requests = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/queries/cache", nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("GET /api/queries/cache = %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	for i := 1; i <= requests; i++ {
		srv.refreshReplicaView(func() *core.Ontology { return onts[i%2] })
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReplicaRefreshNeverMovesBack races refreshReplicaView calls across two
// checkpoint resyncs, which move the replica's ontology object o0 → o1 → o2.
// At the first resync a refresh that read o0 finishes only after a faster
// refresh has published o1; it must not publish o0 again. Across the second,
// concurrent refreshers must each see the server's ontology only move
// forward, and once every refresh that started after the resync has
// returned, the server must serve o2 (run under -race in CI).
func TestReplicaRefreshNeverMovesBack(t *testing.T) {
	const refreshers, rounds = 4, 200
	var onts [3]*core.Ontology
	index := map[*core.Ontology]int{}
	for i := range onts {
		o, err := core.BuildSupersedeOntology(false)
		if err != nil {
			t.Fatal(err)
		}
		onts[i], index[o] = o, i
	}
	var current atomic.Pointer[core.Ontology]
	current.Store(onts[0])
	srv := NewServer(onts[0], wrapper.NewRegistry())
	serving := func() int { return index[srv.sys.Load().Ontology] }

	var once sync.Once
	loaded, resynced, slowDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(slowDone)
		srv.refreshReplicaView(func() *core.Ontology {
			o := current.Load()
			once.Do(func() { close(loaded) })
			<-resynced
			return o
		})
	}()
	<-loaded
	current.Store(onts[1])
	srv.refreshReplicaView(current.Load)
	close(resynced)
	<-slowDone
	if got := serving(); got != 1 {
		t.Fatalf("a refresh that read o0 before the first resync left the server on o%d, want o1", got)
	}

	resyncedAgain := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, refreshers)
	for g := 0; g < refreshers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 1
			for i := 0; ; i++ {
				select {
				case <-resyncedAgain:
					if i >= rounds {
						// One last refresh that starts after the resync.
						srv.refreshReplicaView(current.Load)
						return
					}
				default:
				}
				srv.refreshReplicaView(current.Load)
				got := serving()
				if got < seen {
					errs <- fmt.Errorf("server moved back from o%d to o%d", seen, got)
					return
				}
				seen = got
			}
		}()
	}
	current.Store(onts[2])
	close(resyncedAgain)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := serving(); got != 2 {
		t.Errorf("server left on o%d after the second resync, want o2", got)
	}
}

// TestReplicaServerUnavailableBeforeSync verifies the degradation contract
// of a replica that has never reached its primary: alive but not ready,
// reads answer 503, writes answer 403, and the status endpoint says why.
func TestReplicaServerUnavailableBeforeSync(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	rep := replication.Start(replication.Options{
		Primary:        deadURL,
		ID:             "orphan",
		RequestTimeout: 250 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
	})
	defer rep.Close()
	rts := httptest.NewServer(NewReplicaServer(rep, wrapper.NewRegistry()).Handler())
	defer rts.Close()

	if code := getJSON(t, rts.URL+"/api/ontology/stats", nil); code != http.StatusServiceUnavailable {
		t.Errorf("read on an unsynced replica = %d, want 503", code)
	}
	if code := postJSON(t, rts.URL+"/api/releases", map[string]any{}, nil); code != http.StatusForbidden {
		t.Errorf("write on an unsynced replica = %d, want 403", code)
	}
	if code := getJSON(t, rts.URL+"/healthz", nil); code != 200 {
		t.Errorf("healthz = %d, want 200 (alive even while unsynced)", code)
	}
	var ready ReadyzResponse
	if code := getJSON(t, rts.URL+"/readyz", &ready); code != http.StatusServiceUnavailable || ready.Ready {
		t.Errorf("readyz = %d %+v, want 503 not-ready", code, ready)
	}
	var st map[string]any
	if code := getJSON(t, rts.URL+"/api/replication", &st); code != 200 || st["synced"] != false || st["stale"] != true {
		t.Errorf("status = %d %v, want synced=false stale=true", code, st)
	}
}
