package mdm

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bdi/internal/core"
	"bdi/internal/lifecycle"
	"bdi/internal/obs"
	"bdi/internal/rdf"
	"bdi/internal/replication"
	"bdi/internal/rewriting"
	"bdi/internal/wal"
	"bdi/internal/workload"
)

// scrape fetches GET /metrics and returns the exposition body.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of one series (exact "name" or
// "name{labels}" match) from an exposition body; ok is false when absent.
func metricValue(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		rest, found := strings.CutPrefix(line, series+" ")
		if !found {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			return v, true
		}
	}
	return 0, false
}

// TestHealthLegacyAlias pins GET /api/health as a true alias of /healthz:
// same status, same body, registered from the same handler value.
func TestHealthLegacyAlias(t *testing.T) {
	ts := newTestServer(t)
	bodies := map[string]string{}
	for _, path := range []string{"/healthz", "/api/health"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		bodies[path] = string(b)
	}
	if bodies["/healthz"] != bodies["/api/health"] {
		t.Fatalf("alias drift: /healthz=%q /api/health=%q", bodies["/healthz"], bodies["/api/health"])
	}
}

// TestMetricsExposition checks the scrape covers every in-process subsystem
// after one query: lifecycle/governor, rewrite cache (with the values its
// answered rewriting keeps), sparql, walk engine, wrapper fetches and the
// store.
func TestMetricsExposition(t *testing.T) {
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o, workload.SupersedeTable1Registry(false))
	srv.ConfigureGovernor(DefaultGovernorConfig(4))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if code := postJSON(t, ts.URL+"/api/queries/answer", QueryRequest{SPARQL: exampleQuery}, nil); code != 200 {
		t.Fatalf("answer = %d", code)
	}
	body := scrape(t, ts.URL)

	for _, series := range []string{
		"bdi_query_requests_total",
		"bdi_query_outcomes_total{outcome=\"completed\"}",
		"bdi_governor_admitted_total{pool=\"read\"}",
		"bdi_governor_pool_size_requests{pool=\"read\"}",
		"bdi_rewrite_cache_misses_total",
		"bdi_store_size_quads",
		"bdi_obs_traces_total",
		"bdi_walk_index_builds_total",
	} {
		if _, ok := metricValue(body, series); !ok {
			t.Errorf("scrape is missing series %s", series)
		}
	}
	// Histograms from the hot-path packages.
	for _, family := range []string{
		"bdi_query_duration_seconds",
		"bdi_rewrite_duration_seconds",
		"bdi_walk_exec_seconds",
		"bdi_walk_compile_seconds",
		"bdi_wrapper_fetch_seconds",
	} {
		if !strings.Contains(body, "# TYPE "+family+" histogram") {
			t.Errorf("scrape is missing histogram family %s", family)
		}
	}
	for _, family := range []string{
		"bdi_query_duration_seconds",
		"bdi_rewrite_duration_seconds",
		"bdi_walk_exec_seconds",
		"bdi_walk_compile_seconds",
		"bdi_wrapper_fetch_seconds",
	} {
		if v, ok := metricValue(body, family+"_count"); !ok || v < 1 {
			t.Errorf("%s_count = %v, want >= 1", family, v)
		}
	}
	if v, _ := metricValue(body, "bdi_governor_pool_size_requests{pool=\"read\"}"); v != 4 {
		t.Errorf("read pool size gauge = %v, want 4", v)
	}
	// The answered rewriting keeps its value dictionary, charged to the cache.
	kept := srv.sys.Load().CacheStats().KeptValues
	if v, ok := metricValue(body, "bdi_rewrite_cache_kept_dict_entries"); !ok || v < 1 || int(v) != kept {
		t.Errorf("bdi_rewrite_cache_kept_dict_entries = %v (present: %v), want the cache's %d, at least 1", v, ok, kept)
	}
}

// TestMetricsDurablePrimary checks the scrape covers the WAL and the
// primary's replication role.
func TestMetricsDurablePrimary(t *testing.T) {
	m, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	if _, err := o.NewRelease(core.SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o, workload.SupersedeTable1Registry(false))
	srv.EnableDurability(m)
	srv.EnableReplication(replication.NewPrimary(m))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body := scrape(t, ts.URL)
	for _, series := range []string{
		"bdi_wal_failstop_state",
		"bdi_wal_segments_entries",
		"bdi_wal_last_checkpoint_generations",
		"bdi_replication_shipped_generations",
		"bdi_replication_peers_entries",
	} {
		if _, ok := metricValue(body, series); !ok {
			t.Errorf("durable primary scrape is missing %s", series)
		}
	}
	if v, ok := metricValue(body, "bdi_wal_appends_total"); !ok || v < 1 {
		t.Errorf("bdi_wal_appends_total = %v, want >= 1", v)
	}
}

// metricNameRE is the repo-wide metric naming convention:
// bdi_<subsystem>_<name>_<unit>.
var metricNameRE = regexp.MustCompile(
	`^bdi_[a-z0-9]+(?:_[a-z0-9]+)*_(?:total|seconds|bytes|rows|quads|entries|requests|generations|frames|spans|state)$`)

// TestMetricNameConvention is the CI guard over the full scrape surface:
// every family follows bdi_<subsystem>_<name>_<unit> and no family is
// declared twice (which would mean the registry and the scrape-time mirror
// collided on a name).
func TestMetricNameConvention(t *testing.T) {
	// A governed durable server exposes the largest scrape surface in one
	// process; replica-only families follow the same helper and convention.
	m, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o, workload.SupersedeTable1Registry(false))
	srv.EnableDurability(m)
	srv.ConfigureGovernor(DefaultGovernorConfig(2))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body := scrape(t, ts.URL)
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, " ")
		if seen[name] {
			t.Errorf("family %s declared twice: registry and scrape-time mirror collide", name)
		}
		seen[name] = true
		if !metricNameRE.MatchString(name) {
			t.Errorf("family %s violates the bdi_<subsystem>_<name>_<unit> convention", name)
		}
	}
	if len(seen) == 0 {
		t.Fatal("scrape declared no families")
	}
	// The global registry's names obey the same convention even for metrics
	// not yet exercised by this process.
	names := obs.Default.Names()
	for _, name := range names {
		if !metricNameRE.MatchString(name) {
			t.Errorf("registered metric %s violates the naming convention", name)
		}
	}
	if !slices.Contains(names, "bdi_walk_order_seconds") {
		t.Error("bdi_walk_order_seconds is not registered")
	}
}

// TestTraceSpanTree is the end-to-end trace check: a governed slow query's
// trace is retrievable by the ID the response carried, its span tree
// reaches rewrite → eval → walk → wrapper.fetch, and every parent's direct
// children (sequential stages) sum to at most the parent's duration.
func TestTraceSpanTree(t *testing.T) {
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o, workload.SupersedeTable1Registry(false))
	srv.ConfigureGovernor(DefaultGovernorConfig(2))
	srv.ConfigureLifecycle(LifecycleConfig{SlowQueryThreshold: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/api/queries/answer", "application/json",
		strings.NewReader(`{"sparql":`+strconv.Quote(exampleQuery)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer = %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("response has no X-Trace-Id header")
	}

	var snap obs.TraceSnapshot
	if code := getJSON(t, ts.URL+"/api/queries/trace/"+traceID, &snap); code != http.StatusOK {
		t.Fatalf("GET /api/queries/trace/%s = %d, want 200", traceID, code)
	}
	if snap.ID != traceID {
		t.Fatalf("snapshot ID = %s, want %s", snap.ID, traceID)
	}

	names := map[string]int{}
	for _, sp := range snap.Spans {
		names[sp.Name]++
		if sp.Duration < 0 {
			t.Errorf("span %s is still open in a finished trace", sp.Name)
		}
		if sp.Name != "eval" {
			continue
		}
		// The union orders its rows inside eval, under no span of its own:
		// the span says how many rows and how long.
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["rows"] != "3" || attrs["order_us"] == "" {
			t.Errorf("eval span attributes %v, want rows=3 and an order_us", attrs)
		}
	}
	for _, want := range []string{"admit", "rewrite", "eval", "walk", "wrapper.fetch"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span; got %v", want, names)
		}
	}
	// The span set is what bench/trace.go cuts the request by: ordering the
	// answer added attributes, not a span.
	for name := range names {
		if !slices.Contains([]string{snap.Spans[0].Name, "admit", "rewrite", "rewrite.unit", "rewrite.assemble", "eval", "walk", "wrapper.fetch"}, name) {
			t.Errorf("trace has an unexpected %q span; got %v", name, names)
		}
	}

	// Sequential child stages can never outlast their parent. (The demo
	// query compiles to a single walk, so no parallel siblings here.)
	childSum := map[int]time.Duration{}
	for i, sp := range snap.Spans {
		if i == 0 {
			continue
		}
		childSum[sp.Parent] += sp.Duration
	}
	for parent, sum := range childSum {
		if d := snap.Spans[parent].Duration; sum > d {
			t.Errorf("children of span %q sum to %v > parent %v", snap.Spans[parent].Name, sum, d)
		}
	}

	// The slow-query ring carries the same correlation ID.
	var stats QueryStatsResponse
	if code := getJSON(t, ts.URL+"/api/queries/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	found := false
	for _, q := range stats.SlowQueries {
		if q.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("slow-query log has no entry with trace ID %s: %+v", traceID, stats.SlowQueries)
	}

	// The listing endpoint retains the trace too.
	var list TraceListResponse
	if code := getJSON(t, ts.URL+"/api/queries/trace", &list); code != http.StatusOK {
		t.Fatalf("trace list = %d", code)
	}
	found = false
	for _, tr := range list.Traces {
		if tr.ID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace list does not retain %s", traceID)
	}

	// Unknown IDs answer 404.
	if code := getJSON(t, ts.URL+"/api/queries/trace/doesnotexist", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", code)
	}
}

// TestTraceIDOnErrorResponses pins trace correlation on the failure matrix:
// a budget-exceeded 413 carries the trace ID in both the header and body.
func TestTraceIDOnErrorResponses(t *testing.T) {
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o, workload.SupersedeTable1Registry(false))
	srv.ConfigureLifecycle(LifecycleConfig{Budget: lifecycle.Budget{MaxRows: 1}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/api/queries/answer", "application/json",
		strings.NewReader(`{"sparql":`+strconv.Quote(exampleQuery)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("budget-bounded answer = %d, want 413", resp.StatusCode)
	}
	headerID := resp.Header.Get("X-Trace-Id")
	if headerID == "" {
		t.Fatal("413 has no X-Trace-Id header")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"traceId":"`+headerID+`"`) {
		t.Errorf("413 body does not echo trace ID %s: %s", headerID, body)
	}
}

// TestMetricsConsistentUnderConcurrentLoad hammers queries, scrapes and
// trace listings concurrently (the -race target) and checks the request
// counter advanced by at least the issued request count.
func TestMetricsConsistentUnderConcurrentLoad(t *testing.T) {
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o, workload.SupersedeTable1Registry(false))
	srv.ConfigureGovernor(DefaultGovernorConfig(4))
	srv.ConfigureLifecycle(LifecycleConfig{SlowQueryThreshold: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	before, _ := metricValue(scrape(t, ts.URL), "bdi_query_requests_total")

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < perWorker; i++ {
				resp, err := client.Post(ts.URL+"/api/queries/answer", "application/json",
					strings.NewReader(`{"sparql":`+strconv.Quote(exampleQuery)+`}`))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// Interleave reads of every observability surface.
				for _, path := range []string{"/metrics", "/api/queries/trace", "/api/queries/stats"} {
					r2, err := client.Get(ts.URL + path)
					if err != nil {
						errc <- err
						return
					}
					io.Copy(io.Discard, r2.Body)
					r2.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	after, ok := metricValue(scrape(t, ts.URL), "bdi_query_requests_total")
	if !ok {
		t.Fatal("bdi_query_requests_total missing after load")
	}
	if delta := after - before; delta < workers*perWorker {
		t.Errorf("bdi_query_requests_total advanced by %v, want >= %d", delta, workers*perWorker)
	}
}

// omqSPARQL renders an OMQ in the restricted template of the query
// endpoints: the projected variables bound to π by a VALUES row, φ as
// constant triple patterns.
func omqSPARQL(omq *rewriting.OMQ) string {
	var vars, iris, pattern strings.Builder
	for i, f := range omq.Pi {
		fmt.Fprintf(&vars, "?v%d ", i)
		fmt.Fprintf(&iris, "<%s> ", string(f))
	}
	for _, tr := range omq.Phi.Triples {
		fmt.Fprintf(&pattern, "<%s> <%s> <%s> .\n",
			string(tr.Subject.(rdf.IRI)), string(tr.Predicate.(rdf.IRI)), string(tr.Object.(rdf.IRI)))
	}
	return fmt.Sprintf("SELECT %sWHERE {\nVALUES (%s) { (%s) }\n%s}", vars.String(), vars.String(), iris.String(), pattern.String())
}

// TestAnswerWalksSharesPerWrapperWork is the /metrics reading of the Figure
// 8 request: 243 walks over 15 wrappers cost 243 walk executions and 15
// fetches but at most 30 hash-index builds (two ID columns per wrapper), not
// one per join of every walk.
func TestAnswerWalksSharesPerWrapperWork(t *testing.T) {
	wc, err := workload.BuildWorstCase(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(wc.Ontology, wc.Registry).Handler())
	t.Cleanup(ts.Close)
	req := QueryRequest{SPARQL: omqSPARQL(wc.Query)}
	var answer AnswerResponse
	if code := postJSON(t, ts.URL+"/api/queries/answer", req, &answer); code != 200 {
		t.Fatalf("answer = %d", code)
	}
	if len(answer.Walks) != 243 || len(answer.Rows) != 3 {
		t.Fatalf("answer has %d walks and %d rows, want 243 and 3", len(answer.Walks), len(answer.Rows))
	}
	before := scrape(t, ts.URL)
	if code := postJSON(t, ts.URL+"/api/queries/answer", req, nil); code != 200 {
		t.Fatalf("answer = %d", code)
	}
	after := scrape(t, ts.URL)
	delta := func(series string) float64 {
		a, okA := metricValue(after, series)
		b, okB := metricValue(before, series)
		if !okA || !okB {
			t.Fatalf("scrape is missing series %s", series)
		}
		return a - b
	}
	if got := delta("bdi_walk_executions_total"); got != 243 {
		t.Errorf("walk executions per request = %v, want 243", got)
	}
	if got := delta("bdi_wrapper_fetches_total"); got != 15 {
		t.Errorf("wrapper fetches per request = %v, want 15", got)
	}
	if got := delta("bdi_walk_index_builds_total"); got < 1 || got > 30 {
		t.Errorf("index builds per request = %v, want 1..30", got)
	}
	if got := delta("bdi_walk_compile_seconds_count"); got != 1 {
		t.Errorf("compile observations per request = %v, want 1", got)
	}
	if got := delta("bdi_walk_order_seconds_count"); got != 1 {
		t.Errorf("order observations per request = %v, want 1", got)
	}
}
