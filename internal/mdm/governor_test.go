package mdm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bdi/internal/core"
	"bdi/internal/lifecycle"
	"bdi/internal/workload"
)

// wcSPARQL renders the worst-case workload's OMQ as the SPARQL template the
// query endpoints accept (mirrors workload.BuildWorstCase's query).
func wcSPARQL(concepts int) string {
	var vars, iris, pattern []string
	for i := 0; i < concepts; i++ {
		vars = append(vars, fmt.Sprintf("?v%d", i))
		iris = append(iris, fmt.Sprintf("<%sc%d_value>", workload.NSWorst, i))
		pattern = append(pattern, fmt.Sprintf("  <%sC%d> <%s> <%sc%d_value> .",
			workload.NSWorst, i, string(core.GHasFeature), workload.NSWorst, i))
		if i+1 < concepts {
			pattern = append(pattern, fmt.Sprintf("  <%sC%d> <%sc%d_next> <%sC%d> .",
				workload.NSWorst, i, workload.NSWorst, i, workload.NSWorst, i+1))
		}
	}
	return fmt.Sprintf("SELECT %s WHERE {\n  VALUES (%s) { (%s) }\n%s\n}",
		strings.Join(vars, " "), strings.Join(vars, " "),
		strings.Join(iris, " "), strings.Join(pattern, "\n"))
}

// newWorstCaseServer serves a worst-case workload (W^C executable walks, so
// answer requests do real, cancellable work) with the given lifecycle and
// governor policy.
func newWorstCaseServer(t *testing.T, concepts, wrappers int, lc LifecycleConfig, gov *GovernorConfig) *httptest.Server {
	t.Helper()
	wc, err := workload.BuildWorstCase(concepts, wrappers)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(wc.Ontology, wc.Registry)
	srv.ConfigureLifecycle(lc)
	if gov != nil {
		srv.ConfigureGovernor(*gov)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// queryErrorBody is the structured error of aborted query requests.
type queryErrorBody struct {
	Error    string `json:"error"`
	Code     string `json:"code"`
	Progress *struct {
		Rows      int64 `json:"rows"`
		Bytes     int64 `json:"bytes"`
		ElapsedMs int64 `json:"elapsedMs"`
	} `json:"progress"`
}

func postAnswer(t *testing.T, ts *httptest.Server, concepts int, header map[string]string) (int, queryErrorBody, time.Duration) {
	t.Helper()
	raw, _ := json.Marshal(map[string]string{"sparql": wcSPARQL(concepts)})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/queries/answer", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	defer resp.Body.Close()
	var body queryErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body, elapsed
}

// The deadline tests pose the 4^7 = 16,384-walk worst case under a 50ms
// deadline. An uncut cold answer takes ~280ms on a 2-vCPU host, over 5x
// the deadline, and its rewrite alone ~130ms, so an aborted request caches
// nothing and every repetition is over the deadline too.
const (
	deadlineConcepts, deadlineWrappers = 7, 4
	testDeadline                       = 50 * time.Millisecond
)

// requireDeadline504 checks that a request answered 504 deadline promptly
// (cooperative cancellation inside the rewrite and union/join loops, not
// after the work completes) with the partial-progress stats.
func requireDeadline504(t *testing.T, status int, body queryErrorBody, elapsed time.Duration) {
	t.Helper()
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", status, body)
	}
	if elapsed > 300*time.Millisecond {
		t.Errorf("%s-deadline request took %s to abort; cancellation is not cooperative", testDeadline, elapsed)
	}
	if body.Code != "deadline" {
		t.Errorf("code = %q, want deadline", body.Code)
	}
	if body.Progress == nil {
		t.Fatalf("504 body carries no progress stats: %+v", body)
	}
	if body.Progress.ElapsedMs < testDeadline.Milliseconds()*4/5 {
		t.Errorf("progress.elapsedMs = %d, want >= ~%d", body.Progress.ElapsedMs, testDeadline.Milliseconds())
	}
}

// TestDeadlineAborts504 answers an over-deadline request with 504 deadline
// and the partial-progress stats.
func TestDeadlineAborts504(t *testing.T) {
	ts := newWorstCaseServer(t, deadlineConcepts, deadlineWrappers,
		LifecycleConfig{QueryTimeout: testDeadline}, nil)
	status, body, elapsed := postAnswer(t, ts, deadlineConcepts, nil)
	requireDeadline504(t, status, body, elapsed)
}

// TestDeadlineAnswersEveryRequest repeats the over-deadline request under
// mdm-server's configuration (a deadline next to row and byte budgets): the
// context is the only clock, so every one answers 504 deadline.
func TestDeadlineAnswersEveryRequest(t *testing.T) {
	ts := newWorstCaseServer(t, deadlineConcepts, deadlineWrappers, LifecycleConfig{
		QueryTimeout: testDeadline,
		Budget:       lifecycle.Budget{MaxRows: 1 << 40, MaxBytes: 1 << 50},
	}, nil)
	for i := 0; i < 20; i++ {
		status, body, elapsed := postAnswer(t, ts, deadlineConcepts, nil)
		requireDeadline504(t, status, body, elapsed)
	}
}

// TestTimeoutHeaderLowersDeadline aborts via X-Timeout-Ms on a server with
// no default deadline.
func TestTimeoutHeaderLowersDeadline(t *testing.T) {
	ts := newWorstCaseServer(t, deadlineConcepts, deadlineWrappers, LifecycleConfig{}, nil)
	status, body, elapsed := postAnswer(t, ts, deadlineConcepts,
		map[string]string{XTimeoutHeader: strconv.FormatInt(testDeadline.Milliseconds(), 10)})
	requireDeadline504(t, status, body, elapsed)
}

// TestTimeoutHeaderCannotRaiseDeadline sends X-Timeout-Ms values above the
// configured deadline, one of them large enough to overflow a Duration:
// neither may lift the deadline.
func TestTimeoutHeaderCannotRaiseDeadline(t *testing.T) {
	ts := newWorstCaseServer(t, deadlineConcepts, deadlineWrappers,
		LifecycleConfig{QueryTimeout: testDeadline}, nil)
	for _, h := range []string{"5000", "9223372036854775807"} {
		t.Run(h, func(t *testing.T) {
			status, body, elapsed := postAnswer(t, ts, deadlineConcepts, map[string]string{XTimeoutHeader: h})
			requireDeadline504(t, status, body, elapsed)
		})
	}
}

// TestBudgetExceeded413 bounds rows: the union loop must stop at the budget
// with a 413 naming the offending dimension.
func TestBudgetExceeded413(t *testing.T) {
	const concepts, wrappers = 4, 4
	ts := newWorstCaseServer(t, concepts, wrappers,
		LifecycleConfig{Budget: lifecycle.Budget{MaxRows: 50}}, nil)

	status, body, _ := postAnswer(t, ts, concepts, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%+v), want 413", status, body)
	}
	if body.Code != "budget:"+lifecycle.DimRows {
		t.Errorf("code = %q, want budget:%s", body.Code, lifecycle.DimRows)
	}
	if body.Progress == nil || body.Progress.Rows < 50 {
		t.Errorf("progress should show the budget was reached: %+v", body.Progress)
	}
}

// TestOverloadSheds429 fills the single read slot with a slow query and
// requires the next request to shed with 429 + Retry-After instead of
// queueing unboundedly, and the shed to surface in /api/queries/stats.
func TestOverloadSheds429(t *testing.T) {
	const concepts, wrappers = 6, 4
	gov := &GovernorConfig{
		Read:  PoolConfig{Size: 1, Queue: 0},
		Write: PoolConfig{Size: 1, Queue: 1, QueueTimeout: time.Second},
		Admin: PoolConfig{Size: 1, Queue: 1, QueueTimeout: time.Second},
	}
	// The slow occupant aborts via deadline after 2s at the latest, so the
	// test never hangs on the real (multi-second) workload.
	ts := newWorstCaseServer(t, concepts, wrappers,
		LifecycleConfig{QueryTimeout: 2 * time.Second}, gov)

	occupant := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(map[string]string{"sparql": wcSPARQL(concepts)})
		resp, err := http.Post(ts.URL+"/api/queries/answer", "application/json", bytes.NewReader(raw))
		if err != nil {
			occupant <- -1
			return
		}
		resp.Body.Close()
		occupant <- resp.StatusCode
	}()

	// Wait until the occupant holds the read slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var stats QueryStatsResponse
		resp, err := http.Get(ts.URL + "/api/queries/stats")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if stats.Pools[PoolRead].InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the occupant query never acquired the read slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, body, _ := postAnswer(t, ts, concepts, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%+v), want 429", status, body)
	}
	if body.Code != "shed" {
		t.Errorf("code = %q, want shed", body.Code)
	}
	// Retry-After must accompany every shed.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/queries/answer", strings.NewReader(`{"sparql":"x"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After header")
	}

	if st := <-occupant; st != http.StatusGatewayTimeout && st != http.StatusOK {
		t.Errorf("occupant finished with status %d, want 200 or 504", st)
	}

	var stats QueryStatsResponse
	resp2, err := http.Get(ts.URL + "/api/queries/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Pools[PoolRead].Shed == 0 {
		t.Errorf("read pool shed counter = 0 after a shed: %+v", stats.Pools)
	}
}

// TestSlowQueryLogAndOutcomes completes a slow query and checks both the
// outcome counters and the slow-query ring on /api/queries/stats.
func TestSlowQueryLogAndOutcomes(t *testing.T) {
	const concepts, wrappers = 3, 2
	ts := newWorstCaseServer(t, concepts, wrappers,
		LifecycleConfig{SlowQueryThreshold: time.Nanosecond}, nil)

	status, body, _ := postAnswer(t, ts, concepts, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d (%+v), want 200", status, body)
	}

	var stats QueryStatsResponse
	resp, err := http.Get(ts.URL + "/api/queries/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Outcomes.Completed == 0 {
		t.Errorf("outcomes.completed = 0 after a 200: %+v", stats.Outcomes)
	}
	if len(stats.SlowQueries) == 0 {
		t.Fatal("slow-query log is empty with a 1ns threshold")
	}
	sq := stats.SlowQueries[0]
	if sq.Endpoint != "POST /api/queries/answer" {
		t.Errorf("slow query endpoint = %q", sq.Endpoint)
	}
	if !strings.Contains(sq.Query, "SELECT") {
		t.Errorf("slow query text not recorded: %q", sq.Query)
	}
	if sq.Status != http.StatusOK {
		t.Errorf("slow query status = %d", sq.Status)
	}
}
