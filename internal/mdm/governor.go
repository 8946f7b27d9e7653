package mdm

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bdi/internal/lifecycle"
	"bdi/internal/obs"
)

// This file implements the server's overload governor and per-query
// lifecycle middleware: weighted admission control (separate read, write
// and admin pools with bounded wait queues), per-request deadlines
// (-query-timeout flag, X-Timeout-Ms header), per-query resource budgets,
// the 429/504/413 failure matrix, the slow-query log and the
// GET /api/queries/stats observability endpoint.

// Pool names of the weighted concurrency limiter.
const (
	PoolRead  = "read"
	PoolWrite = "write"
	PoolAdmin = "admin"
)

// PoolConfig bounds one admission pool: Size concurrent requests, at most
// Queue waiters, each waiting at most QueueTimeout before being shed.
type PoolConfig struct {
	// Size is the number of requests of this class served concurrently.
	// 0 disables admission control for the pool.
	Size int
	// Queue bounds how many requests may wait for a slot; a request
	// arriving with a full queue is shed immediately.
	Queue int
	// QueueTimeout bounds how long a queued request waits before being
	// shed (0: no waiting, shed unless a slot is free).
	QueueTimeout time.Duration
}

// GovernorConfig configures the three admission pools. Reads (ontology and
// query endpoints) are isolated from writes (release registration) and
// admin work (checkpoints), so a flood of analyst queries cannot starve a
// steward release and vice versa.
type GovernorConfig struct {
	Read, Write, Admin PoolConfig
}

// DefaultGovernorConfig sizes the pools for a small production deployment:
// a read pool wide enough to keep every core busy, one writer (releases
// serialize on the server's release mutex anyway) and one admin slot.
func DefaultGovernorConfig(readSlots int) GovernorConfig {
	if readSlots < 1 {
		readSlots = 1
	}
	return GovernorConfig{
		Read:  PoolConfig{Size: readSlots, Queue: 4 * readSlots, QueueTimeout: time.Second},
		Write: PoolConfig{Size: 1, Queue: 8, QueueTimeout: 2 * time.Second},
		Admin: PoolConfig{Size: 1, Queue: 2, QueueTimeout: time.Second},
	}
}

// pool is one weighted semaphore with a bounded wait queue.
type pool struct {
	name         string
	slots        chan struct{} // buffered; len = in-flight
	maxQueue     int64
	queueTimeout time.Duration

	queued   atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64
}

func newPool(name string, cfg PoolConfig) *pool {
	if cfg.Size <= 0 {
		return &pool{name: name}
	}
	return &pool{
		name:         name,
		slots:        make(chan struct{}, cfg.Size),
		maxQueue:     int64(cfg.Queue),
		queueTimeout: cfg.QueueTimeout,
	}
}

// acquire admits the request or reports the shed reason. The fast path is
// one non-blocking channel send; the slow path queues (bounded) until a
// slot frees, the queue timeout fires or the client disconnects.
func (p *pool) acquire(ctx context.Context) (release func(), shedReason string) {
	if p.slots == nil {
		return func() {}, ""
	}
	select {
	case p.slots <- struct{}{}:
		p.admitted.Add(1)
		return p.releaseFunc(), ""
	default:
	}
	if p.queued.Add(1) > p.maxQueue {
		p.queued.Add(-1)
		p.shed.Add(1)
		return nil, "queue full"
	}
	defer p.queued.Add(-1)
	var timeout <-chan time.Time
	if p.queueTimeout > 0 {
		t := time.NewTimer(p.queueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case p.slots <- struct{}{}:
		p.admitted.Add(1)
		return p.releaseFunc(), ""
	case <-timeout:
		p.shed.Add(1)
		return nil, "queue timeout"
	case <-ctx.Done():
		p.shed.Add(1)
		return nil, "client cancelled while queued"
	}
}

func (p *pool) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(func() { <-p.slots }) }
}

// PoolStats is the observable state of one admission pool.
type PoolStats struct {
	Size       int    `json:"size"`
	InFlight   int    `json:"inFlight"`
	QueueDepth int    `json:"queueDepth"`
	QueueCap   int    `json:"queueCap"`
	Admitted   uint64 `json:"admitted"`
	Shed       uint64 `json:"shed"`
}

func (p *pool) stats() PoolStats {
	st := PoolStats{
		QueueDepth: int(p.queued.Load()),
		QueueCap:   int(p.maxQueue),
		Admitted:   p.admitted.Load(),
		Shed:       p.shed.Load(),
	}
	if p.slots != nil {
		st.Size = cap(p.slots)
		st.InFlight = len(p.slots)
	}
	return st
}

// Governor is the server's weighted concurrency limiter.
type Governor struct {
	read, write, admin *pool
}

// NewGovernor returns a governor with the given pool bounds.
func NewGovernor(cfg GovernorConfig) *Governor {
	return &Governor{
		read:  newPool(PoolRead, cfg.Read),
		write: newPool(PoolWrite, cfg.Write),
		admin: newPool(PoolAdmin, cfg.Admin),
	}
}

func (g *Governor) pool(name string) *pool {
	switch name {
	case PoolWrite:
		return g.write
	case PoolAdmin:
		return g.admin
	default:
		return g.read
	}
}

// LifecycleConfig configures per-query deadlines, budgets and the
// slow-query log.
type LifecycleConfig struct {
	// QueryTimeout is the per-request deadline of query endpoints (0:
	// none). It is the only time bound a query has. Clients may lower it,
	// never raise it, with the X-Timeout-Ms header.
	QueryTimeout time.Duration
	// Budget bounds each query's resource consumption (zero dimensions are
	// unbounded).
	Budget lifecycle.Budget
	// SlowQueryThreshold logs queries slower than this (0: disabled).
	SlowQueryThreshold time.Duration
}

// XTimeoutHeader is the request header through which a client sets (or
// lowers) its per-request deadline in milliseconds.
const XTimeoutHeader = "X-Timeout-Ms"

// ConfigureLifecycle sets the per-query deadline/budget policy. Call before
// Handler.
func (s *Server) ConfigureLifecycle(cfg LifecycleConfig) { s.lifecycle = cfg }

// ConfigureGovernor puts the server's endpoints behind the given admission
// pools. Call before Handler.
func (s *Server) ConfigureGovernor(cfg GovernorConfig) { s.governor = NewGovernor(cfg) }

// queryOutcomes counts how query-endpoint requests ended, for
// GET /api/queries/stats.
type queryOutcomes struct {
	completed        atomic.Uint64
	deadlineExceeded atomic.Uint64
	budgetExceeded   atomic.Uint64
	clientCancelled  atomic.Uint64
	failed           atomic.Uint64
}

// slowQueryLogSize bounds the slow-query ring buffer.
const slowQueryLogSize = 64

// SlowQuery is one slow-query log record. TraceID correlates the entry with
// its span tree at GET /api/queries/trace/{id} while the trace is retained.
type SlowQuery struct {
	Time       time.Time `json:"time"`
	Endpoint   string    `json:"endpoint"`
	Query      string    `json:"query,omitempty"`
	DurationMs int64     `json:"durationMs"`
	Status     int       `json:"status"`
	TraceID    string    `json:"traceId,omitempty"`
}

// slowLog is a fixed-size ring of the most recent slow queries.
type slowLog struct {
	mu      sync.Mutex
	entries []SlowQuery
	next    int
}

func (l *slowLog) add(q SlowQuery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) < slowQueryLogSize {
		l.entries = append(l.entries, q)
		l.next = len(l.entries) % slowQueryLogSize
		return
	}
	l.entries[l.next] = q
	l.next = (l.next + 1) % slowQueryLogSize
}

// snapshot returns the recorded slow queries, most recent first.
func (l *slowLog) snapshot() []SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, 0, len(l.entries))
	for i := 0; i < len(l.entries); i++ {
		idx := (l.next - 1 - i + len(l.entries)*2) % len(l.entries)
		out = append(out, l.entries[idx])
	}
	return out
}

// reqInfo is per-request state shared between the lifecycle middleware and
// the handler it wraps (single goroutine: no locking needed).
type reqInfo struct {
	query string // the SPARQL text, set by query handlers for the slow log
}

type reqInfoKey struct{}

// noteQuery records the request's query text for the slow-query log.
func noteQuery(r *http.Request, text string) {
	if info, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		info.query = text
	}
}

// statusRecorder captures the response status for outcome accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// lifecycled wraps a handler with the full request lifecycle: a per-request
// trace (X-Trace-Id on every response, shed 429s included), admission
// through the named pool (429 + Retry-After on shed), the per-request
// deadline and budget tracker on the read pool, outcome accounting, request
// metrics and the slow-query log. With no governor and no lifecycle config
// it reduces to trace + status recording.
func (s *Server) lifecycled(poolName string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		endpoint := r.Method + " " + r.URL.Path
		trace := obs.NewTrace(endpoint)
		w.Header().Set("X-Trace-Id", trace.ID())
		ctx := obs.WithTrace(r.Context(), trace)
		requestsTotal.Inc()

		if s.governor != nil {
			_, admitSpan := obs.StartSpan(ctx, "admit")
			admitStart := time.Now()
			release, reason := s.governor.pool(poolName).acquire(ctx)
			queueWaitSeconds.Observe(time.Since(admitStart))
			if release == nil {
				admitSpan.SetAttr("shed", reason)
				admitSpan.End()
				trace.Finish()
				s.tracer().Offer(trace)
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, map[string]string{
					"error":   fmt.Sprintf("server overloaded: %s pool %s", poolName, reason),
					"code":    "shed",
					"traceId": trace.ID(),
				})
				return
			}
			admitSpan.End()
			defer release()
		}

		info := &reqInfo{}
		ctx = context.WithValue(ctx, reqInfoKey{}, info)

		// Deadlines and budgets apply to query work (the read pool); writes
		// and admin actions must run to completion once admitted. A
		// deadline gets a tracker too, so a 504 reports partial progress.
		if poolName == PoolRead {
			d := s.requestTimeout(r)
			if d > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, d)
				defer cancel()
			}
			if d > 0 || !s.lifecycle.Budget.IsZero() {
				ctx = lifecycle.WithTracker(ctx, lifecycle.NewTracker(s.lifecycle.Budget))
			}
		}

		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h(rec, r.WithContext(ctx))
		elapsed := time.Since(start)
		queryDurationSeconds.Observe(elapsed)
		trace.Finish()
		s.tracer().Offer(trace)

		switch rec.status {
		case http.StatusOK, http.StatusCreated, 0:
			s.outcomes.completed.Add(1)
		case http.StatusGatewayTimeout:
			s.outcomes.deadlineExceeded.Add(1)
		case http.StatusRequestEntityTooLarge:
			s.outcomes.budgetExceeded.Add(1)
		case statusClientClosedRequest:
			s.outcomes.clientCancelled.Add(1)
		default:
			s.outcomes.failed.Add(1)
		}
		if t := s.lifecycle.SlowQueryThreshold; t > 0 && elapsed >= t {
			slowQueriesTotal.Inc()
			q := SlowQuery{
				Time:       start,
				Endpoint:   endpoint,
				Query:      info.query,
				DurationMs: elapsed.Milliseconds(),
				Status:     rec.status,
				TraceID:    trace.ID(),
			}
			s.slow.add(q)
			slog.Warn("mdm: slow query",
				"endpoint", q.Endpoint,
				"duration", elapsed.Round(time.Millisecond).String(),
				"status", rec.status,
				"trace_id", trace.ID())
		}
	}
}

// maxTimeoutMs is the largest X-Timeout-Ms a time.Duration can hold.
const maxTimeoutMs = math.MaxInt64 / int64(time.Millisecond)

// requestTimeout resolves the effective per-request deadline: QueryTimeout,
// unless a positive X-Timeout-Ms header asks for less. With no QueryTimeout
// the header sets the deadline. The comparison is in milliseconds, so no
// header value overflows into a negative (absent) deadline.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	d := s.lifecycle.QueryTimeout
	ms, err := strconv.ParseInt(r.Header.Get(XTimeoutHeader), 10, 64)
	if err != nil || ms <= 0 || (d > 0 && ms >= d.Milliseconds()) {
		return d
	}
	return time.Duration(min(ms, maxTimeoutMs)) * time.Millisecond
}

// statusClientClosedRequest is the (de facto standard, nginx-originated)
// status for a request aborted because its client disconnected; the client
// never sees it, but it keeps the outcome distinguishable in logs/stats.
const statusClientClosedRequest = 499

// lifecycleErrorStatus maps a query-abort error onto the failure matrix:
// rows/bytes budgets exhaust the request entity (413), the context deadline
// is a gateway timeout (504), a client disconnect is 499.
// ok is false for errors that are not lifecycle aborts.
func lifecycleErrorStatus(err error) (status int, code string, ok bool) {
	if be, isBudget := lifecycle.BudgetError(err); isBudget {
		return http.StatusRequestEntityTooLarge, "budget:" + be.Dimension, true
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline", true
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "clientCancelled", true
	}
	return 0, "", false
}

// writeQueryError answers a failed query request: lifecycle aborts get
// their failure-matrix status with the offending dimension and the
// tracker's partial-progress stats; everything else is a 422 as before.
func writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	status, code, ok := lifecycleErrorStatus(err)
	if !ok {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	p := lifecycle.TrackerFrom(r.Context()).Progress()
	writeJSON(w, status, map[string]any{
		"error":   err.Error(),
		"code":    code,
		"traceId": obs.TraceID(r.Context()),
		"progress": map[string]int64{
			"rows":      p.Rows,
			"bytes":     p.Bytes,
			"elapsedMs": p.Elapsed.Milliseconds(),
		},
	})
}

// QueryStatsResponse is the body of GET /api/queries/stats.
type QueryStatsResponse struct {
	Pools    map[string]PoolStats `json:"pools,omitempty"`
	Outcomes struct {
		Completed        uint64 `json:"completed"`
		DeadlineExceeded uint64 `json:"deadlineExceeded"`
		BudgetExceeded   uint64 `json:"budgetExceeded"`
		ClientCancelled  uint64 `json:"clientCancelled"`
		Failed           uint64 `json:"failed"`
	} `json:"outcomes"`
	SlowQueryThresholdMs int64       `json:"slowQueryThresholdMs,omitempty"`
	SlowQueries          []SlowQuery `json:"slowQueries,omitempty"`
}

// handleQueryStats serves GET /api/queries/stats: per-pool in-flight, queue
// depth and shed counters, outcome counts and the slow-query log. Never
// governed or staleness-gated — observability must work under overload.
func (s *Server) handleQueryStats(w http.ResponseWriter, r *http.Request) {
	var resp QueryStatsResponse
	if s.governor != nil {
		resp.Pools = map[string]PoolStats{
			PoolRead:  s.governor.read.stats(),
			PoolWrite: s.governor.write.stats(),
			PoolAdmin: s.governor.admin.stats(),
		}
	}
	resp.Outcomes.Completed = s.outcomes.completed.Load()
	resp.Outcomes.DeadlineExceeded = s.outcomes.deadlineExceeded.Load()
	resp.Outcomes.BudgetExceeded = s.outcomes.budgetExceeded.Load()
	resp.Outcomes.ClientCancelled = s.outcomes.clientCancelled.Load()
	resp.Outcomes.Failed = s.outcomes.failed.Load()
	resp.SlowQueryThresholdMs = s.lifecycle.SlowQueryThreshold.Milliseconds()
	resp.SlowQueries = s.slow.snapshot()
	writeJSON(w, http.StatusOK, resp)
}
