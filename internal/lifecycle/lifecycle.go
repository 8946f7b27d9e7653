// Package lifecycle carries per-query execution control through the MDM
// stack: cancellation-aware resource budgets and progress accounting.
//
// A query enters the system with a context (deadline, client disconnect) and
// optionally a Budget bounding how many result rows, how many estimated
// bytes of intermediate/result data, and how much wall time it may consume.
// The budget travels inside the context as a *Tracker; every layer that
// produces rows — wrapper fetches, the relational join loops, the UCQ union
// loop — charges the tracker at chunk granularity and aborts with a
// deterministic *ErrBudgetExceeded naming the offending dimension. The HTTP
// layer maps the dimensions onto status codes (rows and bytes exhaust the
// request entity: 413; wall time and context deadline: 504) together with
// the tracker's partial-progress statistics.
//
// All Tracker methods are nil-safe: code on the hot path charges the
// tracker unconditionally and pays only a nil check when no budget is set.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Budget bounds one query's resource consumption. Zero values disable the
// corresponding dimension.
type Budget struct {
	// MaxRows bounds the number of rows produced across all operators
	// (intermediate join rows and result rows both count: fan-out is the
	// resource, not just the final answer size).
	MaxRows int64
	// MaxBytes bounds the estimated bytes of row data produced, using the
	// deterministic cost model of RowCost/TupleCost.
	MaxBytes int64
	// MaxWallTime bounds the elapsed wall time since the tracker was
	// created.
	MaxWallTime time.Duration
}

// IsZero reports whether no dimension is bounded.
func (b Budget) IsZero() bool {
	return b.MaxRows == 0 && b.MaxBytes == 0 && b.MaxWallTime == 0
}

// Budget dimensions, reported by ErrBudgetExceeded.
const (
	DimRows     = "rows"
	DimBytes    = "bytes"
	DimWallTime = "wallTime"
)

// ErrBudgetExceeded is the deterministic error a query aborts with when one
// budget dimension is exhausted.
type ErrBudgetExceeded struct {
	Dimension string // DimRows, DimBytes or DimWallTime
	Limit     int64  // the configured bound (nanoseconds for wall time)
	Used      int64  // consumption at the moment the bound tripped
}

// Error implements error.
func (e *ErrBudgetExceeded) Error() string {
	if e.Dimension == DimWallTime {
		return fmt.Sprintf("lifecycle: query exceeded its %s budget of %s (used %s)",
			e.Dimension, time.Duration(e.Limit), time.Duration(e.Used).Round(time.Millisecond))
	}
	return fmt.Sprintf("lifecycle: query exceeded its %s budget of %d (used %d)", e.Dimension, e.Limit, e.Used)
}

// BudgetError unwraps err to an *ErrBudgetExceeded, if it is one.
func BudgetError(err error) (*ErrBudgetExceeded, bool) {
	var be *ErrBudgetExceeded
	if errors.As(err, &be) {
		return be, true
	}
	return nil, false
}

// Progress is a snapshot of a tracker's consumption, reported back to the
// client when a query is cut short (the "partial progress" of a 504/413).
type Progress struct {
	Rows    int64         `json:"rows"`
	Bytes   int64         `json:"bytes"`
	Elapsed time.Duration `json:"-"`
}

// Tracker accounts one query's resource consumption against a Budget. It is
// safe for concurrent use (parallel operators may charge it concurrently)
// and all methods are nil-safe.
type Tracker struct {
	budget   Budget
	start    time.Time
	deadline time.Time // zero when MaxWallTime is unset
	rows     atomic.Int64
	bytes    atomic.Int64
}

// NewTracker returns a tracker for one query, starting its wall-time clock
// now.
func NewTracker(b Budget) *Tracker {
	t := &Tracker{budget: b, start: time.Now()}
	if b.MaxWallTime > 0 {
		t.deadline = t.start.Add(b.MaxWallTime)
	}
	return t
}

// AddRows charges n produced rows and returns *ErrBudgetExceeded when the
// row bound is exhausted. Nil-safe.
func (t *Tracker) AddRows(n int64) error {
	if t == nil || n == 0 {
		return nil
	}
	used := t.rows.Add(n)
	if t.budget.MaxRows > 0 && used > t.budget.MaxRows {
		return &ErrBudgetExceeded{Dimension: DimRows, Limit: t.budget.MaxRows, Used: used}
	}
	return nil
}

// AddBytes charges n estimated bytes of row data and returns
// *ErrBudgetExceeded when the byte bound is exhausted. Nil-safe.
func (t *Tracker) AddBytes(n int64) error {
	if t == nil || n == 0 {
		return nil
	}
	used := t.bytes.Add(n)
	if t.budget.MaxBytes > 0 && used > t.budget.MaxBytes {
		return &ErrBudgetExceeded{Dimension: DimBytes, Limit: t.budget.MaxBytes, Used: used}
	}
	return nil
}

// CheckTime returns *ErrBudgetExceeded when the wall-time bound is
// exhausted. Nil-safe.
func (t *Tracker) CheckTime() error {
	if t == nil || t.deadline.IsZero() {
		return nil
	}
	if now := time.Now(); now.After(t.deadline) {
		return &ErrBudgetExceeded{
			Dimension: DimWallTime,
			Limit:     int64(t.budget.MaxWallTime),
			Used:      int64(now.Sub(t.start)),
		}
	}
	return nil
}

// Progress snapshots the tracker's consumption. Nil-safe (zero progress).
func (t *Tracker) Progress() Progress {
	if t == nil {
		return Progress{}
	}
	return Progress{Rows: t.rows.Load(), Bytes: t.bytes.Load(), Elapsed: time.Since(t.start)}
}

// Check is the cooperative chunk-boundary check every row-producing loop
// calls: context cancellation (client disconnect, per-request deadline)
// first, then the wall-time budget. Row/byte dimensions trip inside
// AddRows/AddBytes at the same boundaries. t may be nil.
func Check(ctx context.Context, t *Tracker) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.CheckTime()
}

// Deterministic byte-cost model for budget accounting: coarse, cheap and
// identical across runs, so a budget trips at the same point every time.
const (
	// CellCost is the cost of one relational tuple cell (map entry +
	// small value), and TupleCost the per-tuple overhead.
	CellCost  = 24
	TupleCost = 48
)

// CheckEvery is the chunk granularity of cooperative cancellation and
// budget checks in row-producing loops: small enough that a 50ms deadline
// aborts within a few milliseconds on the paper's workloads, large enough
// that the per-row cost is a counter increment (<2% on the Figure 8 bar).
const CheckEvery = 512

type trackerKey struct{}

// WithTracker attaches a tracker to the context; layers below pull it out
// with TrackerFrom so only the context needs threading through APIs.
func WithTracker(ctx context.Context, t *Tracker) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, trackerKey{}, t)
}

// TrackerFrom returns the context's tracker, or nil (all Tracker methods
// accept a nil receiver).
func TrackerFrom(ctx context.Context) *Tracker {
	t, _ := ctx.Value(trackerKey{}).(*Tracker)
	return t
}
