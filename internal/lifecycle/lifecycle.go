// Package lifecycle carries per-query resource budgets and progress
// accounting through the MDM stack.
//
// A query enters the system with a context, which owns time: the
// per-request deadline and client disconnect both end it, and every
// row-producing loop tests ctx.Err() at chunk boundaries. A Budget bounds
// the two other dimensions, how many result rows and how many estimated
// bytes of intermediate/result data the query may produce. The budget
// travels inside the context as a *Tracker; every layer that produces rows
// — wrapper fetches, the relational join loops, the UCQ union loop —
// charges the tracker at chunk granularity and aborts with a deterministic
// *ErrBudgetExceeded naming the offending dimension. The HTTP layer maps a
// budget abort onto 413 and a context deadline onto 504, together with the
// tracker's partial-progress statistics.
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
}

// IsZero reports whether no dimension is bounded.
func (b Budget) IsZero() bool {
	return b.MaxRows == 0 && b.MaxBytes == 0
}

// Budget dimensions, reported by ErrBudgetExceeded.
const (
	DimRows  = "rows"
	DimBytes = "bytes"
)

// ErrBudgetExceeded is the deterministic error a query aborts with when one
// budget dimension is exhausted.
type ErrBudgetExceeded struct {
	Dimension string // DimRows or DimBytes
	Limit     int64  // the configured bound
	Used      int64  // consumption at the moment the bound tripped
}

// Error implements error.
func (e *ErrBudgetExceeded) Error() string {
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
	budget Budget
	start  time.Time
	rows   atomic.Int64
	bytes  atomic.Int64
}

// NewTracker returns a tracker for one query, starting the clock its
// Progress reports as elapsed now.
func NewTracker(b Budget) *Tracker {
	return &Tracker{budget: b, start: time.Now()}
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

// Progress snapshots the tracker's consumption. Nil-safe (zero progress).
func (t *Tracker) Progress() Progress {
	if t == nil {
		return Progress{}
	}
	return Progress{Rows: t.rows.Load(), Bytes: t.bytes.Load(), Elapsed: time.Since(t.start)}
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
