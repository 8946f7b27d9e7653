package lifecycle

import (
	"context"
	"testing"
)

func TestNilTrackerIsSafe(t *testing.T) {
	var tr *Tracker
	if err := tr.AddRows(100); err != nil {
		t.Fatalf("nil AddRows: %v", err)
	}
	if err := tr.AddBytes(1 << 30); err != nil {
		t.Fatalf("nil AddBytes: %v", err)
	}
	if p := tr.Progress(); p.Rows != 0 || p.Bytes != 0 {
		t.Fatalf("nil Progress = %+v", p)
	}
}

func TestRowBudgetTripsDeterministically(t *testing.T) {
	tr := NewTracker(Budget{MaxRows: 10})
	for i := 0; i < 10; i++ {
		if err := tr.AddRows(1); err != nil {
			t.Fatalf("row %d within budget: %v", i, err)
		}
	}
	err := tr.AddRows(1)
	be, ok := BudgetError(err)
	if !ok {
		t.Fatalf("expected ErrBudgetExceeded, got %v", err)
	}
	if be.Dimension != DimRows || be.Limit != 10 || be.Used != 11 {
		t.Fatalf("budget error = %+v", be)
	}
}

func TestByteBudgetTrips(t *testing.T) {
	tr := NewTracker(Budget{MaxBytes: 100})
	if err := tr.AddBytes(100); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := tr.AddBytes(1)
	if be, ok := BudgetError(err); !ok || be.Dimension != DimBytes {
		t.Fatalf("expected bytes budget error, got %v", err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTracker(Budget{MaxRows: 1})
	ctx := WithTracker(context.Background(), tr)
	if got := TrackerFrom(ctx); got != tr {
		t.Fatalf("TrackerFrom = %p, want %p", got, tr)
	}
	if got := TrackerFrom(context.Background()); got != nil {
		t.Fatalf("TrackerFrom(empty) = %p, want nil", got)
	}
	// WithTracker(nil) is the identity.
	base := context.Background()
	if got := WithTracker(base, nil); got != base {
		t.Fatal("WithTracker(nil) should return the context unchanged")
	}
}

func TestUnboundedBudgetNeverTrips(t *testing.T) {
	tr := NewTracker(Budget{})
	if err := tr.AddRows(1 << 40); err != nil {
		t.Fatalf("unbounded rows: %v", err)
	}
	if err := tr.AddBytes(1 << 50); err != nil {
		t.Fatalf("unbounded bytes: %v", err)
	}
	if !tr.budget.IsZero() {
		t.Fatal("zero budget should report IsZero")
	}
}
