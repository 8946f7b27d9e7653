package bdi

import (
	"context"
	"testing"

	"bdi/internal/obs"
	"bdi/internal/rewriting"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// TestTracingAllocationOverhead keeps request tracing off the paper's perf-bar
// paths: an operation run with a live trace in its context, finished and
// offered to a retention ring exactly as the governor does per request, may
// allocate at most 1 % more than the same operation untraced. Allocation
// counts are deterministic where wall time is not; the time side of the
// budget is the bench's obs.trace_overhead_pct.
func TestTracingAllocationOverhead(t *testing.T) {
	const maxOverheadPct = 1.0

	worst, err := workload.BuildWorstCase(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := workload.BuildWorstCaseRows(3, 2, 10000)
	if err != nil {
		t.Fatal(err)
	}
	rowsRewriter := rewriting.NewRewriter(rows.Ontology)
	rowsResult, err := rowsRewriter.Rewrite(rows.Query)
	if err != nil {
		t.Fatal(err)
	}
	rowsResolver := wrapper.NewQualifiedResolver(rows.Registry)

	cases := []struct {
		name string
		runs int
		op   func(ctx context.Context) error
	}{
		// A fresh cache per operation: every run takes the instrumented
		// miss path through Algorithms 2-5.
		{"figure-8 rewrite miss (C=5, W=3)", 20, func(ctx context.Context) error {
			_, err := rewriting.NewCache(rewriting.NewRewriter(worst.Ontology)).RewriteContext(ctx, worst.Query)
			return err
		}},
		{"OMQ answer (rows=10000)", 5, func(ctx context.Context) error {
			_, err := rowsRewriter.ExecuteResultLimit(ctx, rowsResult, rowsResolver, 0)
			return err
		}},
	}
	ring := obs.NewTracer(obs.DefaultTraceRetention)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var opErr error
			untraced := testing.AllocsPerRun(c.runs, func() {
				if err := c.op(context.Background()); err != nil {
					opErr = err
				}
			})
			traced := testing.AllocsPerRun(c.runs, func() {
				trace := obs.NewTrace("test")
				if err := c.op(obs.WithTrace(context.Background(), trace)); err != nil {
					opErr = err
				}
				trace.Finish()
				ring.Offer(trace)
			})
			if opErr != nil {
				t.Fatal(opErr)
			}
			pct := (traced - untraced) / untraced * 100
			t.Logf("%.0f allocs untraced, %.0f traced (%+.2f%%)", untraced, traced, pct)
			if pct > maxOverheadPct {
				t.Fatalf("tracing adds %.2f%% allocations, budget %.0f%%", pct, maxOverheadPct)
			}
		})
	}
}
