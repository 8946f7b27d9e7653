package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"bdi/internal/obs"
	"bdi/internal/rewriting"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// Overhead gates: tracing a request may cost at most this much relative to
// the untraced baseline on the paper's perf-bar workloads. CI runs this
// ablation and fails the build when a gate is exceeded.
const (
	obsMaxTimeOverheadPct  = 3.0
	obsMaxAllocOverheadPct = 1.0
)

// printObsOverheadAblation measures what request tracing costs on the two
// perf-bar workloads: Figure 8 worst-case rewriting at w=4 (through the
// rewrite cache's instrumented miss path, a fresh cache per operation) and
// OMQ answering at 100k rows. Each workload runs A/B — a plain context vs a
// context carrying a live trace that is finished and offered to a retention
// ring per operation, exactly what the governor does per request — and
// reports wall time and allocations per operation. The best of three
// repetitions per cell shaves scheduler noise; the run exits non-zero when
// tracing costs more than 3% time or 1% allocations, so the paper's
// reproduction numbers cannot silently regress under observability.
func printObsOverheadAblation(concepts int) {
	header("Ablation — observability overhead (tracing off vs on)")

	builders := []func() (obsWorkload, error){
		func() (obsWorkload, error) {
			const w = 4
			wc, err := workload.BuildWorstCase(concepts, w)
			if err != nil {
				return obsWorkload{}, err
			}
			return obsWorkload{
				name:  fmt.Sprintf("figure-8 rewrite (C=%d, W=%d)", concepts, w),
				iters: 50,
				run: func(ctx context.Context) error {
					c := rewriting.NewCache(rewriting.NewRewriter(wc.Ontology))
					res, err := c.RewriteContext(ctx, wc.Query)
					if err != nil {
						return err
					}
					if res.UCQ.Len() != wc.ExpectedWalks() {
						return fmt.Errorf("walks = %d, want %d", res.UCQ.Len(), wc.ExpectedWalks())
					}
					return nil
				},
			}, nil
		},
		func() (obsWorkload, error) {
			const rows = 100000
			ec, err := workload.BuildWorstCaseRows(3, 2, rows)
			if err != nil {
				return obsWorkload{}, err
			}
			r := rewriting.NewRewriter(ec.Ontology)
			res, err := r.Rewrite(ec.Query)
			if err != nil {
				return obsWorkload{}, err
			}
			resolver := wrapper.NewQualifiedResolver(ec.Registry)
			return obsWorkload{
				name:  fmt.Sprintf("OMQ answer (rows=%d)", rows),
				iters: 10,
				run: func(ctx context.Context) error {
					answer, err := r.ExecuteResultLimit(ctx, res, resolver, 0)
					if err != nil {
						return err
					}
					if answer.Cardinality() != rows {
						return fmt.Errorf("answer = %d rows, want %d", answer.Cardinality(), rows)
					}
					return nil
				},
			}, nil
		},
	}

	fmt.Printf("%-28s %9s %12s %14s\n", "workload", "tracing", "time/op", "allocs/op")
	failed := false
	ring := obs.NewTracer(obs.DefaultTraceRetention)
	for _, build := range builders {
		wl, err := build()
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs-overhead:", err)
			os.Exit(1)
		}
		// Warm-up outside the measured window: first-op lazy index builds
		// would otherwise be misread as tracing overhead.
		if err := wl.run(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "obs-overhead: warming up %s: %v\n", wl.name, err)
			os.Exit(1)
		}
		off, err := measureObs(wl, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs-overhead: %s untraced: %v\n", wl.name, err)
			os.Exit(1)
		}
		on, err := measureObs(wl, ring)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs-overhead: %s traced: %v\n", wl.name, err)
			os.Exit(1)
		}
		fmt.Printf("%-28s %9s %12s %14.0f\n", wl.name, "off", off.perOp.Round(time.Microsecond), off.allocs)
		fmt.Printf("%-28s %9s %12s %14.0f\n", wl.name, "on", on.perOp.Round(time.Microsecond), on.allocs)
		timePct := overheadPct(float64(off.perOp), float64(on.perOp))
		allocPct := overheadPct(off.allocs, on.allocs)
		verdict := "ok"
		if timePct > obsMaxTimeOverheadPct || allocPct > obsMaxAllocOverheadPct {
			verdict = fmt.Sprintf("FAIL (budget: %.0f%% time, %.0f%% allocs)", obsMaxTimeOverheadPct, obsMaxAllocOverheadPct)
			failed = true
		}
		fmt.Printf("%-28s %9s overhead %+.2f%% time, %+.2f%% allocs — %s\n", "", "→", timePct, allocPct, verdict)
	}
	fmt.Println()
	fmt.Println("Tracing \"on\" is the full per-request path: a trace in the context, every")
	fmt.Println("instrumented span recorded, the finished trace offered to the retention")
	fmt.Println("ring. The gate keeps observability off the reproduction's critical path.")
	if failed {
		os.Exit(1)
	}
}

// obsWorkload is one measured cell: a named operation repeated iters times
// under a caller-chosen context.
type obsWorkload struct {
	name  string
	iters int
	run   func(ctx context.Context) error
}

// obsCell holds one (workload, tracing) measurement.
type obsCell struct {
	perOp  time.Duration
	allocs float64 // heap allocations per operation
}

// measureObs times the workload and counts allocations per operation via
// MemStats.Mallocs. With a nil ring the operations run untraced; otherwise
// each operation gets a fresh trace finished and offered to the ring. Three
// repetitions, best time and lowest alloc count kept: outliers come from
// scheduling and GC timing, and the floor is the honest cost comparison.
func measureObs(wl obsWorkload, ring *obs.Tracer) (obsCell, error) {
	best := obsCell{perOp: time.Duration(1<<63 - 1), allocs: float64(1<<63 - 1)}
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < wl.iters; i++ {
			ctx := context.Background()
			var trace *obs.Trace
			if ring != nil {
				trace = obs.NewTrace("bench")
				ctx = obs.WithTrace(ctx, trace)
			}
			if err := wl.run(ctx); err != nil {
				return obsCell{}, err
			}
			if ring != nil {
				trace.Finish()
				ring.Offer(trace)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		cell := obsCell{
			perOp:  elapsed / time.Duration(wl.iters),
			allocs: float64(after.Mallocs-before.Mallocs) / float64(wl.iters),
		}
		if cell.perOp < best.perOp {
			best.perOp = cell.perOp
		}
		if cell.allocs < best.allocs {
			best.allocs = cell.allocs
		}
	}
	return best, nil
}

// overheadPct returns how much larger b is than a, in percent of a.
func overheadPct(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	return (b - a) / a * 100
}
