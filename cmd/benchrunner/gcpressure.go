package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bdi/internal/rewriting"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// printGCPressureAblation quantifies what the flat-slab snapshot layout buys
// from the garbage collector: the two heap-heaviest workloads — Figure 8
// worst-case rewriting at w=4 wrappers per concept, and OMQ answering at
// 100k rows — run A/B under the default GOGC and GOGC=400, reporting wall
// time per operation, live heap after a forced collection, GC cycles and
// total stop-the-world pause accumulated over the run (runtime.ReadMemStats).
//
// Before slab packing, snapshot internals were pointer-dense and raising
// GOGC bought large speedups by deferring mark work over those pointers; the
// closer the two GOGC columns sit, the less the workload's performance
// depends on collector tuning. Any query error aborts with a non-zero exit
// so CI can gate on it.
func printGCPressureAblation(concepts int) {
	header("Ablation — GC pressure (flat-slab layout), default GOGC vs GOGC=400")

	// Workloads are constructed lazily, one at a time, so the 100k-row
	// execution dataset is not live heap while the rewriting cells run.
	builders := []func() (gcWorkload, error){
		func() (gcWorkload, error) {
			const w = 4
			wc, err := workload.BuildWorstCase(concepts, w)
			if err != nil {
				return gcWorkload{}, err
			}
			return gcWorkload{
				name:  fmt.Sprintf("figure-8 rewrite (C=%d, W=%d)", concepts, w),
				iters: 50,
				run: func() error {
					walks, err := wc.Rewrite()
					if err != nil {
						return err
					}
					if walks != wc.ExpectedWalks() {
						return fmt.Errorf("walks = %d, want %d", walks, wc.ExpectedWalks())
					}
					return nil
				},
			}, nil
		},
		func() (gcWorkload, error) {
			const rows = 100000
			ec, err := workload.BuildWorstCaseRows(3, 2, rows)
			if err != nil {
				return gcWorkload{}, err
			}
			r := rewriting.NewRewriter(ec.Ontology)
			res, err := r.Rewrite(ec.Query)
			if err != nil {
				return gcWorkload{}, err
			}
			resolver := wrapper.NewQualifiedResolver(ec.Registry)
			return gcWorkload{
				name:  fmt.Sprintf("OMQ answer (rows=%d)", rows),
				iters: 10,
				run: func() error {
					answer, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
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

	fmt.Printf("%-28s %9s %12s %14s %10s %12s\n",
		"workload", "GOGC", "time/op", "live heap", "GC cycles", "pause total")
	for _, build := range builders {
		wl, err := build()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gc-pressure:", err)
			os.Exit(1)
		}
		// One warm-up pass outside the measured window: the first operation
		// pays one-time costs (lazy per-graph index builds, rewrite caches)
		// that would otherwise be misread as GC effects.
		if err := wl.run(); err != nil {
			fmt.Fprintf(os.Stderr, "gc-pressure: warming up %s: %v\n", wl.name, err)
			os.Exit(1)
		}
		var cells [2]gcCell
		for i, gogc := range []int{defaultGOGC(), 400} {
			cell, err := measureGC(wl, gogc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gc-pressure: %s under GOGC=%d: %v\n", wl.name, gogc, err)
				os.Exit(1)
			}
			cells[i] = cell
			fmt.Printf("%-28s %9d %12s %14s %10d %12s\n",
				wl.name, gogc, cell.perOp.Round(time.Microsecond), formatBytes(cell.liveHeap),
				cell.gcCycles, cell.pause.Round(time.Microsecond))
		}
		delta := 0.0
		if cells[0].perOp > 0 {
			delta = float64(cells[0].perOp-cells[1].perOp) / float64(cells[0].perOp) * 100
		}
		fmt.Printf("%-28s %9s GOGC=400 speedup %.1f%% (smaller = less GC-bound)\n", "", "→", delta)
	}
	fmt.Println()
	fmt.Println("The GOGC=400 column trades heap headroom for fewer collections; a")
	fmt.Println("near-zero speedup means the slab layout already keeps mark work off")
	fmt.Println("the critical path and the workload no longer rewards GC tuning.")
}

// gcWorkload is one measured cell: a named operation repeated iters times.
type gcWorkload struct {
	name  string
	iters int
	run   func() error
}

// gcCell holds the collector-facing measurements of one (workload, GOGC) run.
type gcCell struct {
	perOp    time.Duration
	liveHeap uint64
	gcCycles uint32
	pause    time.Duration
}

// measureGC runs the workload under the given GOGC percentage and reads the
// collector's counters around it. A forced collection before the run settles
// float garbage from the previous cell; one after isolates the live heap.
func measureGC(wl gcWorkload, gogc int) (gcCell, error) {
	prev := debug.SetGCPercent(gogc)
	defer debug.SetGCPercent(prev)
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < wl.iters; i++ {
		if err := wl.run(); err != nil {
			return gcCell{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	cell := gcCell{
		perOp:    elapsed / time.Duration(wl.iters),
		gcCycles: after.NumGC - before.NumGC,
		pause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	cell.liveHeap = after.HeapAlloc
	return cell, nil
}

// defaultGOGC returns the GOGC the process started with (the A column), so
// an explicit GOGC environment override flows into the report.
func defaultGOGC() int {
	cur := debug.SetGCPercent(100)
	debug.SetGCPercent(cur)
	return cur
}

// formatBytes renders a byte count with a binary unit.
func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
