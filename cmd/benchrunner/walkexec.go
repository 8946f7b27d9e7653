package main

import (
	"context"
	"fmt"
	"time"

	"bdi/internal/rewriting"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// printWalkExecAblation compares the compiled slot-based walk execution
// engine against the preserved tuple-at-a-time reference executor on the
// Figure 8 worst-case shape (3 chained concepts, 2 wrappers per concept)
// with growing rows per wrapper. The rewriting runs once per shape; the
// reported times cover OMQ result → answer rows only.
func printWalkExecAblation() {
	header("Ablation — walk execution: compiled engine vs tuple-at-a-time executor")
	fmt.Printf("%-16s %14s %14s %8s\n", "rows/wrapper", "naive", "compiled", "ratio")
	const concepts, wrappers = 3, 2
	for _, rows := range []int{1000, 10000, 100000} {
		wc, err := workload.BuildWorstCaseRows(concepts, wrappers, rows)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		r := rewriting.NewRewriter(wc.Ontology)
		res, err := r.Rewrite(wc.Query)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		resolver := wrapper.NewQualifiedResolver(wc.Registry)

		// One warm-up round each, then one measured round (the workload is
		// deterministic, and the naive executor at 100k rows is slow enough
		// that averaging over many rounds would dominate the runner).
		if _, err := r.ExecuteResultReference(res, resolver); err != nil {
			fmt.Println("error:", err)
			return
		}
		start := time.Now()
		answer, err := r.ExecuteResultReference(res, resolver)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		naive := time.Since(start)

		if _, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0); err != nil {
			fmt.Println("error:", err)
			return
		}
		start = time.Now()
		compiled, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		engine := time.Since(start)

		if answer.String() != compiled.String() {
			fmt.Println("error: engine answer diverges from the reference answer")
			return
		}
		fmt.Printf("%-16d %14s %14s %7.1fx\n", rows,
			naive.Round(time.Millisecond), engine.Round(time.Millisecond),
			float64(naive)/float64(engine))
	}
	fmt.Println("(answers verified identical between both executors per row count)")
}
