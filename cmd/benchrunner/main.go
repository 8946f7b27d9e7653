// Command benchrunner regenerates the tables and figures of the paper's
// evaluation section (§6), the ablations that isolate its design choices,
// and the two pass/fail smokes CI runs against a live server:
//
//	benchrunner -table 3        API-level change handling (Table 3)
//	benchrunner -table 4        method-level change handling (Table 4)
//	benchrunner -table 5        parameter-level change handling (Table 5)
//	benchrunner -table 6        industrial applicability (Table 6)
//	benchrunner -figure 8       query answering time vs wrappers per concept
//	benchrunner -figure 11      Source-graph growth per Wordpress release
//	benchrunner -ablation lav-gav | attribute-reuse | overload
//	benchrunner -replicas 2     read-replica throughput and staleness under write churn
//	benchrunner -all            every table, figure and ablation
//
// `-ablation overload` and `-replicas N` exit non-zero when their contract
// breaks. Engineering measurements (per-layer latency, GC, WAL, tracing
// overhead, cache ratios) live in the bench/ module and the Benchmark*
// functions. Absolute timings depend on the host; the shapes (who wins,
// growth trends, crossovers) are the reproduction target.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"bdi"
	"bdi/internal/core"
	"bdi/internal/evolution"
	"bdi/internal/gav"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/workload"
)

func main() {
	table := flag.Int("table", 0, "regenerate a table of the paper (3, 4, 5 or 6)")
	figure := flag.Int("figure", 0, "regenerate a figure of the paper (8 or 11)")
	ablation := flag.String("ablation", "", "run an ablation: lav-gav, attribute-reuse or overload")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "replicas: number of concurrent query goroutines")
	all := flag.Bool("all", false, "regenerate every table, figure and ablation")
	maxWrappers := flag.Int("max-wrappers", 8, "figure 8: maximum number of wrappers per concept")
	concepts := flag.Int("concepts", 5, "figure 8: number of chained concepts in the query")
	replicas := flag.Int("replicas", 0, "run the replication benchmark with this many read replicas")
	duration := flag.Duration("duration", 3*time.Second, "replicas: measurement window for the replication benchmark")
	flag.Parse()

	ran := false
	if *all || *table == 3 {
		printChangeTable(3, evolution.APILevel)
		ran = true
	}
	if *all || *table == 4 {
		printChangeTable(4, evolution.MethodLevel)
		ran = true
	}
	if *all || *table == 5 {
		printChangeTable(5, evolution.ParameterLevel)
		ran = true
	}
	if *all || *table == 6 {
		printTable6()
		ran = true
	}
	if *all || *figure == 8 {
		printFigure8(*concepts, *maxWrappers)
		ran = true
	}
	if *all || *figure == 11 {
		printFigure11()
		ran = true
	}
	if *all || *ablation == "lav-gav" {
		printLAVvsGAV()
		ran = true
	}
	if *all || *ablation == "attribute-reuse" {
		printAttributeReuseAblation()
		ran = true
	}
	if *all || *ablation == "overload" {
		printOverloadAblation()
		ran = true
	}
	if *replicas > 0 {
		printReplicationBench(*replicas, *duration, *workers)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", len(title)))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

// printChangeTable regenerates Tables 3, 4 and 5: every change kind of the
// level with the component that accommodates it.
func printChangeTable(number int, level evolution.Level) {
	header(fmt.Sprintf("Table %d — %s changes dealt by wrappers or BDI ontology", number, level))
	fmt.Printf("%-40s %-10s %-12s\n", "Change", "Wrapper", "BDI Ont.")
	for _, c := range evolution.ByLevel(level) {
		wrapperMark, ontologyMark := "", ""
		if c.Handler.InvolvesWrapper() {
			wrapperMark = "x"
		}
		if c.Handler.InvolvesOntology() {
			ontologyMark = "x"
		}
		fmt.Printf("%-40s %-10s %-12s\n", c.Kind, wrapperMark, ontologyMark)
	}
	summary := evolution.Summarize(changesForLevel(level))
	fmt.Printf("-> %d change kinds: %d wrapper-only, %d ontology-only, %d both\n",
		summary.Total, summary.WrapperOnly, summary.OntologyOnly, summary.Both)
}

func changesForLevel(level evolution.Level) []evolution.Change {
	var out []evolution.Change
	for _, c := range evolution.ByLevel(level) {
		out = append(out, evolution.Change{Kind: c.Kind})
	}
	return out
}

// printTable6 regenerates Table 6: per-API accommodation percentages and the
// aggregate figures of §6.3.
func printTable6() {
	header("Table 6 — Industrial applicability (changes accommodated per API)")
	rep := evolution.Applicability(evolution.Table6Profiles())
	fmt.Print(rep)
	fmt.Printf("-> paper reports 48.84%% partially, 22.77%% fully, 71.62%% overall\n")
}

// printFigure8 regenerates Figure 8: worst-case query answering time as the
// number of (disjoint) wrappers per concept grows, against the theoretical
// O(W^C) prediction.
func printFigure8(concepts, maxWrappers int) {
	header(fmt.Sprintf("Figure 8 — Query answering time, %d-concept query, disjoint wrappers", concepts))
	fmt.Printf("%-10s %12s %14s %16s\n", "wrappers", "walks", "time", "predicted W^C")
	var baseline time.Duration
	var baselineWalks int
	for w := 1; w <= maxWrappers; w++ {
		wc, err := workload.BuildWorstCase(concepts, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figure 8:", err)
			os.Exit(1)
		}
		start := time.Now()
		walks, err := wc.Rewrite()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figure 8:", err)
			os.Exit(1)
		}
		if w == 1 {
			baseline, baselineWalks = elapsed, walks
		}
		predicted := time.Duration(0)
		if baselineWalks > 0 {
			predicted = time.Duration(float64(baseline) * float64(wc.ExpectedWalks()) / float64(baselineWalks))
		}
		fmt.Printf("%-10d %12d %14s %16s\n", w, walks, elapsed.Round(time.Microsecond), predicted.Round(time.Microsecond))
	}
	fmt.Println("-> expected shape: exponential growth tracking the W^C prediction (thin line in the paper)")
}

// printFigure11 regenerates Figure 11: triples added to S per Wordpress
// GET Posts release and the cumulative total.
func printFigure11() {
	header("Figure 11 — Growth in number of triples for S per release in Wordpress API")
	releases := workload.WordpressPostsTrace()
	_, points, err := workload.SimulateWordpressGrowth(releases, workload.WordpressGrowthOptions{ReuseAttributes: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figure 11:", err)
		os.Exit(1)
	}
	fmt.Printf("%-8s %-6s %14s %12s %10s %10s\n", "release", "major", "triples added", "cumulative", "new attrs", "reused")
	for _, p := range points {
		major := ""
		if p.Major {
			major = "yes"
		}
		fmt.Printf("%-8s %-6s %14d %12d %10d %10d\n", p.Version, major, p.SourceTriplesAdded, p.CumulativeTriples, p.NewAttributes, p.ReusedAttributes)
	}
	fmt.Println("-> expected shape: big initial batch for v1, major bump for v2, then steady linear growth")
}

// printLAVvsGAV runs the LAV-vs-GAV ablation on the SUPERSEDE scenario.
func printLAVvsGAV() {
	header("Ablation — LAV (paper) vs GAV (baseline) under source evolution")
	// LAV side.
	o, err := core.BuildSupersedeOntology(true)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	reg := workload.SupersedeTable1Registry(true)
	omq := bdi.NewOMQ(
		[]rdf.IRI{core.SupApplicationID, core.SupLagRatio},
		rdf.T(core.SupSoftwareApplication, core.GHasFeature, core.SupApplicationID),
		rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
		rdf.T(core.SupMonitor, core.SupGeneratesQoS, core.SupInfoMonitor),
		rdf.T(core.SupInfoMonitor, core.GHasFeature, core.SupLagRatio),
	)
	lavAnswer, lavRes, err := bdi.NewSystemWith(o, reg).Answer(context.Background(), omq, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// GAV side: mappings defined before the evolution, never repaired.
	g := gav.New()
	g.Define(gav.Mapping{Feature: core.SupApplicationID, Wrapper: "w3", Source: "D3", Attr: "TargetApp", IsID: true})
	g.Define(gav.Mapping{Feature: core.SupLagRatio, Wrapper: "w1", Source: "D1", Attr: "lagRatio"})
	g.AddJoin(relational.JoinCondition{LeftWrapper: "w3", LeftAttr: "MonitorId", RightWrapper: "w1", RightAttr: "VoDmonitorId"})
	gavAnswer, err := g.Answer([]rdf.IRI{core.SupApplicationID, core.SupLagRatio}, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%-28s %8s %8s\n", "approach", "walks", "rows")
	fmt.Printf("%-28s %8d %8d\n", "LAV rewriting (this paper)", lavRes.UCQ.Len(), lavAnswer.Relation().Cardinality())
	fmt.Printf("%-28s %8d %8d\n", "GAV unfolding (baseline)", 1, gavAnswer.Cardinality())
	fmt.Printf("-> GAV misses the rows served by the evolved schema version (w4); repair cost: %d mapping rewrites vs 1 release\n",
		g.RepairCost("w1", "lagRatio", map[string][]string{"D1": {"w1", "w4"}}))
}

// printAttributeReuseAblation compares Source-graph growth with and without
// the paper's attribute-reuse rule (§3.2).
func printAttributeReuseAblation() {
	header("Ablation — attribute reuse across wrappers of the same source")
	releases := workload.WordpressPostsTrace()
	_, withReuse, err := workload.SimulateWordpressGrowth(releases, workload.WordpressGrowthOptions{ReuseAttributes: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	_, withoutReuse, err := workload.SimulateWordpressGrowth(releases, workload.WordpressGrowthOptions{ReuseAttributes: false})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	last := len(withReuse) - 1
	fmt.Printf("%-28s %16s\n", "strategy", "total S triples")
	fmt.Printf("%-28s %16d\n", "attribute reuse (paper)", withReuse[last].CumulativeTriples)
	fmt.Printf("%-28s %16d\n", "no reuse (ablation)", withoutReuse[last].CumulativeTriples)
	fmt.Println("-> reusing attributes keeps the growth rate of S low (§3.2 / Algorithm 1 lines 9-15)")
}
