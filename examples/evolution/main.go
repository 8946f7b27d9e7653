// Evolution: governing a fast-moving API with the BDI ontology.
//
// The example replays the Wordpress "GET Posts" release history (§6.4 of the
// paper): every release is diffed against the previous one, the next release
// is derived semi-automatically (renames and deletions carry their feature
// mappings over; additions are flagged for the data steward), and the growth
// of the Source graph is reported — the data behind Figure 11.
//
//	go run ./examples/evolution
package main

import (
	"fmt"
	"log"

	"bdi"
	"bdi/internal/evolution"
	"bdi/internal/workload"
)

func main() {
	releases := workload.WordpressPostsTrace()

	fmt.Println("Wordpress GET Posts — structural changes between releases")
	fmt.Println("----------------------------------------------------------")
	for i := 1; i < len(releases); i++ {
		prev, cur := releases[i-1], releases[i]
		// The steward (or a matching heuristic) provides rename hints; here we
		// detect them by aligning the known rename pairs of the trace.
		renames := inferRenameHints(prev.AllAttributes(), cur.AllAttributes())
		changes := evolution.SchemaDiff(prev.AllAttributes(), cur.AllAttributes(), renames)
		if len(changes) == 0 {
			continue
		}
		fmt.Printf("%s -> %s (%d changes)\n", prev.Version, cur.Version, len(changes))
		for _, c := range changes {
			classification, _ := evolution.Classify(c.Kind)
			fmt.Printf("  - %-45s handled by %s\n", c.String(), classification.Handler)
		}
	}

	// Semi-automatic release derivation for the running example: the paper's
	// w4 release is derived from w1 plus the lagRatio rename.
	fmt.Println("\nDeriving the running example's w4 release from w1 + one rename:")
	prev := bdi.SupersedeReleaseW1()
	changes := []bdi.AttributeChange{{Kind: evolution.RenameResponseParameter, Attribute: "lagRatio", RenamedTo: "bufferingRatio"}}
	next, unresolved := bdi.DeriveRelease(prev, "w4", changes, nil)
	fmt.Printf("  derived wrapper: %s(%v | %v), unresolved additions: %d\n",
		next.Wrapper.Name, next.Wrapper.IDAttributes, next.Wrapper.NonIDAttributes, len(unresolved))

	// Register the derived release into the SUPERSEDE ontology and verify the
	// historical query still works.
	ontology, err := bdi.BuildSupersedeOntology(false)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ontology.NewRelease(next); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  registered; D1 now has wrappers %v\n", ontology.View().WrappersOfSource("D1"))

	// Growth analysis (Figure 11).
	fmt.Println("\nSource graph growth per release (Figure 11):")
	_, points, err := workload.SimulateWordpressGrowth(releases, workload.WordpressGrowthOptions{ReuseAttributes: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-8s %14s %12s\n", "release", "triples added", "cumulative")
	for _, p := range points {
		fmt.Printf("  %-8s %14d %12d\n", p.Version, p.SourceTriplesAdded, p.CumulativeTriples)
	}
}

// inferRenameHints pairs a removed attribute with an added one when exactly
// one of each exists — a simple stand-in for the PARIS-style alignment the
// paper suggests for aiding the steward.
func inferRenameHints(oldAttrs, newAttrs []string) map[string]string {
	removed := difference(oldAttrs, newAttrs)
	added := difference(newAttrs, oldAttrs)
	if len(removed) == 1 && len(added) == 1 {
		return map[string]string{removed[0]: added[0]}
	}
	return nil
}

func difference(a, b []string) []string {
	inB := map[string]bool{}
	for _, x := range b {
		inB[x] = true
	}
	var out []string
	for _, x := range a {
		if !inB[x] {
			out = append(out, x)
		}
	}
	return out
}
