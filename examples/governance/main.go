// Governance: deciding who absorbs an API change, and what breaks if you
// integrate with GAV mappings instead of the paper's LAV approach.
//
// The example prints the change taxonomy of Tables 3-5, the industrial
// applicability analysis of Table 6, and then replays the motivating
// scenario: under GAV the analyst's query silently loses data when the VoD
// provider evolves, while the LAV rewriting unions both schema versions.
//
//	go run ./examples/governance
package main

import (
	"context"
	"fmt"
	"log"

	"bdi"
	"bdi/internal/core"
	"bdi/internal/evolution"
	"bdi/internal/gav"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

func main() {
	// ------------------------------------------------------------ taxonomy
	fmt.Println("REST API change taxonomy (Tables 3-5): who accommodates what")
	for _, level := range []evolution.Level{evolution.APILevel, evolution.MethodLevel, evolution.ParameterLevel} {
		fmt.Printf("\n%s changes:\n", level)
		for _, c := range evolution.ByLevel(level) {
			fmt.Printf("  %-40s -> %-22s (%s)\n", c.Kind, c.Handler, c.Action)
		}
	}

	// ------------------------------------------------------------ applicability
	fmt.Println("\nIndustrial applicability over five widely-used APIs (Table 6):")
	fmt.Print(evolution.Applicability(evolution.Table6Profiles()))

	// ------------------------------------------------------------ LAV vs GAV
	fmt.Println("\nMotivating scenario: the VoD provider renames lagRatio -> bufferingRatio")
	reg := workload.SupersedeTable1Registry(true)

	// LAV: one release absorbs the change; the query unions both versions.
	ontology, err := core.BuildSupersedeOntology(true)
	if err != nil {
		log.Fatal(err)
	}
	sys := bdi.NewSystemWith(ontology, reg)
	omq, err := bdi.ParseOMQ(exampleQuery)
	if err != nil {
		log.Fatal(err)
	}
	lavAnswer, lavRes, err := sys.Answer(context.Background(), omq, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  LAV (this paper): %d walks, %d rows\n", lavRes.UCQ.Len(), lavAnswer.Relation().Cardinality())

	// GAV: the mapping still points at the old wrapper and attribute.
	g := gav.New()
	g.Define(gav.Mapping{Feature: core.SupApplicationID, Wrapper: "w3", Source: "D3", Attr: "TargetApp", IsID: true})
	g.Define(gav.Mapping{Feature: core.SupLagRatio, Wrapper: "w1", Source: "D1", Attr: "lagRatio"})
	g.AddJoin(relational.JoinCondition{LeftWrapper: "w3", LeftAttr: "MonitorId", RightWrapper: "w1", RightAttr: "VoDmonitorId"})
	gavAnswer, err := g.Answer([]rdf.IRI{core.SupApplicationID, core.SupLagRatio}, gavResolver(reg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  GAV (baseline)  : 1 walk, %d rows — the bufferingRatio data never shows up\n", gavAnswer.Cardinality())
	fmt.Printf("  GAV repair cost : %d mapping definitions to rewrite by hand (LAV: one release, Algorithm 1)\n",
		g.RepairCost("w1", "lagRatio", map[string][]string{"D1": {"w1", "w4"}}))
}

func gavResolver(reg *wrapper.Registry) relational.WrapperResolver { return reg }

const exampleQuery = `
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
PREFIX sc: <http://schema.org/>
SELECT ?x ?y
WHERE {
  VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
  sc:SoftwareApplication G:hasFeature sup:applicationId .
  sc:SoftwareApplication sup:hasMonitor sup:Monitor .
  sup:Monitor sup:generatesQoS sup:InfoMonitor .
  sup:InfoMonitor G:hasFeature sup:lagRatio
}
`
