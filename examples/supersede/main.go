// SUPERSEDE: the paper's full running example over simulated REST providers.
//
// Three providers (a VoD monitoring API, a feedback-gathering API and an
// application-registry API) serve JSON over HTTP. Wrappers expose them as
// flat relations, the BDI ontology integrates them, and the same
// ontology-mediated query keeps working when the VoD provider releases a new
// schema version that renames its fields.
//
//	go run ./examples/supersede
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"bdi"
	"bdi/internal/core"
	"bdi/internal/relational"
	"bdi/internal/source"
	"bdi/internal/wrapper"
)

const analystQuery = `
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
PREFIX sc: <http://schema.org/>
SELECT ?x ?y
FROM <http://www.essi.upc.edu/~snadal/BDIOntology/Global>
WHERE {
  VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
  sc:SoftwareApplication G:hasFeature sup:applicationId .
  sc:SoftwareApplication sup:hasMonitor sup:Monitor .
  sup:Monitor sup:generatesQoS sup:InfoMonitor .
  sup:InfoMonitor G:hasFeature sup:lagRatio
}
`

func main() {
	// ---------------------------------------------------------------- providers
	// Simulated third-party providers serving JSON over HTTP on a local port.
	gen := source.NewGenerator(4, 2026)
	gen.EventsPerMonitor = 5
	eco := source.NewEcosystem(gen)
	baseURL, shutdown := serve(eco.Mux())
	defer shutdown()
	fmt.Printf("simulated providers listening at %s\n\n", baseURL)

	// ---------------------------------------------------------------- wrappers
	// Wrappers query the providers over HTTP and expose flat relations, as the
	// MongoDB aggregation of Code 2 does in the paper.
	w1 := wrapper.NewJSON("w1", "D1",
		relational.NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}),
		wrapper.NewHTTPSource(baseURL+"/vod/v1/events"),
		wrapper.ProjectField{Path: "monitorId", As: "VoDmonitorId"},
		wrapper.ComputeRatio{Numerator: "waitTime", Denominator: "watchTime", As: "lagRatio"},
	)
	w2 := wrapper.NewJSON("w2", "D2",
		relational.NewSchema([]string{"FGId"}, []string{"tweet"}),
		wrapper.NewHTTPSource(baseURL+"/feedback/v1/feedback"),
		wrapper.ProjectField{Path: "feedbackGatheringId", As: "FGId"},
		wrapper.ProjectField{Path: "text", As: "tweet"},
	)
	w3 := wrapper.NewJSON("w3", "D3",
		relational.NewSchema([]string{"TargetApp", "MonitorId", "FeedbackId"}, nil),
		wrapper.NewHTTPSource(baseURL+"/apps/v1/apps"),
		wrapper.ProjectField{Path: "appId", As: "TargetApp"},
		wrapper.ProjectField{Path: "monitorId", As: "MonitorId"},
		wrapper.ProjectField{Path: "feedbackGatheringId", As: "FeedbackId"},
	)

	// ---------------------------------------------------------------- ontology
	sys := bdi.NewSystem()
	must(bdi.BuildSupersedeGlobalGraph(sys.Ontology))
	mustRegister(sys, bdi.SupersedeReleaseW1(), w1)
	mustRegister(sys, bdi.SupersedeReleaseW2(), w2)
	mustRegister(sys, bdi.SupersedeReleaseW3(), w3)

	// ---------------------------------------------------------------- querying
	fmt.Println("== before evolution ==")
	runQuery(sys)

	// ---------------------------------------------------------------- evolution
	// The VoD provider publishes schema version 2: waitTime/watchTime are
	// renamed. The data steward registers a new wrapper (w4) through a single
	// release; the analyst's query is untouched.
	fmt.Println("\n== the VoD provider releases schema v2 (fields renamed) ==")
	w4 := wrapper.NewJSON("w4", "D1",
		relational.NewSchema([]string{"VoDmonitorId"}, []string{"bufferingRatio"}),
		wrapper.NewHTTPSource(baseURL+"/vod/v2/events"),
		wrapper.ProjectField{Path: "monitorId", As: "VoDmonitorId"},
		wrapper.ComputeRatio{Numerator: "bufferingTime", Denominator: "playbackTime", As: "bufferingRatio"},
	)
	mustRegister(sys, bdi.SupersedeReleaseW4(), w4)
	fmt.Printf("registered release for w4; Source graph now holds %d triples\n\n", sys.Ontology.TriplesInSource())

	fmt.Println("== after evolution: same query, both schema versions answered ==")
	runQuery(sys)

	// The stats show how the two-level ontology grew.
	st := sys.Ontology.Stats()
	fmt.Printf("\nontology: %d concepts, %d features, %d sources, %d wrappers, %d attributes\n",
		st.Concepts, st.Features, st.DataSources, st.Wrappers, st.Attributes)
}

func runQuery(sys *bdi.System) {
	start := time.Now()
	omq, err := bdi.ParseOMQ(analystQuery)
	if err != nil {
		log.Fatal(err)
	}
	ids, res, err := sys.Answer(context.Background(), omq, 0)
	if err != nil {
		log.Fatal(err)
	}
	answer := ids.Relation()
	fmt.Printf("rewriting: %d walk(s) %v in %s\n", res.UCQ.Len(), res.UCQ.Signatures(), time.Since(start).Round(time.Microsecond))
	fmt.Printf("answer: %d (applicationId, lagRatio) rows; first rows:\n", answer.Cardinality())
	for i, t := range answer.Tuples { // the engine orders its result
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  app=%v lagRatio=%v\n", t["applicationId"], t["lagRatio"])
	}
}

func mustRegister(sys *bdi.System, r core.Release, w wrapper.Wrapper) {
	if _, err := sys.RegisterRelease(r, w); err != nil {
		log.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// serve starts an HTTP server on a random local port and returns its base
// URL plus a shutdown function.
func serve(handler http.Handler) (string, func()) {
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() { _ = srv.Serve(listener) }()
	return "http://" + listener.Addr().String(), func() { _ = srv.Close() }
}
