// Quickstart: design a tiny Global graph, register one data source through a
// release (Algorithm 1), and answer an ontology-mediated query.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"bdi"
	"bdi/internal/rdf"
)

func main() {
	sys := bdi.NewSystem()

	// 1. The data steward designs the Global graph: a Sensor concept with an
	//    identifier and a temperature feature.
	const ns = "http://example.org/iot/"
	sensor := bdi.IRI(ns + "Sensor")
	sensorID := bdi.IRI(ns + "sensorId")
	temperature := bdi.IRI(ns + "temperature")
	must(sys.Ontology.AddConcept(sensor))
	must(sys.Ontology.AddIdentifier(sensor, sensorID, rdf.XSDInteger))
	must(sys.Ontology.AddFeatureTo(sensor, temperature, rdf.XSDDouble))

	// 2. A provider publishes a JSON endpoint; we expose it as a wrapper with
	//    a flat relational schema and register it through a release. The LAV
	//    mapping says which fragment of G the wrapper provides.
	readings := bdi.NewMemoryWrapper("readings-v1", "weather-api",
		bdi.NewSchema([]string{"station"}, []string{"tempC"}),
		[]bdi.Tuple{
			{"station": 1, "tempC": 21.5},
			{"station": 2, "tempC": 19.0},
			{"station": 3, "tempC": 24.2},
		})
	mapping := bdi.NewGraph("")
	mapping.Add(
		rdf.T(sensor, bdi.IRI("http://www.essi.upc.edu/~snadal/BDIOntology/Global/hasFeature"), sensorID),
		rdf.T(sensor, bdi.IRI("http://www.essi.upc.edu/~snadal/BDIOntology/Global/hasFeature"), temperature),
	)
	release := bdi.Release{
		Wrapper: bdi.WrapperSpec{
			Name:            "readings-v1",
			Source:          "weather-api",
			IDAttributes:    []string{"station"},
			NonIDAttributes: []string{"tempC"},
		},
		Subgraph: mapping,
		F: map[string]bdi.IRI{
			"station": sensorID,
			"tempC":   temperature,
		},
	}
	if _, err := sys.RegisterRelease(release, readings); err != nil {
		log.Fatal(err)
	}

	// 3. An analyst asks for every sensor's temperature, in terms of G only.
	query := `
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX iot: <http://example.org/iot/>
SELECT ?s ?t
WHERE {
  VALUES (?s ?t) { (iot:sensorId iot:temperature) }
  iot:Sensor G:hasFeature iot:sensorId .
  iot:Sensor G:hasFeature iot:temperature
}
`
	omq, err := bdi.ParseOMQ(query)
	if err != nil {
		log.Fatal(err)
	}
	answer, result, err := sys.Answer(context.Background(), omq, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rewritten to %d walk(s): %v\n\n", result.UCQ.Len(), result.UCQ.Signatures())
	fmt.Print(answer.Relation())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
