package sparql_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"bdi/internal/oracle"
	"bdi/internal/rdf"
	"bdi/internal/sparql"
	"bdi/internal/store"
)

// TestEvaluateAtConsistentUnderChurn hammers a shared evaluator from
// concurrent query goroutines while a writer batch-loads one fresh churn
// graph after another. Every query pins one snapshot via EvaluateAt, so its
// answer must reflect an all-or-nothing view of each churn batch: the
// two-pattern join below returns the proto row plus a whole multiple of
// churnRows rows (each graph fully present or absent at the pinned
// generation) — never a partial join. Run with -race this also checks that
// concurrent evaluations share no mutable state.
func TestEvaluateAtConsistentUnderChurn(t *testing.T) {
	s := store.New()
	const churnRows = 6
	churnGraph := func(n int) []rdf.Quad {
		g := rdf.IRI(fmt.Sprintf("http://sparql-snap/churn%d", n))
		var quads []rdf.Quad
		for i := 0; i < churnRows; i++ {
			item := rdf.IRI(fmt.Sprintf("http://sparql-snap/item%d-%d", n, i))
			quads = append(quads,
				rdf.Q(item, rdf.IRI("http://sparql-snap/kind"), rdf.IRI("http://sparql-snap/Widget"), g),
				rdf.Quad{
					Triple: rdf.NewTriple(item, rdf.IRI("http://sparql-snap/label"), rdf.NewLiteral(fmt.Sprintf("w%d", i))),
					Graph:  g,
				},
			)
		}
		return quads
	}
	// Seed the vocabulary in a stable graph so query constants are
	// resolvable before the first churn graph lands.
	if _, err := s.AddAll([]rdf.Quad{
		rdf.Q(rdf.IRI("http://sparql-snap/proto"), rdf.IRI("http://sparql-snap/kind"), rdf.IRI("http://sparql-snap/Widget"), "http://sparql-snap/base"),
		{
			Triple: rdf.NewTriple(rdf.IRI("http://sparql-snap/proto"), rdf.IRI("http://sparql-snap/label"), rdf.NewLiteral("proto")),
			Graph:  "http://sparql-snap/base",
		},
	}); err != nil {
		t.Fatal(err)
	}

	eval := oracle.NewEvaluator(s)
	q, err := sparql.Parse(`SELECT ?s ?l WHERE {
		?s <http://sparql-snap/kind> <http://sparql-snap/Widget> .
		?s <http://sparql-snap/label> ?l .
	}`)
	if err != nil {
		t.Fatal(err)
	}

	const iters = 150
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := s.AddAll(churnGraph(i)); err != nil {
				panic(err)
			}
		}
	}()

	const queriers = 4
	errs := make(chan error, queriers)
	for r := 0; r < queriers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sn := s.Snapshot()
				sols, err := eval.EvaluateAt(context.Background(), sn, q)
				if err != nil {
					errs <- err
					return
				}
				// 1 proto row always; each churn graph contributes
				// all-or-nothing.
				got := sols.Len()
				if (got-1)%churnRows != 0 {
					errs <- fmt.Errorf("torn query result: %d rows, want 1 plus a multiple of %d", got, churnRows)
					return
				}
				// A second evaluation at the same snapshot must agree.
				again, err := eval.EvaluateAt(context.Background(), sn, q)
				if err != nil {
					errs <- err
					return
				}
				if again.Len() != got {
					errs <- fmt.Errorf("same snapshot, different answers: %d vs %d rows", got, again.Len())
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
