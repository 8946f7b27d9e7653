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
// concurrent query goroutines while a writer batch-loads and drops a churn
// graph. Every query pins one snapshot via EvaluateAt, so its answer must
// reflect an all-or-nothing view of the churn batch: the two-pattern join
// below returns either 0 rows (graph absent at the pinned generation) or
// exactly churnRows rows (graph fully present) — never a partial join. Run
// with -race this also checks that concurrent evaluations share no mutable
// state.
func TestEvaluateAtConsistentUnderChurn(t *testing.T) {
	s := store.New()
	const churnRows = 6
	g := rdf.IRI("http://sparql-snap/churn")
	var quads []rdf.Quad
	for i := 0; i < churnRows; i++ {
		item := rdf.IRI(fmt.Sprintf("http://sparql-snap/item%d", i))
		quads = append(quads,
			rdf.Q(item, rdf.IRI("http://sparql-snap/kind"), rdf.IRI("http://sparql-snap/Widget"), g),
			rdf.Quad{
				Triple: rdf.NewTriple(item, rdf.IRI("http://sparql-snap/label"), rdf.NewLiteral(fmt.Sprintf("w%d", i))),
				Graph:  g,
			},
		)
	}
	// Seed the vocabulary in a stable graph so query constants stay
	// resolvable while the churn graph is absent.
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
			if _, err := s.AddAll(quads); err != nil {
				panic(err)
			}
			s.RemoveGraph(g)
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
				// 1 proto row always; churn contributes all-or-nothing.
				got := sols.Len()
				if got != 1 && got != 1+churnRows {
					errs <- fmt.Errorf("torn query result: %d rows, want 1 or %d", got, 1+churnRows)
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
