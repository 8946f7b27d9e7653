package bdi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdi/internal/core"
	"bdi/internal/oracle"
	"bdi/internal/rdf"
	"bdi/internal/rewriting"
	"bdi/internal/sparql"
	"bdi/internal/workload"
)

// The cancellation hammers: cancel evaluations mid-join and rewrites
// mid-release across several seeds, under -race in CI, asserting that a
// cancelled operation never corrupts the shared store or the rewriting
// caches and never leaks a goroutine.

// isCancellation reports whether err is a context abort (the only error a
// cancelled evaluation or rewrite may return).
func isCancellation(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// requireStableGoroutines fails the test when the goroutine count does not
// come back down to (roughly) its pre-test level: a cancelled operation
// must not strand workers.
func requireStableGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC() // nudges finalizer/timer goroutines to settle
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not stabilize: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// hammerStore builds a store whose three-way join is wide enough that an
// evaluation takes milliseconds — room to land cancellations mid-join.
func hammerStore(t *testing.T) *core.Ontology {
	t.Helper()
	o := core.NewOntology()
	var quads []rdf.Quad
	add := func(s, p, obj rdf.IRI) {
		quads = append(quads, rdf.Quad{Triple: rdf.T(s, p, obj), Graph: core.GlobalGraphName})
	}
	p1, p2, p3 := rdf.IRI("http://ex/h/p1"), rdf.IRI("http://ex/h/p2"), rdf.IRI("http://ex/h/p3")
	for i := 0; i < 100; i++ {
		add(rdf.IRI(fmt.Sprintf("http://ex/h/a%d", i)), p1, rdf.IRI(fmt.Sprintf("http://ex/h/b%d", i%20)))
	}
	for b := 0; b < 20; b++ {
		for c := 0; c < 20; c++ {
			add(rdf.IRI(fmt.Sprintf("http://ex/h/b%d", b)), p2, rdf.IRI(fmt.Sprintf("http://ex/h/c%d", c)))
		}
	}
	for c := 0; c < 20; c++ {
		for d := 0; d < 10; d++ {
			add(rdf.IRI(fmt.Sprintf("http://ex/h/c%d", c)), p3, rdf.IRI(fmt.Sprintf("http://ex/h/d%d", d)))
		}
	}
	if _, err := o.Store().AddAll(quads); err != nil {
		t.Fatal(err)
	}
	return o
}

const hammerQuery = `
SELECT ?a ?d WHERE {
  ?a <http://ex/h/p1> ?b .
  ?b <http://ex/h/p2> ?c .
  ?c <http://ex/h/p3> ?d
}`

// TestCancelEvaluationMidJoinHammer cancels SPARQL evaluations at random
// points of their join pipeline and requires that (a) a cancelled run
// returns a context error and nothing else, (b) subsequent evaluations over
// the same store still produce the full answer (cancellation never corrupts
// shared state) and (c) no goroutines are stranded.
func TestCancelEvaluationMidJoinHammer(t *testing.T) {
	before := runtime.NumGoroutine()
	o := hammerStore(t)
	eval := oracle.NewEvaluator(o.Store())
	q, err := sparql.Parse(hammerQuery)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := eval.Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Len() == 0 {
		t.Fatal("hammer query returned no rows; the join never ran")
	}
	start := time.Now()
	if _, err := eval.Evaluate(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var cancelled, completed int
		for i := 0; i < 20; i++ {
			// Deadlines spread across [0, full): most runs die mid-join.
			d := time.Duration(rng.Int63n(int64(full) + 1))
			ctx, cancel := context.WithTimeout(context.Background(), d)
			sols, err := eval.Evaluate(ctx, q)
			cancel()
			switch {
			case err == nil:
				completed++
				if sols.Len() != baseline.Len() {
					t.Fatalf("seed %d: completed run returned %d rows, baseline %d", seed, sols.Len(), baseline.Len())
				}
			case isCancellation(err):
				cancelled++
			default:
				t.Fatalf("seed %d: unexpected evaluation error: %v", seed, err)
			}
		}
		if cancelled == 0 {
			t.Errorf("seed %d: no evaluation was cancelled mid-join (full run takes %s); the hammer is not hammering", seed, full)
		}
		// The store must be untouched by the aborted runs.
		sols, err := eval.Evaluate(context.Background(), q)
		if err != nil {
			t.Fatalf("seed %d: evaluation after cancellations: %v", seed, err)
		}
		if sols.Len() != baseline.Len() {
			t.Fatalf("seed %d: post-hammer evaluation returned %d rows, baseline %d", seed, sols.Len(), baseline.Len())
		}
	}
	requireStableGoroutines(t, before)
}

// TestCancelRewriteMidReleaseHammer runs concurrent cached rewrites with
// aggressive deadlines while releases churn the ontology, across three
// seeds. A cancelled rewrite must never poison the footprint-aware caches:
// once the churn stops, the cached result must be byte-identical (walk
// signatures) to a from-scratch rewrite over the final ontology state.
func TestCancelRewriteMidReleaseHammer(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, seed := range []int64{1, 2, 3} {
		ec, err := workload.BuildEvolutionChurn(4, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		cache := rewriting.NewCache(rewriting.NewRewriter(ec.Ontology))
		omq := ec.Query

		// Calibrate: how long does one cold rewrite take?
		start := time.Now()
		if _, err := cache.Rewrite(omq); err != nil {
			t.Fatal(err)
		}
		cold := time.Since(start)

		var cancelledRuns atomic.Int64
		churnDone := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*100 + int64(g)))
				for {
					select {
					case <-churnDone:
						return
					default:
					}
					d := time.Duration(rng.Int63n(int64(cold) + 1))
					ctx, cancel := context.WithTimeout(context.Background(), d)
					_, err := cache.RewriteContext(ctx, omq)
					cancel()
					switch {
					case err == nil:
					case isCancellation(err):
						cancelledRuns.Add(1)
					default:
						t.Errorf("seed %d: unexpected rewrite error: %v", seed, err)
						return
					}
				}
			}(g)
		}
		// Release churn on the ontology the workers are rewriting against:
		// related releases invalidate the query's cached units, unrelated
		// ones must survive delta validation.
		for i := 0; i < 8; i++ {
			if i%2 == 0 {
				_, err = ec.RegisterRelatedRelease()
			} else {
				_, err = ec.RegisterUnrelatedRelease()
			}
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(cold / 2)
		}
		close(churnDone)
		wg.Wait()
		if cancelledRuns.Load() == 0 {
			t.Errorf("seed %d: no rewrite was cancelled (cold rewrite takes %s); the hammer is not hammering", seed, cold)
		}

		// Cache parity: the cached result over the settled ontology must be
		// byte-identical to a from-scratch rewrite.
		cachedRes, err := cache.Rewrite(omq)
		if err != nil {
			t.Fatalf("seed %d: post-hammer cached rewrite: %v", seed, err)
		}
		freshRes, err := rewriting.NewRewriter(ec.Ontology).Rewrite(omq)
		if err != nil {
			t.Fatalf("seed %d: post-hammer fresh rewrite: %v", seed, err)
		}
		cachedSigs, freshSigs := cachedRes.UCQ.Signatures(), freshRes.UCQ.Signatures()
		if !slices.Equal(cachedSigs, freshSigs) {
			t.Fatalf("seed %d: cached rewrite diverged from scratch after cancellations:\ncached: %d walks\nfresh:  %d walks",
				seed, len(cachedSigs), len(freshSigs))
		}
		if got, want := cachedRes.UCQ.Len(), ec.ExpectedWalks(); got != want {
			t.Fatalf("seed %d: post-hammer walk count = %d, want %d", seed, got, want)
		}
	}
	requireStableGoroutines(t, before)
}
