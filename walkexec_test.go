package bdi

// End-to-end differential and concurrency tests for the compiled walk
// execution engine: full OMQ → rewriting → answer runs compared against the
// preserved reference executor over randomized wrapper data, and a race
// hammer that executes answers in parallel while wrappers are re-registered
// and releases land (run under -race in CI).

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bdi/internal/relational"
	"bdi/internal/rewriting"
	"bdi/internal/source"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// randomizeChainWrapper re-registers one worst-case chain wrapper with
// randomized rows over its original schema: random row counts, partially
// overlapping join keys and a value pool covering nil and mixed numerics.
func randomizeChainWrapper(rng *rand.Rand, reg *wrapper.Registry, concept, j int, hasNext bool) {
	name := fmt.Sprintf("w_c%d_%d", concept, j)
	source := fmt.Sprintf("S_c%d_%d", concept, j)
	idAttr := fmt.Sprintf("c%d_id", concept)
	valAttr := fmt.Sprintf("c%d_value", concept)
	ids := []string{idAttr}
	if hasNext {
		ids = append(ids, fmt.Sprintf("c%d_id", concept+1))
	}
	schema := relational.NewSchema(ids, []string{valAttr})
	values := []relational.Value{nil, 0.0, 1.5, float64(concept), 2, int64(2), "v"}
	var rows []relational.Tuple
	for k, n := 0, rng.Intn(7); k < n; k++ {
		t := relational.Tuple{idAttr: rng.Intn(5)}
		if hasNext {
			t[fmt.Sprintf("c%d_id", concept+1)] = rng.Intn(5)
		}
		if rng.Intn(10) > 0 { // occasionally leave the value attribute missing
			t[valAttr] = values[rng.Intn(len(values))]
		}
		rows = append(rows, t)
	}
	reg.Register(wrapper.NewMemory(name, source, schema, rows))
}

// TestWalkExecutionEndToEndParity runs full OMQ → rewrite → answer pipelines
// over randomized wrapper data (several seeds, several rounds each) through
// both the compiled engine and the reference executor, requiring identical
// answer names, schemas and canonical renderings.
func TestWalkExecutionEndToEndParity(t *testing.T) {
	seeds := []int64{1, 7, 42}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			concepts := 2 + rng.Intn(2)
			wrappers := 2
			wc, err := workload.BuildWorstCaseRows(concepts, wrappers, 3)
			if err != nil {
				t.Fatal(err)
			}
			r := rewriting.NewRewriter(wc.Ontology)
			res, err := r.Rewrite(wc.Query)
			if err != nil {
				t.Fatal(err)
			}
			if res.UCQ.Len() != wc.ExpectedWalks() {
				t.Fatalf("walks = %d, want %d", res.UCQ.Len(), wc.ExpectedWalks())
			}
			resolver := wrapper.NewQualifiedResolver(wc.Registry)
			answered := 0
			for round := 0; round < 8; round++ {
				for i := 0; i < concepts; i++ {
					for j := 0; j < wrappers; j++ {
						randomizeChainWrapper(rng, wc.Registry, i, j, i+1 < concepts)
					}
				}
				ref, refErr := r.ExecuteResultReference(res, resolver)
				got, gotErr := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
				if (refErr == nil) != (gotErr == nil) {
					t.Fatalf("round %d: error parity broken: reference=%v engine=%v", round, refErr, gotErr)
				}
				if refErr != nil {
					if refErr.Error() != gotErr.Error() {
						t.Fatalf("round %d: error text parity broken: reference=%v engine=%v", round, refErr, gotErr)
					}
					continue
				}
				answered++
				if ref.Name != got.Name || ref.Schema.String() != got.Schema.String() || ref.String() != got.String() {
					t.Fatalf("round %d: answer parity broken\nreference: %s %s\n%s\nengine: %s %s\n%s",
						round, ref.Name, ref.Schema, ref, got.Name, got.Schema, got)
				}
			}
			if answered == 0 {
				t.Fatal("every round errored: the test compared no answers")
			}
		})
	}
}

// TestOMQAnswerMatchesReferenceAtScale holds the compiled engine to the
// reference executor on the Figure 8 shape (3 chained concepts, 2 wrappers
// per concept) at row counts where the engine's chunked joins, shared hash
// indexes and dedup-union all span many check chunks.
func TestOMQAnswerMatchesReferenceAtScale(t *testing.T) {
	for _, rows := range []int{1000, 10000} {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			wc, err := workload.BuildWorstCaseRows(3, 2, rows)
			if err != nil {
				t.Fatal(err)
			}
			r := rewriting.NewRewriter(wc.Ontology)
			res, err := r.Rewrite(wc.Query)
			if err != nil {
				t.Fatal(err)
			}
			resolver := wrapper.NewQualifiedResolver(wc.Registry)
			ref, err := r.ExecuteResultReference(res, resolver)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cardinality() != rows {
				t.Fatalf("answer = %d rows, want %d", got.Cardinality(), rows)
			}
			if got.String() != ref.String() {
				t.Fatal("engine answer diverges from the reference answer")
			}
		})
	}
}

// chainWrapper mirrors the workload builder's wrapper shape so the hammer can
// pre-register data for release wrapper names before the releases land.
func chainWrapper(name, source string, concept int, hasNext bool) wrapper.Wrapper {
	idAttr := fmt.Sprintf("c%d_id", concept)
	valAttr := fmt.Sprintf("c%d_value", concept)
	ids := []string{idAttr}
	if hasNext {
		ids = append(ids, fmt.Sprintf("c%d_id", concept+1))
	}
	schema := relational.NewSchema(ids, []string{valAttr})
	var rows []relational.Tuple
	for k := 0; k < 3; k++ {
		tup := relational.Tuple{idAttr: k, valAttr: float64(concept) + float64(k)/10}
		if hasNext {
			tup[fmt.Sprintf("c%d_id", concept+1)] = k
		}
		rows = append(rows, tup)
	}
	return wrapper.NewMemory(name, source, schema, rows)
}

// TestAnswerConsistentUnderWrapperChurn extends the rewrite-cache hammer to
// full OMQ → answer execution: readers answer the worst-case query through
// the parallel engine while a writer re-registers the chain wrappers and
// lands related and unrelated releases. Every wrapper of a concept carries
// identical data, so the answer is an invariant of the generation — any
// deviation means a walk observed a torn wrapper set or the engine raced on
// shared state (run under -race in CI).
func TestAnswerConsistentUnderWrapperChurn(t *testing.T) {
	const (
		concepts     = 2
		wrappers     = 2
		sideConcepts = 2
		maxRelated   = 3
		readers      = 4
	)
	ec, err := workload.BuildEvolutionChurn(concepts, wrappers, sideConcepts)
	if err != nil {
		t.Fatal(err)
	}
	rew := rewriting.NewRewriter(ec.Ontology)
	cache := rewriting.NewCache(rew)
	resolver := wrapper.NewQualifiedResolver(ec.Registry)
	res0, err := cache.Rewrite(ec.Query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rew.ExecuteResultReference(res0, resolver)
	if err != nil {
		t.Fatal(err)
	}
	expected := want.String()
	if want.Cardinality() == 0 {
		t.Fatal("hammer invariant answer must be non-empty")
	}

	// Readers run a fixed number of answer rounds (not a stop-flag loop) so
	// the test still exercises concurrent execution when the writer's churn
	// finishes quickly.
	const roundsPerReader = 25
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < roundsPerReader; round++ {
				res, err := cache.Rewrite(ec.Query)
				if err != nil {
					errCh <- err
					return
				}
				ans, err := rew.ExecuteResultLimit(context.Background(), res, resolver, 0)
				if err != nil {
					errCh <- fmt.Errorf("answer under churn: %w", err)
					return
				}
				if got := ans.String(); got != expected {
					errCh <- fmt.Errorf("answer diverged under churn (%d walks)\nwant: %s\ngot:  %s",
						res.UCQ.Len(), expected, got)
					return
				}
			}
		}()
	}

	for related := 0; related < maxRelated; related++ {
		// Re-register every base chain wrapper with identical data: replaces
		// race with in-flight fetches without changing the answer.
		for i := 0; i < concepts; i++ {
			for j := 0; j < wrappers; j++ {
				name := fmt.Sprintf("w_c%d_%d", i, j)
				source := fmt.Sprintf("S_c%d_%d", i, j)
				ec.Registry.Register(chainWrapper(name, source, i, i+1 < concepts))
			}
		}
		if _, err := ec.RegisterUnrelatedRelease(); err != nil {
			t.Fatal(err)
		}
		if _, err := ec.RegisterRelatedRelease(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// After the churn settles the walk count reflects every related release
	// and the answer is still the invariant.
	res, err := cache.Rewrite(ec.Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.UCQ.Len() != ec.ExpectedWalks() {
		t.Errorf("final walks = %d, want %d", res.UCQ.Len(), ec.ExpectedWalks())
	}
	ans, err := rew.ExecuteResultLimit(context.Background(), res, resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.String() != expected {
		t.Errorf("final answer diverged\nwant: %s\ngot:  %s", expected, ans)
	}
}

// TestWalkExecutionAllocationsPerWalk guards the union-level compile of the
// Figure 8 union: 243 walks of 3 rows over 15 wrappers must not allocate the
// per-walk schemas, name maps and hash indexes a per-walk compile built (about
// 225 objects per walk). The ceilings are fixed per executed walk, fetch,
// ingest, union and decode included. A cold execution, which compiles the
// result's union program, holds 32 objects and 8 KB. A repeated execution of
// the same result reuses the program and runs every walk in its worker's
// scratch, copying out only the result rows: 6 objects and 1 KB.
func TestWalkExecutionAllocationsPerWalk(t *testing.T) {
	wc, err := workload.BuildWorstCase(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rewriting.NewRewriter(wc.Ontology)
	const runs = 5
	results := make([]*rewriting.Result, runs+1)
	for i := range results {
		if results[i], err = r.Rewrite(wc.Query); err != nil {
			t.Fatal(err)
		}
	}
	walks := results[0].UCQ.Len()
	if walks != wc.ExpectedWalks() {
		t.Fatalf("walks = %d, want %d", walks, wc.ExpectedWalks())
	}
	resolver := wrapper.NewQualifiedResolver(wc.Registry)
	execute := func(res *rewriting.Result) {
		answer, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
		if err != nil {
			t.Fatal(err)
		}
		if answer.Cardinality() != 3 {
			t.Fatalf("answer = %d rows, want 3", answer.Cardinality())
		}
	}
	measure := func(name string, ceiling, byteCeiling uint64, res func(i int) *rewriting.Result) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			execute(res(i))
		}
		runtime.ReadMemStats(&after)
		objects := (after.Mallocs - before.Mallocs) / uint64(runs*walks)
		bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(runs*walks)
		if objects > ceiling {
			t.Errorf("a %s execution of the Figure 8 union allocates %d objects per walk, ceiling %d", name, objects, ceiling)
		}
		if bytes > byteCeiling {
			t.Errorf("a %s execution of the Figure 8 union allocates %d B per walk, ceiling %d", name, bytes, byteCeiling)
		}
		t.Logf("%s: %d objects, %d B allocated per executed walk", name, objects, bytes)
	}
	execute(results[runs]) // lazy initialisation is not the walks' cost
	measure("cold", 32, 8<<10, func(i int) *rewriting.Result { return results[i] })
	measure("repeated", 6, 1<<10, func(int) *rewriting.Result { return results[0] })
}

// TestJSONRowsAllocationsPerDocument guards the JSON wrapper's column path:
// the qualified fetch of w1 over 2000 generated documents runs the pipeline
// into one scratch tuple and interns its kept cells straight into the
// dictionary's columns, so a document allocates only its boxed ratio (plus
// the amortized growth of the columns and the dictionary).
func TestJSONRowsAllocationsPerDocument(t *testing.T) {
	gen := source.NewGenerator(200, 1)
	docs := gen.VoDDocumentsV1()
	if len(docs) != 2000 {
		t.Fatalf("%d documents, want 2000", len(docs))
	}
	eco := source.NewEcosystem(gen)
	eco.VoD.RegisterStatic("v1", "events", docs)
	resolver := wrapper.NewQualifiedResolver(eco.WrapperRegistry(false))
	fetch := func() {
		rel, err := resolver.Fetch(context.Background(), "w1", relational.Pushdown{}, relational.NewValueDict())
		if err != nil {
			t.Fatal(err)
		}
		if rel.NumRows() != len(docs) {
			t.Fatalf("fetched %d rows, want %d", rel.NumRows(), len(docs))
		}
	}
	perDoc := testing.AllocsPerRun(5, fetch) / float64(len(docs))
	const ceiling = 1.5
	if perDoc > ceiling {
		t.Fatalf("the qualified fetch of w1 allocates %.2f objects per document, ceiling %.1f", perDoc, ceiling)
	}
	t.Logf("%.2f allocations per document", perDoc)
}
