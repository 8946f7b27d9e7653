package bdi

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"bdi/internal/rewriting"
	"bdi/internal/workload"
)

// TestIncrementalRewriteParityRandomizedSchedules proves the acceptance
// criterion of the concept-partitioned incremental engine: across
// randomized schedules interleaving related releases, unrelated releases
// and repeated rewrites, the cache — serving retained results or rebuilding
// retired ones — produces byte-identical UCQ output (walks, projections, joins)
// compared to a from-scratch run of Algorithms 2-5 at every step.
func TestIncrementalRewriteParityRandomizedSchedules(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ec, err := workload.BuildEvolutionChurn(4, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			cache := rewriting.NewCache(rewriting.NewRewriter(ec.Ontology))
			full := rewriting.NewRewriter(ec.Ontology)
			queries := []*rewriting.OMQ{ec.Query, ec.SideQuery(0), ec.SideQuery(1), ec.SideQuery(2)}

			assertParity := func(step int) {
				t.Helper()
				for qi, q := range queries {
					cRes, cErr := cache.Rewrite(q)
					fRes, fErr := full.Rewrite(q)
					if (cErr != nil) != (fErr != nil) {
						t.Fatalf("step %d query %d: cache err %v, full err %v", step, qi, cErr, fErr)
					}
					if cErr != nil {
						if cErr.Error() != fErr.Error() {
							t.Fatalf("step %d query %d: error parity broken:\n%v\nvs\n%v", step, qi, cErr, fErr)
						}
						continue
					}
					if got, want := cRes.UCQ.String(), fRes.UCQ.String(); got != want {
						t.Fatalf("step %d query %d: UCQ diverged:\n%s\nvs\n%s", step, qi, got, want)
					}
					if got, want := strings.Join(cRes.UCQ.Signatures(), ","), strings.Join(fRes.UCQ.Signatures(), ","); got != want {
						t.Fatalf("step %d query %d: signatures diverged: %s vs %s", step, qi, got, want)
					}
				}
			}

			assertParity(-1)
			for step := 0; step < 30; step++ {
				switch rng.Intn(3) {
				case 0:
					if _, err := ec.RegisterUnrelatedRelease(); err != nil {
						t.Fatal(err)
					}
				case 1:
					// Bound the walk explosion: at most 4 related releases.
					if ec.RelatedReleases() < 4 {
						if _, err := ec.RegisterRelatedRelease(); err != nil {
							t.Fatal(err)
						}
					}
				default:
					// No mutation: exercises the pure-hit path.
				}
				assertParity(step)
			}
			st := cache.Stats()
			if st.EntriesRetained == 0 || st.EntriesInvalidated == 0 {
				t.Errorf("schedule never exercised the incremental paths: %+v", st)
			}
		})
	}
}

// TestRewriteCacheConsistentUnderRelease hammers the cache from concurrent
// readers while a writer registers related and unrelated releases: every
// returned walk set must exactly match the rewriting of ONE release
// generation — never a mix of two (run under -race in CI).
func TestRewriteCacheConsistentUnderRelease(t *testing.T) {
	const (
		concepts     = 3
		wrappers     = 2
		sideConcepts = 2
		maxRelated   = 4
		unrelatedPer = 2 // unrelated releases interleaved before each related one
		readers      = 4
	)
	ec, err := workload.BuildEvolutionChurn(concepts, wrappers, sideConcepts)
	if err != nil {
		t.Fatal(err)
	}

	// Valid walk-signature sets per related-release count, generated
	// analytically: one wrapper per chain concept, concept 0 drawing from
	// the base wrappers plus the related ones registered so far.
	validSets := map[string]int{}
	for related := 0; related <= maxRelated; related++ {
		c0 := make([]string, 0, wrappers+related)
		for j := 0; j < wrappers; j++ {
			c0 = append(c0, fmt.Sprintf("w_c0_%d", j))
		}
		for k := 1; k <= related; k++ {
			c0 = append(c0, fmt.Sprintf("w_c0_rel%d", k))
		}
		var sigs []string
		for _, w0 := range c0 {
			for j1 := 0; j1 < wrappers; j1++ {
				for j2 := 0; j2 < wrappers; j2++ {
					names := []string{w0, fmt.Sprintf("w_c1_%d", j1), fmt.Sprintf("w_c2_%d", j2)}
					sort.Strings(names)
					sigs = append(sigs, strings.Join(names, "|"))
				}
			}
		}
		sort.Strings(sigs)
		validSets[strings.Join(sigs, "\n")] = related
	}

	cache := rewriting.NewCache(rewriting.NewRewriter(ec.Ontology))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := cache.Rewrite(ec.Query)
				if err != nil {
					errCh <- err
					return
				}
				key := strings.Join(res.UCQ.Signatures(), "\n")
				if _, ok := validSets[key]; !ok {
					errCh <- fmt.Errorf("walk set matches no single release generation (%d walks): mixed-generation result", res.UCQ.Len())
					return
				}
			}
		}()
	}

	for related := 0; related < maxRelated; related++ {
		for u := 0; u < unrelatedPer; u++ {
			if _, err := ec.RegisterUnrelatedRelease(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ec.RegisterRelatedRelease(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// After the churn settles, the final result matches the final generation.
	res, err := cache.Rewrite(ec.Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.UCQ.Len() != ec.ExpectedWalks() {
		t.Errorf("final walks = %d, want %d", res.UCQ.Len(), ec.ExpectedWalks())
	}
}

// releaseOnErr is a context whose k-th Err call registers one related
// release: every cancellation check of a rewrite is a point where a release
// can land, and k picks which one.
type releaseOnErr struct {
	context.Context
	ec       *workload.EvolutionChurn
	k, calls int
	fired    bool
	err      error
}

func (c *releaseOnErr) Err() error {
	if c.calls++; c.calls == c.k {
		c.fired = true
		_, c.err = c.ec.RegisterRelatedRelease()
	}
	return c.Context.Err()
}

// rewriteShape is what a rewrite answers with: its walks' signatures and
// rendering.
type rewriteShape struct {
	Signatures []string
	Walks      string
}

func shapeOf(res *rewriting.Result) rewriteShape {
	return rewriteShape{res.UCQ.Signatures(), res.UCQ.String()}
}

// coldShape is a from-scratch rewrite of the churn query at the ontology's
// current generation.
func coldShape(t *testing.T, ec *workload.EvolutionChurn) rewriteShape {
	t.Helper()
	res, err := rewriting.NewRewriter(ec.Ontology).Rewrite(ec.Query)
	if err != nil {
		t.Fatal(err)
	}
	return shapeOf(res)
}

// midRewrite runs rewrite with a related release landing at its k-th
// cancellation check and requires the result to equal a cold rewrite of one
// generation — the one before the release or the one after it — in walk
// signatures and rendering alike. It returns the churn workload with the
// release registered.
func midRewrite(t *testing.T, k int, rewrite func(*workload.EvolutionChurn, context.Context) (*rewriting.Result, error)) *workload.EvolutionChurn {
	t.Helper()
	ec, err := workload.BuildEvolutionChurn(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := coldShape(t, ec)
	ctx := &releaseOnErr{Context: context.Background(), ec: ec, k: k}
	res, err := rewrite(ec, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.err != nil {
		t.Fatal(ctx.err)
	}
	if !ctx.fired {
		if _, err := ec.RegisterRelatedRelease(); err != nil {
			t.Fatal(err)
		}
	}
	after := coldShape(t, ec)
	got := shapeOf(res)
	if !reflect.DeepEqual(got, before) && !(ctx.fired && reflect.DeepEqual(got, after)) {
		t.Fatalf("release at check %d (fired %v): the rewrite matches no generation:\n got    %+v\n before %+v\n after  %+v", k, ctx.fired, got, before, after)
	}
	return ec
}

// TestRewriteMidReleasePinsOneGeneration lets a release land at each of a
// rewrite's first six cancellation checks: the uncached rewriter reads one
// view, so its result is a cold rewrite of one generation, never walks of
// one and joins of the next.
func TestRewriteMidReleasePinsOneGeneration(t *testing.T) {
	for k := 1; k <= 6; k++ {
		midRewrite(t, k, func(ec *workload.EvolutionChurn, ctx context.Context) (*rewriting.Result, error) {
			return rewriting.NewRewriter(ec.Ontology).RewriteContext(ctx, ec.Query)
		})
	}
}

// TestRewriteMidReleaseCacheBuildsOnce lets a release land at each of a
// cached miss's first six cancellation checks: the miss builds once, on the
// view it pinned, and equals a cold rewrite of that generation; the next
// lookup serves the release's generation.
func TestRewriteMidReleaseCacheBuildsOnce(t *testing.T) {
	for k := 1; k <= 6; k++ {
		var cache *rewriting.Cache
		ec := midRewrite(t, k, func(ec *workload.EvolutionChurn, ctx context.Context) (*rewriting.Result, error) {
			cache = rewriting.NewCache(rewriting.NewRewriter(ec.Ontology))
			return cache.RewriteContext(ctx, ec.Query)
		})
		if st := cache.Stats(); st.Misses != 1 {
			t.Errorf("release at check %d: %d misses, want 1", k, st.Misses)
		}
		res, err := cache.Rewrite(ec.Query)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := shapeOf(res), coldShape(t, ec); !reflect.DeepEqual(got, want) || res.UCQ.Len() != ec.ExpectedWalks() {
			t.Errorf("release at check %d: next lookup %+v (%d walks), want %+v (%d walks)", k, got, res.UCQ.Len(), want, ec.ExpectedWalks())
		}
	}
}
