package rewriting_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/rewriting"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// TestPolicyIsOnlyAFilterRandomizedSchedules checks that a version policy
// does nothing but filter. Over the randomized release schedules of
// TestIncrementalRewriteParityRandomizedSchedules, plus new schema versions
// of the chain's sources so that LatestVersionsOnly has versions to drop,
// every OMQ is rewritten under LatestVersionsOnly and under AsOfRelease(n)
// for every release n so far. Each policy rewrite must hold exactly the
// all-versions walks whose wrappers the policy admits, in the same order,
// and must fail exactly when no such walk is left. Admission is decided
// here, from what the schedule registered, and not by the rewriter. The
// schedules also register the shape of TestJoinEdgeProviderIsIDSide on the
// chain (idSideReleases), and every all-versions walk runs on one row per
// wrapper (RequireResultRuns); the policy walks are among them.
func TestPolicyIsOnlyAFilterRandomizedSchedules(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ec, err := workload.BuildEvolutionChurn(4, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			queries := []*rewriting.OMQ{ec.Query, ec.SideQuery(0), ec.SideQuery(1), ec.SideQuery(2)}
			// The builder registers one release per chain wrapper; every
			// wrapper it or the churn registers has a source of its own.
			releases := ec.Concepts * ec.WrappersPerConcept
			superseded := map[string]bool{} // wrappers a newer version of their source replaced
			versions, idSides := 0, 0
			record := func(res *core.ReleaseResult, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				releases = res.Sequence
			}
			// release registers a release of the test's own, and its wrapper
			// so that the walks over it run.
			release := func(r core.Release) {
				t.Helper()
				spec := r.Wrapper
				ec.Registry.Register(wrapper.NewMemory(spec.Name, spec.Source, relational.NewSchema(spec.IDAttributes, spec.NonIDAttributes), nil))
				record(ec.Ontology.NewRelease(r))
			}

			check := func(step int) {
				t.Helper()
				v := ec.Ontology.View()
				admits := func(p rewriting.PolicyOptions, w *relational.Walk) bool {
					for _, ref := range w.Wrappers {
						seq, ok := v.RegistrationOrder(core.WrapperURI(ref.Wrapper))
						if !ok {
							t.Fatalf("wrapper %s of a walk has no release", ref.Wrapper)
						}
						if p.Policy == rewriting.LatestVersionsOnly && superseded[ref.Wrapper] ||
							p.Policy == rewriting.AsOfRelease && seq > p.Release {
							return false
						}
					}
					return true
				}
				policies := []rewriting.PolicyOptions{{Policy: rewriting.LatestVersionsOnly}}
				for n := 0; n <= releases+1; n++ {
					policies = append(policies, rewriting.PolicyOptions{Policy: rewriting.AsOfRelease, Release: n})
				}
				r := rewriting.NewRewriter(ec.Ontology)
				resolver := rewriting.OneRowResolver(ec.Registry)
				for qi, q := range queries {
					var all []*relational.Walk
					if res, err := r.Rewrite(q); err == nil {
						all = res.UCQ.Walks
						rewriting.RequireResultRuns(t, res, resolver)
					}
					for _, p := range policies {
						var want []string
						for _, w := range all {
							if admits(p, w) {
								want = append(want, w.String())
							}
						}
						res, err := rewriting.RewriteWithPolicy(context.Background(), ec.Ontology, q, p)
						switch {
						case len(want) == 0 && err == nil:
							t.Fatalf("step %d query %d %s(%d): the policy admits no all-versions walk, yet the rewrite returned\n%s",
								step, qi, p.Policy, p.Release, res.UCQ)
						case len(want) == 0:
							continue
						case err != nil:
							t.Fatalf("step %d query %d %s(%d): %v, want %d walks", step, qi, p.Policy, p.Release, err, len(want))
						}
						var got []string
						for _, w := range res.UCQ.Walks {
							got = append(got, w.String())
						}
						if !slices.Equal(got, want) {
							i := 0
							for i < min(len(got), len(want)) && got[i] == want[i] {
								i++
							}
							t.Fatalf("step %d query %d %s(%d): %d walks, want the %d admitted all-versions walks; they differ from walk %d on:\n got  %q\n want %q",
								step, qi, p.Policy, p.Release, len(got), len(want), i, got[i:], want[i:])
						}
					}
				}
			}

			check(-1)
			for step := 0; step < 12; step++ {
				switch rng.Intn(5) {
				case 0:
					record(ec.RegisterUnrelatedRelease())
				case 1:
					// Bound the walk explosion, as the parity test does.
					if ec.RelatedReleases() < 4 {
						record(ec.RegisterRelatedRelease())
					}
				case 2:
					if versions < 3 {
						versions++
						i, j := rng.Intn(ec.Concepts), rng.Intn(ec.WrappersPerConcept)
						old := fmt.Sprintf("w_c%d_%d", i, j)
						if superseded[old] {
							break
						}
						release(chainRelease(ec, i, old+"_v2", fmt.Sprintf("S_c%d_%d", i, j), false, i+1 < ec.Concepts))
						superseded[old] = true
					}
				case 3:
					if idSides < 2 {
						idSides++
						for _, r := range idSideReleases(ec, rng.Intn(ec.Concepts-1), idSides) {
							release(r)
						}
					}
				default:
					// No release: the same ontology is checked again.
				}
				check(step)
			}
		})
	}
}

// chainRelease is a wrapper of chain concept i, from the given source,
// shaped like the worst-case builder's: the concept's ID and value, the edge
// from concept i-1 with its own ID when edgeIn (the builder's wrappers have
// no such edge), and the edge to concept i+1 with that concept's ID when
// edgeOut.
func chainRelease(ec *workload.EvolutionChurn, i int, name, source string, edgeIn, edgeOut bool) core.Release {
	iri := func(format string, k int) rdf.IRI { return rdf.IRI(workload.NSWorst + fmt.Sprintf(format, k)) }
	spec := core.WrapperSpec{
		Name:            name,
		Source:          source,
		IDAttributes:    []string{fmt.Sprintf("c%d_id", i)},
		NonIDAttributes: []string{fmt.Sprintf("c%d_value", i)},
	}
	g := rdf.NewGraph("")
	g.Add(
		rdf.T(iri("C%d", i), core.GHasFeature, iri("c%d_id", i)),
		rdf.T(iri("C%d", i), core.GHasFeature, iri("c%d_value", i)),
	)
	f := map[string]rdf.IRI{
		fmt.Sprintf("c%d_id", i):    iri("c%d_id", i),
		fmt.Sprintf("c%d_value", i): iri("c%d_value", i),
	}
	if edgeIn {
		g.Add(rdf.T(iri("C%d", i-1), iri("c%d_next", i-1), iri("C%d", i)))
	}
	if edgeOut {
		next := fmt.Sprintf("c%d_id", i+1)
		spec.IDAttributes = append(spec.IDAttributes, next)
		g.Add(
			rdf.T(iri("C%d", i), iri("c%d_next", i), iri("C%d", i+1)),
			rdf.T(iri("C%d", i+1), core.GHasFeature, iri("c%d_id", i+1)),
		)
		f[next] = iri("c%d_id", i+1)
	}
	return core.Release{Wrapper: spec, Subgraph: g, F: f}
}

// idSideReleases is the shape of TestJoinEdgeProviderIsIDSide on the chain,
// between concepts i and i+1: a wrapper of concept i without the edge to
// concept i+1, and a wrapper of concept i+1 that provides that edge itself,
// each from a source of its own. Algorithm 5 joins either with the other
// wrappers of the chain, but a candidate walk through both has no join
// condition between them, so Validate drops it.
func idSideReleases(ec *workload.EvolutionChurn, i, n int) []core.Release {
	return []core.Release{
		chainRelease(ec, i, fmt.Sprintf("w_c%d_noedge%d", i, n), fmt.Sprintf("S_c%d_noedge%d", i, n), false, false),
		chainRelease(ec, i+1, fmt.Sprintf("w_c%d_idside%d", i+1, n), fmt.Sprintf("S_c%d_idside%d", i+1, n), true, i+2 < ec.Concepts),
	}
}
