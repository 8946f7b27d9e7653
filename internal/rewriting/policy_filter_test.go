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
)

// TestPolicyIsOnlyAFilterRandomizedSchedules checks that a version policy
// does nothing but filter. Over the randomized release schedules of
// TestIncrementalRewriteParityRandomizedSchedules, plus new schema versions
// of the chain's sources so that LatestVersionsOnly has versions to drop,
// every OMQ is rewritten under LatestVersionsOnly and under AsOfRelease(n)
// for every release n so far. Each policy rewrite must hold exactly the
// all-versions walks whose wrappers the policy admits, in the same order,
// and must fail exactly when no such walk is left. Admission is decided
// here, from what the schedule registered, and not by the rewriter.
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
			versions := 0
			record := func(res *core.ReleaseResult, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				releases = res.Sequence
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
				for qi, q := range queries {
					var all []*relational.Walk
					if res, err := r.Rewrite(q); err == nil {
						all = res.UCQ.Walks
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
				switch rng.Intn(4) {
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
						record(ec.Ontology.NewRelease(chainVersion(ec, i, j, old+"_v2")))
						superseded[old] = true
					}
				default:
					// No release: the same ontology is checked again.
				}
				check(step)
			}
		})
	}
}

// chainVersion is a new schema version of the source of the chain wrapper
// w_c<i>_<j>: a wrapper of the given name with the same attributes and LAV
// mapping as the one the worst-case builder registered.
func chainVersion(ec *workload.EvolutionChurn, i, j int, name string) core.Release {
	iri := func(format string, k int) rdf.IRI { return rdf.IRI(workload.NSWorst + fmt.Sprintf(format, k)) }
	spec := core.WrapperSpec{
		Name:            name,
		Source:          fmt.Sprintf("S_c%d_%d", i, j),
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
	if i+1 < ec.Concepts {
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
