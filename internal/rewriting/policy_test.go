package rewriting

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"bdi/internal/core"
	"bdi/internal/wrapper"
)

// TestRewriteWithPolicyAllVersions pins that the policy rewrite is the plain
// rewrite plus a partial-walk filter: under AllVersions (an empty filter) the
// two produce identical results, down to walk rendering and the output
// columns.
func TestRewriteWithPolicyAllVersions(t *testing.T) {
	o := buildOntology(t, true)
	r := NewRewriter(o)
	res, err := RewriteWithPolicy(context.Background(), o, runningExampleOMQ(), PolicyOptions{Policy: AllVersions})
	if err != nil {
		t.Fatal(err)
	}
	if res.UCQ.Len() != 2 {
		t.Errorf("all-versions walks = %d, want 2", res.UCQ.Len())
	}
	plain, err := r.Rewrite(runningExampleOMQ())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.UCQ.String(), plain.UCQ.String(); got != want {
		t.Errorf("all-versions walks diverge from Rewrite\npolicy: %s\nplain:  %s", got, want)
	}
	if got, want := fmt.Sprint(res.UCQ.Signatures()), fmt.Sprint(plain.UCQ.Signatures()); got != want {
		t.Errorf("all-versions signatures = %s, Rewrite gives %s", got, want)
	}
	if got, want := fmt.Sprint(res.columns), fmt.Sprint(plain.columns); got != want {
		t.Errorf("all-versions output columns = %s, Rewrite gives %s", got, want)
	}
}

// TestRewriteWithPolicyHonorsCancellation checks a policy rewrite aborts on a
// cancelled context like every other rewrite.
func TestRewriteWithPolicyHonorsCancellation(t *testing.T) {
	o := buildOntology(t, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []VersionPolicy{AllVersions, LatestVersionsOnly} {
		if _, err := RewriteWithPolicy(ctx, o, runningExampleOMQ(), PolicyOptions{Policy: p}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled policy rewrite returned %v, want context.Canceled", p, err)
		}
	}
}

func TestRewriteWithPolicyLatestOnly(t *testing.T) {
	o := buildOntology(t, true)
	r := NewRewriter(o)
	res, err := RewriteWithPolicy(context.Background(), o, runningExampleOMQ(), PolicyOptions{Policy: LatestVersionsOnly})
	if err != nil {
		t.Fatal(err)
	}
	// Only the latest D1 wrapper (w4) participates: a single walk w3 ⋈ w4.
	sigs := res.UCQ.Signatures()
	if len(sigs) != 1 || sigs[0] != "w3|w4" {
		t.Errorf("latest-only signatures = %v", sigs)
	}
	// Executing it returns only the new-version data.
	resolver := wrapper.NewQualifiedResolver(supersedeRegistry(true))
	answer, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	if answer.Cardinality() != 1 {
		t.Errorf("latest-only rows = %d, want 1\n%s", answer.Cardinality(), answer)
	}
}

func TestRewriteWithPolicyAsOfRelease(t *testing.T) {
	o := buildOntology(t, true)
	// Release sequence: w1=1, w2=2, w3=3, w4=4. As of release 3, w4 does not
	// exist yet, so the rewriting matches the pre-evolution behaviour.
	seq, ok := o.View().RegistrationOrder(core.WrapperURI("w3"))
	if !ok || seq != 3 {
		t.Fatalf("registration order of w3 = %d, %v", seq, ok)
	}
	res, err := RewriteWithPolicy(context.Background(), o, runningExampleOMQ(), PolicyOptions{Policy: AsOfRelease, Release: 3})
	if err != nil {
		t.Fatal(err)
	}
	sigs := res.UCQ.Signatures()
	if len(sigs) != 1 || sigs[0] != "w1|w3" {
		t.Errorf("as-of-3 signatures = %v", sigs)
	}
	// As of release 1 only w1 exists: the query is unanswerable (no provider
	// for applicationId).
	if _, err := RewriteWithPolicy(context.Background(), o, runningExampleOMQ(), PolicyOptions{Policy: AsOfRelease, Release: 1}); err == nil {
		t.Error("as-of-1 should fail: applicationId has no provider yet")
	}
}

func TestLatestWrapperAccessors(t *testing.T) {
	v := buildOntology(t, true).View()
	latest, ok := v.LatestWrapperOfSource("D1")
	if !ok || latest != core.WrapperURI("w4") {
		t.Errorf("latest D1 wrapper = %v, %v", latest, ok)
	}
	if current, ok := v.LatestWrapperOfSource("D2"); !ok || current != core.WrapperURI("w2") {
		t.Errorf("current D2 wrapper = %v, %v", current, ok)
	}
	if _, ok := v.RegistrationOrder(core.WrapperURI("nonexistent")); ok {
		t.Error("unknown wrapper should have no registration order")
	}
	if _, ok := v.LatestWrapperOfSource("nonexistent"); ok {
		t.Error("unknown source should have no latest wrapper")
	}
}

func TestPolicyStringAndAdmission(t *testing.T) {
	for _, p := range []VersionPolicy{AllVersions, LatestVersionsOnly, AsOfRelease} {
		if p.String() == "" {
			t.Error("policy string empty")
		}
	}
	v := buildOntology(t, true).View()
	if !wrapperAdmitted(v, PolicyOptions{Policy: AllVersions}, core.WrapperURI("w1")) {
		t.Error("all-versions admits everything")
	}
	if wrapperAdmitted(v, PolicyOptions{Policy: LatestVersionsOnly}, core.WrapperURI("w1")) {
		t.Error("w1 is superseded by w4 under latest-only")
	}
	if !wrapperAdmitted(v, PolicyOptions{Policy: LatestVersionsOnly}, core.WrapperURI("w4")) {
		t.Error("w4 is the latest D1 wrapper")
	}
	if wrapperAdmitted(v, PolicyOptions{Policy: LatestVersionsOnly}, core.WrapperURI("unknown")) {
		t.Error("unknown wrappers are not admitted under latest-only")
	}
	if !wrapperAdmitted(v, PolicyOptions{Policy: AsOfRelease, Release: 2}, core.WrapperURI("w2")) {
		t.Error("w2 was registered second")
	}
	if wrapperAdmitted(v, PolicyOptions{Policy: AsOfRelease, Release: 2}, core.WrapperURI("w3")) {
		t.Error("w3 was registered third")
	}
}

func TestRewritingCache(t *testing.T) {
	o := buildOntology(t, false)
	r := NewRewriter(o)
	cache := NewCache(r)

	res1, err := cache.Rewrite(runningExampleOMQ())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := cache.Rewrite(runningExampleOMQ())
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("second call should be served from the cache")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %d hits, %d misses, %d entries", st.Hits, st.Misses, st.Entries)
	}

	// Registering a release mutates the ontology and invalidates the cache.
	if _, err := o.NewRelease(core.SupersedeReleaseW4()); err != nil {
		t.Fatal(err)
	}
	res3, err := cache.Rewrite(runningExampleOMQ())
	if err != nil {
		t.Fatal(err)
	}
	if res3 == res1 {
		t.Error("cache must invalidate after an ontology change")
	}
	if res3.UCQ.Len() != 2 {
		t.Errorf("post-evolution walks = %d", res3.UCQ.Len())
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2", st.Misses)
	}
}

func TestCacheKeyIsOrderInsensitive(t *testing.T) {
	a := runningExampleOMQ()
	b := runningExampleOMQ()
	// Reverse π and φ orders.
	b.Pi[0], b.Pi[1] = b.Pi[1], b.Pi[0]
	for i, j := 0, len(b.Phi.Triples)-1; i < j; i, j = i+1, j-1 {
		b.Phi.Triples[i], b.Phi.Triples[j] = b.Phi.Triples[j], b.Phi.Triples[i]
	}
	if canonicalKey(a) != canonicalKey(b) {
		t.Error("canonical key should be order-insensitive")
	}
}
