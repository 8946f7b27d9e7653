package bdi

import (
	"context"
	"strings"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/rewriting"
	"bdi/internal/store"
	"bdi/internal/workload"
)

const exampleQuery = `
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

// buildSystem assembles the running example through the public facade only.
func buildSystem(t *testing.T, withEvolution bool) *System {
	t.Helper()
	sys := NewSystem()
	if err := BuildSupersedeGlobalGraph(sys.Ontology); err != nil {
		t.Fatal(err)
	}
	reg := workload.SupersedeTable1Registry(withEvolution)
	releases := []Release{SupersedeReleaseW1(), SupersedeReleaseW2(), SupersedeReleaseW3()}
	if withEvolution {
		releases = append(releases, SupersedeReleaseW4())
	}
	for _, r := range releases {
		w, _ := reg.Get(r.Wrapper.Name)
		if _, err := sys.RegisterRelease(r, w); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// answerSPARQL parses a SPARQL OMQ and answers it through the system.
func answerSPARQL(sys *System, text string) (*Relation, *RewriteResult, error) {
	omq, err := ParseOMQ(text)
	if err != nil {
		return nil, nil, err
	}
	answer, res, err := sys.Answer(context.Background(), omq, 0)
	if err != nil {
		return nil, res, err
	}
	return answer.Relation(), res, nil
}

// rewriteSPARQL parses a SPARQL OMQ and rewrites it through the system.
func rewriteSPARQL(sys *System, text string) (*RewriteResult, error) {
	omq, err := ParseOMQ(text)
	if err != nil {
		return nil, err
	}
	return sys.Rewrite(context.Background(), omq)
}

func TestSystemQuerySPARQL(t *testing.T) {
	sys := buildSystem(t, false)
	answer, res, err := answerSPARQL(sys, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.UCQ.Len() != 1 {
		t.Errorf("walks = %d", res.UCQ.Len())
	}
	if answer.Cardinality() != 3 {
		t.Errorf("answer = %d rows\n%s", answer.Cardinality(), answer)
	}
	if !answer.Schema.Has("applicationId") || !answer.Schema.Has("lagRatio") {
		t.Errorf("schema = %v", answer.Schema)
	}
}

func TestSystemSurvivesEvolution(t *testing.T) {
	sys := buildSystem(t, true)
	answer, res, err := answerSPARQL(sys, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.UCQ.Len() != 2 {
		t.Errorf("walks after evolution = %d", res.UCQ.Len())
	}
	if answer.Cardinality() != 4 {
		t.Errorf("answer = %d rows\n%s", answer.Cardinality(), answer)
	}
}

func TestSystemRewriteOnly(t *testing.T) {
	sys := buildSystem(t, false)
	res, err := rewriteSPARQL(sys, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UCQ.Signatures()) != 1 || res.UCQ.Signatures()[0] != "w1|w3" {
		t.Errorf("signatures = %v", res.UCQ.Signatures())
	}
	omq, err := ParseOMQ(exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := rewriting.NewRewriter(sys.Ontology).Rewrite(omq)
	if err != nil {
		t.Fatal(err)
	}
	if res2.UCQ.Len() != res.UCQ.Len() {
		t.Error("the cached and the uncached rewriting disagree")
	}
}

func TestRegisterReleaseMismatch(t *testing.T) {
	sys := NewSystem()
	if err := BuildSupersedeGlobalGraph(sys.Ontology); err != nil {
		t.Fatal(err)
	}
	w := NewMemoryWrapper("other", "D1", NewSchema([]string{"a"}, nil), nil)
	if _, err := sys.RegisterRelease(SupersedeReleaseW1(), w); err == nil {
		t.Error("mismatched wrapper name must be rejected")
	} else if !strings.Contains(err.Error(), "other") {
		t.Errorf("error should mention the wrapper: %v", err)
	}
}

// TestRegisterReleasePublishesRegisteredWrapper checks the publication
// order: when a release becomes visible to readers, its executable wrapper
// is already resolvable by name and by IRI, so a concurrent query that
// rewrites to the release's walk can run it. The check runs in the store's
// commit hook, which sees every batch before its generation is published.
func TestRegisterReleasePublishesRegisteredWrapper(t *testing.T) {
	sys := NewSystem()
	if err := BuildSupersedeGlobalGraph(sys.Ontology); err != nil {
		t.Fatal(err)
	}
	published := 0
	sys.Ontology.Store().SetCommitHook(func(b store.Batch) error {
		for _, q := range b.Quads {
			if q.Graph != core.SourceGraphName || q.Predicate != rdf.RDFType || q.Object != core.SWrapper {
				continue
			}
			published++
			w := q.Subject.(rdf.IRI)
			name := w.LocalName()
			if _, ok := sys.Wrappers.Get(name); !ok {
				t.Errorf("release published before its wrapper %s was registered", name)
			}
			if _, ok := sys.Wrappers.Get(string(w)); !ok {
				t.Errorf("release published before the IRI alias of %s was registered", name)
			}
		}
		return nil
	})
	reg := workload.SupersedeTable1Registry(false)
	for _, r := range []Release{SupersedeReleaseW1(), SupersedeReleaseW2(), SupersedeReleaseW3()} {
		w, _ := reg.Get(r.Wrapper.Name)
		if _, err := sys.RegisterRelease(r, w); err != nil {
			t.Fatal(err)
		}
	}
	if published != 3 {
		t.Fatalf("commit hook saw %d releases, want 3", published)
	}
}

// TestRegisterReleaseRejectedLeavesRegistryUnchanged checks that a release
// Algorithm 1 rejects undoes its wrapper registration: a replaced wrapper
// comes back, a new one and its IRI alias disappear.
func TestRegisterReleaseRejectedLeavesRegistryUnchanged(t *testing.T) {
	sys := NewSystem()
	if err := BuildSupersedeGlobalGraph(sys.Ontology); err != nil {
		t.Fatal(err)
	}
	reg := workload.SupersedeTable1Registry(false)
	w1, _ := reg.Get("w1")
	if _, err := sys.RegisterRelease(SupersedeReleaseW1(), w1); err != nil {
		t.Fatal(err)
	}
	alias := string(core.WrapperURI("w1"))
	// Releases are immutable: registering w1 again is rejected, and the
	// replacement wrapper must not stay registered.
	other := NewMemoryWrapper("w1", "D1", w1.Schema(), nil)
	if _, err := sys.RegisterRelease(SupersedeReleaseW1(), other); err == nil {
		t.Fatal("re-registering w1 must be rejected")
	}
	for _, name := range []string{"w1", alias} {
		if got, ok := sys.Wrappers.Get(name); !ok || got != w1 {
			t.Errorf("Get(%s) = %v, %v after a rejected release; want the original w1", name, got, ok)
		}
	}
	// A release whose LAV subgraph is not part of G is rejected before it
	// is published: its wrapper and alias must not be left behind.
	bad := SupersedeReleaseW2()
	bad.Subgraph = NewGraph("")
	bad.Subgraph.Add(rdf.T("http://example.org/nowhere", core.GHasFeature, core.SupLagRatio))
	w2, _ := reg.Get("w2")
	if _, err := sys.RegisterRelease(bad, w2); err == nil {
		t.Fatal("a release outside G must be rejected")
	}
	if got := sys.Wrappers.Names(); len(got) != 1 || got[0] != "w1" {
		t.Errorf("registry = %v after a rejected release, want [w1]", got)
	}
	// A leftover alias would resolve w2's IRI as soon as a wrapper named w2
	// is registered by any other path.
	sys.Wrappers.Register(w2)
	if _, ok := sys.Wrappers.Get(string(core.WrapperURI("w2"))); ok {
		t.Error("the IRI alias of a rejected release's wrapper is still registered")
	}
}

func TestRegisterReleaseWithoutExecutableWrapper(t *testing.T) {
	sys := NewSystem()
	if err := BuildSupersedeGlobalGraph(sys.Ontology); err != nil {
		t.Fatal(err)
	}
	res, err := sys.RegisterRelease(SupersedeReleaseW1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NewSource {
		t.Error("first release of D1 should create the source")
	}
	if sys.Wrappers.Len() != 0 {
		t.Error("no executable wrapper should be registered")
	}
	// Rewriting still works (it only needs the ontology)...
	if _, err := rewriteSPARQL(sys, exampleQuery); err == nil {
		t.Error("rewriting should fail: w3 is not registered yet, so applicationId has no provider")
	}
}

func TestSystemStatsAndPrebuilt(t *testing.T) {
	sys := buildSystem(t, true)
	st := sys.Ontology.Stats()
	if st.Wrappers != 4 || st.Concepts != 5 {
		t.Errorf("stats = %+v", st)
	}
	// NewSystemWith wraps prebuilt artifacts.
	o, err := BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := NewSystemWith(o, workload.SupersedeTable1Registry(false))
	answer, _, err := answerSPARQL(sys2, exampleQuery)
	if err != nil || answer.Cardinality() != 3 {
		t.Errorf("prebuilt system answer = %v, %v", answer, err)
	}
	if st := sys2.CacheStats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("prebuilt system cache = %+v, want the one rewriting cached", st)
	}
	// Wrapper IRI aliases resolve through the registry after RegisterRelease.
	if _, ok := sys.Wrappers.Get(string(core.WrapperURI("w1"))); !ok {
		t.Error("wrapper IRI alias missing")
	}
}
