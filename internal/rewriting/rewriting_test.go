package rewriting

import (
	"context"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/wrapper"
)

// runningExampleOMQ is the paper's exemplary query (Code 8): for each
// applicationId, fetch its lagRatio instances.
func runningExampleOMQ() *OMQ {
	return NewOMQ(
		[]rdf.IRI{core.SupApplicationID, core.SupLagRatio},
		rdf.T(core.SupSoftwareApplication, core.GHasFeature, core.SupApplicationID),
		rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
		rdf.T(core.SupMonitor, core.SupGeneratesQoS, core.SupInfoMonitor),
		rdf.T(core.SupInfoMonitor, core.GHasFeature, core.SupLagRatio),
	)
}

const runningExampleSPARQL = `
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

// supersedeRegistry builds the wrapper registry with the Table 1 data.
func supersedeRegistry(withEvolution bool) *wrapper.Registry {
	reg := wrapper.NewRegistry()
	reg.Register(wrapper.NewMemory("w1", "D1",
		relational.NewSchema([]string{"VoDmonitorId"}, []string{"lagRatio"}),
		[]relational.Tuple{
			{"VoDmonitorId": 12, "lagRatio": 0.75},
			{"VoDmonitorId": 12, "lagRatio": 0.90},
			{"VoDmonitorId": 18, "lagRatio": 0.1},
		}))
	reg.Register(wrapper.NewMemory("w2", "D2",
		relational.NewSchema([]string{"FGId"}, []string{"tweet"}),
		[]relational.Tuple{
			{"FGId": 77, "tweet": "I continuously see the loading symbol"},
			{"FGId": 45, "tweet": "Your video player is great!"},
		}))
	reg.Register(wrapper.NewMemory("w3", "D3",
		relational.NewSchema([]string{"TargetApp", "MonitorId", "FeedbackId"}, nil),
		[]relational.Tuple{
			{"TargetApp": 1, "MonitorId": 12, "FeedbackId": 77},
			{"TargetApp": 2, "MonitorId": 18, "FeedbackId": 45},
		}))
	if withEvolution {
		reg.Register(wrapper.NewMemory("w4", "D1",
			relational.NewSchema([]string{"VoDmonitorId"}, []string{"bufferingRatio"}),
			[]relational.Tuple{
				{"VoDmonitorId": 18, "bufferingRatio": 0.35},
			}))
	}
	return reg
}

func buildOntology(t *testing.T, withEvolution bool) *core.Ontology {
	t.Helper()
	o, err := core.BuildSupersedeOntology(withEvolution)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestFromSPARQLRunningExample(t *testing.T) {
	omq, err := ParseOMQ(runningExampleSPARQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(omq.Pi) != 2 {
		t.Errorf("π = %v", omq.Pi)
	}
	if omq.Phi.Len() != 4 {
		t.Errorf("φ size = %d", omq.Phi.Len())
	}
	if !slices.Contains(omq.Pi, core.SupLagRatio) {
		t.Error("lagRatio should be projected")
	}
}

func TestFromSPARQLRejectsMalformedOMQs(t *testing.T) {
	cases := []string{
		// Projected variable not bound in VALUES.
		`PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
		 SELECT ?x WHERE { sup:A sup:p sup:B }`,
		// Variable inside the graph pattern.
		`PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
		 SELECT ?x WHERE { VALUES (?x) { (sup:a) } ?s sup:p sup:B }`,
		// Disconnected pattern.
		`PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
		 SELECT ?x WHERE { VALUES (?x) { (sup:a) } sup:A sup:p sup:B . sup:C sup:q sup:D }`,
	}
	for i, c := range cases {
		if _, err := ParseOMQ(c); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Clauses an OMQ cannot carry are refused by name, not dropped: each
	// of these used to parse to the running example's OMQ.
	for clause, text := range map[string]string{
		"FILTER": strings.Replace(runningExampleSPARQL, "sup:lagRatio\n}", "sup:lagRatio .\n  FILTER(?y > 1000)\n}", 1),
		"LIMIT":  runningExampleSPARQL + "LIMIT 1\n",
		"OFFSET": runningExampleSPARQL + "OFFSET 2\n",
		"FROM":   strings.Replace(runningExampleSPARQL, "FROM <http://www.essi.upc.edu/~snadal/BDIOntology/Global>", "FROM <http://example.org/Other>", 1),
		"GRAPH": strings.Replace(runningExampleSPARQL, "sup:InfoMonitor G:hasFeature sup:lagRatio",
			"GRAPH <http://example.org/Other> { sup:InfoMonitor G:hasFeature sup:lagRatio }", 1),
	} {
		if text == runningExampleSPARQL {
			t.Fatalf("%s case did not change the running example", clause)
		}
		_, err := ParseOMQ(text)
		if err == nil || !strings.Contains(err.Error(), clause) {
			t.Errorf("%s: err = %v, want an error naming the clause", clause, err)
		}
	}
}

// TestFromSPARQLAcceptsWhatTheOMQExpresses: DISTINCT (answers are sets), FROM
// G (the Code 3 template) and GRAPH G parse to the running example's OMQ.
func TestFromSPARQLAcceptsWhatTheOMQExpresses(t *testing.T) {
	plain := strings.Replace(runningExampleSPARQL, "FROM <http://www.essi.upc.edu/~snadal/BDIOntology/Global>\n", "", 1)
	want, err := ParseOMQ(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		runningExampleSPARQL,
		strings.Replace(runningExampleSPARQL, "SELECT ?x ?y", "SELECT DISTINCT ?x ?y", 1),
		strings.Replace(plain, "sup:InfoMonitor G:hasFeature sup:lagRatio",
			"GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global> { sup:InfoMonitor G:hasFeature sup:lagRatio }", 1),
	} {
		got, err := ParseOMQ(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if canonicalKey(got) != canonicalKey(want) {
			t.Errorf("%s parsed to %s, want %s", text, got, want)
		}
	}
}

func TestWellFormedQueryAcceptsRunningExample(t *testing.T) {
	o := buildOntology(t, false)
	wf, err := WellFormedQuery(o, runningExampleOMQ())
	if err != nil {
		t.Fatal(err)
	}
	if !isWellFormed(o.View(), wf) {
		t.Error("query should be well-formed")
	}
	if len(wf.Pi) != 2 {
		t.Errorf("π = %v", wf.Pi)
	}
}

func TestWellFormedQueryRewritesConceptProjections(t *testing.T) {
	// Code 9: projecting concepts (SoftwareApplication, Monitor,
	// FeedbackGathering) is not well-formed; Algorithm 2 rewrites it to
	// project their IDs (Code 10).
	o := buildOntology(t, false)
	omq := NewOMQ(
		[]rdf.IRI{core.SupSoftwareApplication, core.SupMonitor, core.SupFeedbackGathering},
		rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
		rdf.T(core.SupSoftwareApplication, core.SupHasFGTool, core.SupFeedbackGathering),
	)
	if isWellFormed(o.View(), omq) {
		t.Fatal("query projecting concepts must not be well-formed")
	}
	wf, err := WellFormedQuery(o, omq)
	if err != nil {
		t.Fatal(err)
	}
	want := map[rdf.IRI]bool{core.SupApplicationID: true, core.SupMonitorID: true, core.SupFeedbackGatheringID: true}
	for _, p := range wf.Pi {
		if !want[p] {
			t.Errorf("unexpected projection %v", p)
		}
	}
	// The pattern must now contain the hasFeature edges added by the rewrite.
	if !wf.Phi.Contains(rdf.T(core.SupMonitor, core.GHasFeature, core.SupMonitorID)) {
		t.Error("hasFeature edge for monitorId missing")
	}
	if !isWellFormed(o.View(), wf) {
		t.Error("rewritten query should be well-formed")
	}
}

func TestWellFormedQueryErrors(t *testing.T) {
	o := buildOntology(t, false)
	// Cyclic pattern.
	cyclic := NewOMQ(
		[]rdf.IRI{core.SupApplicationID},
		rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
		rdf.T(core.SupMonitor, core.SupHasMonitor, core.SupSoftwareApplication),
	)
	if _, err := WellFormedQuery(o, cyclic); err == nil {
		t.Error("cyclic pattern must be rejected")
	}
	// Concept without an identifier (InfoMonitor has no ID feature).
	noID := NewOMQ(
		[]rdf.IRI{core.SupInfoMonitor},
		rdf.T(core.SupMonitor, core.SupGeneratesQoS, core.SupInfoMonitor),
	)
	if _, err := WellFormedQuery(o, noID); err == nil {
		t.Error("projecting a concept without an ID must be rejected")
	}
	// Projected element unknown to G.
	unknown := NewOMQ(
		[]rdf.IRI{rdf.IRI("http://ex/notInG")},
		rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
	)
	if _, err := WellFormedQuery(o, unknown); err == nil {
		t.Error("unknown projected element must be rejected")
	}
	// Feature projected but absent from the pattern.
	absent := NewOMQ(
		[]rdf.IRI{core.SupLagRatio},
		rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
	)
	if _, err := WellFormedQuery(o, absent); err == nil {
		t.Error("feature not in the pattern must be rejected")
	}
}

func TestQueryExpansionAddsIDs(t *testing.T) {
	o := buildOntology(t, false)
	wf, err := WellFormedQuery(o, runningExampleOMQ())
	if err != nil {
		t.Fatal(err)
	}
	eq, err := QueryExpansion(o, wf)
	if err != nil {
		t.Fatal(err)
	}
	// Concepts in traversal order: SoftwareApplication, Monitor, InfoMonitor.
	if len(eq.Concepts) != 3 {
		t.Fatalf("concepts = %v", eq.Concepts)
	}
	if eq.Concepts[0] != core.SupSoftwareApplication || eq.Concepts[2] != core.SupInfoMonitor {
		t.Errorf("concept order = %v", eq.Concepts)
	}
	// The expansion must add sup:monitorId (the ID of Monitor) to φ.
	if !eq.Query.Phi.Contains(rdf.T(core.SupMonitor, core.GHasFeature, core.SupMonitorID)) {
		t.Error("expanded query must include the Monitor ID")
	}
	// And it must not touch π.
	if len(eq.Query.Pi) != len(wf.Pi) {
		t.Error("expansion must not change the projections")
	}
}

func TestIntraConceptGenerationRunningExample(t *testing.T) {
	o := buildOntology(t, false)
	wf, _ := WellFormedQuery(o, runningExampleOMQ())
	eq, _ := QueryExpansion(o, wf)
	partials, err := IntraConceptGeneration(o, eq)
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) != 3 {
		t.Fatalf("partial walk groups = %d", len(partials))
	}
	byConcept := map[rdf.IRI][]*relational.Walk{}
	for _, pw := range partials {
		byConcept[pw.Concept] = pw.Walks
	}
	// SoftwareApplication -> only w3.
	if walks := byConcept[core.SupSoftwareApplication]; len(walks) != 1 || walks[0].WrapperNames()[0] != "w3" {
		t.Errorf("SoftwareApplication walks = %v", walks)
	}
	// Monitor -> w1 and w3 (as in the paper's phase #2 example output).
	if walks := byConcept[core.SupMonitor]; len(walks) != 2 {
		t.Errorf("Monitor walks = %v", walks)
	}
	// InfoMonitor -> only w1.
	if walks := byConcept[core.SupInfoMonitor]; len(walks) != 1 || walks[0].WrapperNames()[0] != "w1" {
		t.Errorf("InfoMonitor walks = %v", walks)
	}
}

func TestIntraConceptPrunesPartialProviders(t *testing.T) {
	// Register a wrapper w5 for a new source D5 that only provides monitorId
	// but not lagRatio; for the InfoMonitor concept it must not appear, and
	// for a query requesting both features of InfoMonitor... (here: it simply
	// must not show up among the providers of lagRatio).
	o := buildOntology(t, false)
	g := rdf.NewGraph("")
	g.Add(
		rdf.T(core.SupMonitor, core.GHasFeature, core.SupMonitorID),
	)
	_, err := o.NewRelease(core.Release{
		Wrapper:  core.WrapperSpec{Name: "w5", Source: "D5", IDAttributes: []string{"mid"}},
		Subgraph: g,
		F:        map[string]rdf.IRI{"mid": core.SupMonitorID},
	})
	if err != nil {
		t.Fatal(err)
	}
	wf, _ := WellFormedQuery(o, runningExampleOMQ())
	eq, _ := QueryExpansion(o, wf)
	partials, err := IntraConceptGeneration(o, eq)
	if err != nil {
		t.Fatal(err)
	}
	for _, pw := range partials {
		if pw.Concept == core.SupMonitor {
			if len(pw.Walks) != 3 {
				t.Errorf("Monitor should now have 3 providers (w1, w3, w5): %v", pw.Walks)
			}
		}
		if pw.Concept == core.SupInfoMonitor {
			for _, w := range pw.Walks {
				if w.HasWrapper("w5") {
					t.Error("w5 does not provide lagRatio and must be pruned for InfoMonitor")
				}
			}
		}
	}
}

func TestRewriteRunningExampleBeforeEvolution(t *testing.T) {
	o := buildOntology(t, false)
	r := NewRewriter(o)
	res, err := r.Rewrite(runningExampleOMQ())
	if err != nil {
		t.Fatal(err)
	}
	if res.UCQ.Len() != 1 {
		t.Fatalf("expected a single walk, got %d:\n%s", res.UCQ.Len(), res.UCQ)
	}
	sig := res.UCQ.Signatures()[0]
	if sig != "w1|w3" {
		t.Errorf("walk signature = %q, want w1|w3", sig)
	}
	walk := res.UCQ.Walks[0]
	if len(walk.Joins) != 1 {
		t.Fatalf("joins = %v", walk.Joins)
	}
	j := walk.Joins[0]
	if !(j.LeftAttr == "D3/MonitorId" && j.RightAttr == "D1/VoDmonitorId") &&
		!(j.LeftAttr == "D1/VoDmonitorId" && j.RightAttr == "D3/MonitorId") {
		t.Errorf("join condition = %v", j)
	}
}

func TestRewriteRunningExampleAfterEvolution(t *testing.T) {
	// After registering w4 (lagRatio renamed to bufferingRatio), the same OMQ
	// must produce the union of two walks: (w1 ⋈ w3) ∪ (w4 ⋈ w3), as in §2.1.
	o := buildOntology(t, true)
	r := NewRewriter(o)
	res, err := r.Rewrite(runningExampleOMQ())
	if err != nil {
		t.Fatal(err)
	}
	sigs := res.UCQ.Signatures()
	if len(sigs) != 2 || sigs[0] != "w1|w3" || sigs[1] != "w3|w4" {
		t.Fatalf("signatures = %v, want [w1|w3 w3|w4]", sigs)
	}
}

func TestRewriteSPARQLEndToEnd(t *testing.T) {
	o := buildOntology(t, false)
	r := NewRewriter(o)
	omq, err := ParseOMQ(runningExampleSPARQL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Rewrite(omq)
	if err != nil {
		t.Fatal(err)
	}
	if res.UCQ.Len() != 1 {
		t.Errorf("walks = %d", res.UCQ.Len())
	}
}

// rewriteAndExecute rewrites the OMQ and executes the result.
func rewriteAndExecute(t *testing.T, r *Rewriter, omq *OMQ, resolver relational.WrapperResolver) (*relational.Relation, *Result) {
	t.Helper()
	res, err := r.Rewrite(omq)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rel, res
}

func TestAnswerProducesTable2(t *testing.T) {
	o := buildOntology(t, false)
	r := NewRewriter(o)
	resolver := wrapper.NewQualifiedResolver(supersedeRegistry(false))
	answer, _ := rewriteAndExecute(t, r, runningExampleOMQ(), resolver)
	if answer.Cardinality() != 3 {
		t.Fatalf("answer cardinality = %d, want 3 (Table 2)\n%s", answer.Cardinality(), answer)
	}
	if !answer.Schema.Has("applicationId") || !answer.Schema.Has("lagRatio") {
		t.Errorf("answer schema = %v", answer.Schema)
	}
	// Check the exact rows of Table 2: (1, 0.75), (1, 0.90), (2, 0.1).
	countApp1, countApp2 := 0, 0
	for _, tup := range answer.Tuples {
		switch {
		case relational.ValuesEqual(tup["applicationId"], 1):
			countApp1++
		case relational.ValuesEqual(tup["applicationId"], 2):
			countApp2++
		}
	}
	if countApp1 != 2 || countApp2 != 1 {
		t.Errorf("per-application counts = app1:%d app2:%d\n%s", countApp1, countApp2, answer)
	}
}

// TestResultColumnsKeepTheirGeneration rewrites at one generation, then
// registers a release that links an existing attribute of w1
// (D1/VoDmonitorId) to lagRatio too, and only then executes the result for
// the first time: its columns were resolved on the view it was rewritten
// on, so lagRatio is still fed by D1/lagRatio and the answer is Table 2.
func TestResultColumnsKeepTheirGeneration(t *testing.T) {
	o := buildOntology(t, false)
	r := NewRewriter(o)
	resolver := wrapper.NewQualifiedResolver(supersedeRegistry(false))
	want, _ := rewriteAndExecute(t, r, runningExampleOMQ(), resolver)
	res, err := r.Rewrite(runningExampleOMQ())
	if err != nil {
		t.Fatal(err)
	}
	relink := core.Release{
		Wrapper:  core.WrapperSpec{Name: "w1b", Source: "D1", NonIDAttributes: []string{"VoDmonitorId"}},
		Subgraph: rdf.NewGraph(""),
		F:        map[string]rdf.IRI{"VoDmonitorId": core.SupLagRatio},
	}
	relink.Subgraph.Add(rdf.T(core.SupInfoMonitor, core.GHasFeature, core.SupLagRatio))
	if _, err := o.NewRelease(relink); err != nil {
		t.Fatal(err)
	}
	if attr, _ := o.View().AttributeOfFeatureInWrapper(core.WrapperURI("w1"), core.SupLagRatio); attr != core.AttributeURI("D1", "VoDmonitorId") {
		t.Fatalf("after the release lagRatio resolves in w1 to %v, want D1/VoDmonitorId", attr)
	}
	got, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("answer executed after the release:\n%s\nwant, as at the result's generation:\n%s", got, want)
	}
}

func TestAnswerAfterEvolutionUnionsBothVersions(t *testing.T) {
	o := buildOntology(t, true)
	r := NewRewriter(o)
	resolver := wrapper.NewQualifiedResolver(supersedeRegistry(true))
	answer, res := rewriteAndExecute(t, r, runningExampleOMQ(), resolver)
	if res.UCQ.Len() != 2 {
		t.Fatalf("expected 2 walks after evolution, got %d", res.UCQ.Len())
	}
	// 3 tuples from w1 ⋈ w3 plus 1 tuple from w4 ⋈ w3 (monitor 18 -> app 2).
	if answer.Cardinality() != 4 {
		t.Fatalf("answer cardinality = %d, want 4\n%s", answer.Cardinality(), answer)
	}
	// Both versions contribute to the same lagRatio column.
	if !answer.Schema.Has("lagRatio") || answer.Schema.Has("bufferingRatio") {
		t.Errorf("evolved attribute should be unified under lagRatio: %v", answer.Schema)
	}
}

func TestAnswerSPARQL(t *testing.T) {
	o := buildOntology(t, false)
	r := NewRewriter(o)
	resolver := wrapper.NewQualifiedResolver(supersedeRegistry(false))
	omq, err := ParseOMQ(runningExampleSPARQL)
	if err != nil {
		t.Fatal(err)
	}
	answer, _ := rewriteAndExecute(t, r, omq, resolver)
	if answer.Cardinality() != 3 {
		t.Errorf("cardinality = %d", answer.Cardinality())
	}
}

func TestCoverageAndMinimality(t *testing.T) {
	o := buildOntology(t, false)
	wf, _ := WellFormedQuery(o, runningExampleOMQ())
	checker := newCoverageChecker(o.View(), wf.Phi)
	covers := func(w *relational.Walk) bool {
		covering, _ := checker.covers(w.WrapperNames())
		return covering
	}
	minimal := func(w *relational.Walk) bool {
		_, minimal := checker.covers(w.WrapperNames())
		return minimal
	}

	covering := relational.NewWalk("w1", "D1", "D1/lagRatio")
	covering.AddWrapper(relational.WrapperRef{Wrapper: "w3", Source: "D3", Projection: []string{"D3/TargetApp"}})
	if !covers(covering) {
		t.Error("w1+w3 should cover the running example query")
	}
	if !minimal(covering) {
		t.Error("w1+w3 should be minimal")
	}

	alone := relational.NewWalk("w1", "D1", "D1/lagRatio")
	if covers(alone) {
		t.Error("w1 alone must not cover the query (it lacks applicationId)")
	}

	redundant := covering.Clone()
	redundant.AddWrapper(relational.WrapperRef{Wrapper: "w2", Source: "D2", Projection: []string{"D2/tweet"}})
	if minimal(redundant) {
		t.Error("adding w2 makes the walk non-minimal")
	}
	if !covers(redundant) {
		t.Error("the redundant walk still covers the query")
	}
}

// TestMinimalEqualsDropOneRecheck checks the one-pass coverage and
// minimality rule against the definitions on random coverage sets: a walk
// covers the pattern when each triple has a coverer among its wrappers, and
// is minimal when it covers it and dropping any one wrapper breaks coverage.
// Patterns of zero to four triples over walks of zero to four of six
// wrappers.
func TestMinimalEqualsDropOneRecheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 1))
	names := []string{"a", "b", "c", "d", "e", "f"}
	for range 5000 {
		c := &coverageChecker{sets: make([]map[string]bool, rng.IntN(5))}
		for i := range c.sets {
			c.sets[i] = map[string]bool{}
			for _, n := range names {
				if rng.IntN(3) == 0 {
					c.sets[i][n] = true
				}
			}
		}
		coveredBy := func(walk []string) bool {
			for _, set := range c.sets {
				if !slices.ContainsFunc(walk, func(n string) bool { return set[n] }) {
					return false
				}
			}
			return true
		}
		walk := slices.Clone(names[:rng.IntN(5)])
		rng.Shuffle(len(walk), func(i, j int) { walk[i], walk[j] = walk[j], walk[i] })
		wantCovering := coveredBy(walk)
		wantMinimal := wantCovering
		for drop := range walk {
			if len(walk) > 1 && coveredBy(slices.Delete(slices.Clone(walk), drop, drop+1)) {
				wantMinimal = false
			}
		}
		if covering, minimal := c.covers(walk); covering != wantCovering || minimal != wantMinimal {
			t.Fatalf("covers(%v) over %v = %v, %v, want %v, %v", walk, c.sets, covering, minimal, wantCovering, wantMinimal)
		}
	}
}

// TestReusedAttributeCoversEachOfItsFeatures registers two schema versions
// of one source whose attribute val is reused with another feature, so val
// is owl:sameAs both f1 and f2. Each version's partial walk covers the
// feature its release mapped val to: Algorithm 4 counts the features it
// projects, and does not map val back to a single feature.
func TestReusedAttributeCoversEachOfItsFeatures(t *testing.T) {
	const ns = "http://ex/reuse/"
	x, fx, f1, f2 := rdf.IRI(ns+"X"), rdf.IRI(ns+"fx"), rdf.IRI(ns+"f1"), rdf.IRI(ns+"f2")
	o := core.NewOntology()
	for _, err := range []error{o.AddConcept(x), o.AddIdentifier(x, fx, rdf.XSDInteger),
		o.AddFeatureTo(x, f1, rdf.XSDInteger), o.AddFeatureTo(x, f2, rdf.XSDInteger)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		wrapper string
		val     rdf.IRI
	}{{"wa", f1}, {"wb", f2}} {
		g := rdf.NewGraph("")
		g.Add(rdf.T(x, core.GHasFeature, fx), rdf.T(x, core.GHasFeature, r.val))
		if _, err := o.NewRelease(core.Release{
			Wrapper:  core.WrapperSpec{Name: r.wrapper, Source: "S", IDAttributes: []string{"xid"}, NonIDAttributes: []string{"val"}},
			Subgraph: g,
			F:        map[string]rdf.IRI{"xid": fx, "val": r.val},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for f, want := range map[rdf.IRI]string{f1: "Π̃S/val,S/xid(wa)", f2: "Π̃S/val,S/xid(wb)"} {
		res, err := NewRewriter(o).Rewrite(NewOMQ([]rdf.IRI{f}, rdf.T(x, core.GHasFeature, f)))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if got := res.UCQ.String(); got != want {
			t.Errorf("%s: UCQ = %s, want %s", f, got, want)
		}
	}
}

func TestRewriteErrorsWhenNoWrapperProvidesAFeature(t *testing.T) {
	// Query asking for UserFeedback description joined with applicationId:
	// w2 provides description, w3 provides applicationId and the
	// FeedbackGathering link, so this works. But a fresh ontology without w2
	// must fail.
	o := core.NewOntology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	if _, err := o.NewRelease(core.SupersedeReleaseW3()); err != nil {
		t.Fatal(err)
	}
	omq := NewOMQ(
		[]rdf.IRI{core.SupApplicationID, core.SupDescription},
		rdf.T(core.SupSoftwareApplication, core.GHasFeature, core.SupApplicationID),
		rdf.T(core.SupSoftwareApplication, core.SupHasFGTool, core.SupFeedbackGathering),
		rdf.T(core.SupFeedbackGathering, core.SupGeneratesUF, core.SupUserFeedback),
		rdf.T(core.SupUserFeedback, core.GHasFeature, core.SupDescription),
	)
	r := NewRewriter(o)
	if _, err := r.Rewrite(omq); err == nil {
		t.Error("rewriting must fail when no wrapper provides sup:description")
	}
}

func TestRewriteFeedbackPath(t *testing.T) {
	// The feedback path: for each applicationId fetch the feedback
	// descriptions (w2 ⋈ w3 via feedbackGatheringId).
	o := buildOntology(t, false)
	omq := NewOMQ(
		[]rdf.IRI{core.SupApplicationID, core.SupDescription},
		rdf.T(core.SupSoftwareApplication, core.GHasFeature, core.SupApplicationID),
		rdf.T(core.SupSoftwareApplication, core.SupHasFGTool, core.SupFeedbackGathering),
		rdf.T(core.SupFeedbackGathering, core.SupGeneratesUF, core.SupUserFeedback),
		rdf.T(core.SupUserFeedback, core.GHasFeature, core.SupDescription),
	)
	r := NewRewriter(o)
	res, err := r.Rewrite(omq)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UCQ.Signatures()) != 1 || res.UCQ.Signatures()[0] != "w2|w3" {
		t.Fatalf("signatures = %v", res.UCQ.Signatures())
	}
	resolver := wrapper.NewQualifiedResolver(supersedeRegistry(false))
	answer, err := r.ExecuteResultLimit(context.Background(), res, resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	if answer.Cardinality() != 2 {
		t.Errorf("answer cardinality = %d\n%s", answer.Cardinality(), answer)
	}
}

func TestSingleConceptQuery(t *testing.T) {
	// Querying a single concept's features requires no inter-concept joins.
	o := buildOntology(t, false)
	omq := NewOMQ(
		[]rdf.IRI{core.SupMonitorID},
		rdf.T(core.SupMonitor, core.GHasFeature, core.SupMonitorID),
	)
	r := NewRewriter(o)
	res, err := r.Rewrite(omq)
	if err != nil {
		t.Fatal(err)
	}
	// w1 and w3 both provide monitorId; each is covering and minimal alone.
	if res.UCQ.Len() != 2 {
		t.Errorf("walks = %d (%v)", res.UCQ.Len(), res.UCQ.Signatures())
	}
}
