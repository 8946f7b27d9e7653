package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bdi/internal/rdf"
)

func TestNewOntologyInstallsMetamodel(t *testing.T) {
	o := NewOntology()
	if o.store.GraphLen(GlobalGraphName) == 0 || o.store.GraphLen(SourceGraphName) == 0 {
		t.Fatal("metamodel should populate G and S")
	}
	// Code 6 declarations.
	if !o.store.Snapshot().ContainsTriple(GlobalGraphName, rdf.T(GConcept, rdf.RDFType, rdf.RDFSClass)) {
		t.Error("G:Concept must be declared an rdfs:Class")
	}
	if !o.store.Snapshot().ContainsTriple(GlobalGraphName, rdf.T(GHasFeature, rdf.RDFSDomain, GConcept)) {
		t.Error("G:hasFeature domain missing")
	}
	// Code 7 declarations.
	if !o.store.Snapshot().ContainsTriple(SourceGraphName, rdf.T(SHasAttribute, rdf.RDFSRange, SAttribute)) {
		t.Error("S:hasAttribute range missing")
	}
}

func TestURIHelpers(t *testing.T) {
	if SourceURI("D1") != rdf.IRI(NSSource+"DataSource/D1") {
		t.Errorf("SourceURI = %v", SourceURI("D1"))
	}
	if WrapperURI("w1") != rdf.IRI(NSSource+"Wrapper/w1") {
		t.Errorf("WrapperURI = %v", WrapperURI("w1"))
	}
	attr := AttributeURI("D1", "VoDmonitorId")
	if attr != rdf.IRI(NSSource+"DataSource/D1/VoDmonitorId") {
		t.Errorf("AttributeURI = %v", attr)
	}
	if AttributeName(attr) != "D1/VoDmonitorId" {
		t.Errorf("AttributeName = %q", AttributeName(attr))
	}
	if !strings.Contains(string(MappingGraphURI("w1")), "graph/w1") {
		t.Errorf("MappingGraphURI = %v", MappingGraphURI("w1"))
	}
}

func TestAddConceptFeatureAndRelations(t *testing.T) {
	o := NewOntology()
	c := rdf.IRI("http://ex/App")
	f := rdf.IRI("http://ex/appId")
	if err := o.AddConcept(c); err != nil {
		t.Fatal(err)
	}
	if !o.View().IsConcept(c) {
		t.Error("concept not recognized")
	}
	if err := o.AddIdentifier(c, f, rdf.XSDInteger); err != nil {
		t.Fatal(err)
	}
	if !o.View().IsFeature(f) || !isIdentifier(o.store.Snapshot(), f) {
		t.Error("identifier feature not recognized")
	}
	if dt, ok := o.View().DatatypeOf(f); !ok || dt != rdf.XSDInteger {
		t.Errorf("datatype = %v, %v", dt, ok)
	}
	if got := o.View().FeaturesOf(c); len(got) != 1 || got[0] != f {
		t.Errorf("FeaturesOf = %v", got)
	}
	if owner, ok := o.View().ConceptOfFeature(f); !ok || owner != c {
		t.Errorf("ConceptOfFeature = %v, %v", owner, ok)
	}
	if ids := o.View().IdentifiersOf(c); len(ids) != 1 || ids[0] != f {
		t.Errorf("IdentifiersOf = %v", ids)
	}
}

func TestHasFeatureRejectsSharedFeatures(t *testing.T) {
	o := NewOntology()
	c1, c2 := rdf.IRI("http://ex/A"), rdf.IRI("http://ex/B")
	f := rdf.IRI("http://ex/f")
	if err := o.AddConcept(c1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddConcept(c2); err != nil {
		t.Fatal(err)
	}
	if err := o.AddFeatureTo(c1, f, rdf.XSDString); err != nil {
		t.Fatal(err)
	}
	if err := o.HasFeature(c2, f); err == nil {
		t.Error("a feature must belong to only one concept (§3.1)")
	}
	// Re-linking to the same concept is idempotent.
	if err := o.HasFeature(c1, f); err != nil {
		t.Errorf("re-linking to the same concept should succeed: %v", err)
	}
}

func TestHasFeatureRequiresDeclaredTypes(t *testing.T) {
	o := NewOntology()
	if err := o.HasFeature(rdf.IRI("http://ex/C"), rdf.IRI("http://ex/f")); err == nil {
		t.Error("undeclared concept should be rejected")
	}
	if err := o.AddConcept(rdf.IRI("http://ex/C")); err != nil {
		t.Fatal(err)
	}
	if err := o.HasFeature(rdf.IRI("http://ex/C"), rdf.IRI("http://ex/f")); err == nil {
		t.Error("undeclared feature should be rejected")
	}
}

// TestGlobalEditIsOneGeneration holds every G edit to one generation at
// most: a rejected edit publishes nothing (the composite AddFeatureTo and
// AddIdentifier leave no feature, datatype or subclass edge behind), and no
// view, pinned after an edit or concurrently with a run of them, sees a
// feature those calls declare without the concept it was attached to.
func TestGlobalEditIsOneGeneration(t *testing.T) {
	o := NewOntology()
	const ns = "http://ex/oneedit/"
	c1, c2, undeclared := rdf.IRI(ns+"C1"), rdf.IRI(ns+"C2"), rdf.IRI(ns+"Nowhere")
	id1, f1, f2, lone := rdf.IRI(ns+"id1"), rdf.IRI(ns+"f1"), rdf.IRI(ns+"f2"), rdf.IRI(ns+"lone")
	attached := []rdf.IRI{id1, f1, f2}
	var views []*View
	edit := func(name string, wantErr bool, f func() error) {
		t.Helper()
		before := o.Store().Snapshot()
		err := f()
		after := o.Store().Snapshot()
		if after.Generation() > before.Generation()+1 {
			t.Fatalf("%s published %d generations", name, after.Generation()-before.Generation())
		}
		if (err != nil) != wantErr {
			t.Fatalf("%s: error %v, want an error: %v", name, err, wantErr)
		}
		if err != nil && (after.Generation() != before.Generation() || after.GraphLen(GlobalGraphName) != before.GraphLen(GlobalGraphName)) {
			t.Fatalf("rejected %s moved the generation %d -> %d and G %d -> %d quads", name,
				before.Generation(), after.Generation(), before.GraphLen(GlobalGraphName), after.GraphLen(GlobalGraphName))
		}
		views = append(views, o.View())
	}
	edit("AddConcept", false, func() error { return o.AddConcept(c1) })
	edit("AddConcept", false, func() error { return o.AddConcept(c2) })
	edit("AddIdentifier", false, func() error { return o.AddIdentifier(c1, id1, rdf.XSDInteger) })
	edit("AddFeatureTo", false, func() error { return o.AddFeatureTo(c1, f1, rdf.XSDDouble) })
	edit("AddFeature", false, func() error { return o.AddFeature(lone, rdf.XSDString) })
	edit("AddFeatureTo of a feature of another concept", true, func() error { return o.AddFeatureTo(c2, f1, rdf.XSDString) })
	edit("AddFeatureTo of an undeclared concept", true, func() error { return o.AddFeatureTo(undeclared, f2, rdf.XSDString) })
	edit("AddIdentifier of a feature of another concept", true, func() error { return o.AddIdentifier(c2, id1, rdf.XSDString) })
	edit("HasFeature of a feature of another concept", true, func() error { return o.HasFeature(c2, id1) })
	edit("Relate to an undeclared concept", true, func() error { return o.Relate(c1, rdf.IRI(ns+"p"), undeclared) })
	edit("AddFeatureTo", false, func() error { return o.AddFeatureTo(c2, f2, "") })
	edit("HasFeature", false, func() error { return o.HasFeature(c2, lone) })

	v := o.View()
	if len(v.FeaturesOf(undeclared)) != 0 {
		t.Error("a rejected edit left a feature behind")
	}
	if dt, _ := v.DatatypeOf(f1); dt != rdf.XSDDouble {
		t.Errorf("f1's datatype = %s after a rejected re-declaration, want xsd:double", dt)
	}
	if ids := v.IdentifiersOf(c2); len(ids) != 0 {
		t.Errorf("a rejected AddIdentifier left identifiers %v on C2", ids)
	}
	if !isIdentifier(v.snap, id1) || isIdentifier(v.snap, f1) {
		t.Error("identifier marking wrong")
	}

	// Concurrent readers pin views while a run of composite edits lands.
	var done atomic.Bool
	var wg sync.WaitGroup
	var concurrent [2][]*View
	for r := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() && len(concurrent[r]) < 300 {
				concurrent[r] = append(concurrent[r], o.View())
			}
		}()
	}
	for i := range 40 {
		c := rdf.IRI(fmt.Sprintf("%sRun%d", ns, i))
		id, f := rdf.IRI(fmt.Sprintf("%srun%d_id", ns, i)), rdf.IRI(fmt.Sprintf("%srun%d_f", ns, i))
		attached = append(attached, id, f)
		edit("AddConcept", false, func() error { return o.AddConcept(c) })
		edit("AddIdentifier", false, func() error { return o.AddIdentifier(c, id, rdf.XSDInteger) })
		edit("AddFeatureTo", false, func() error { return o.AddFeatureTo(c, f, rdf.XSDString) })
	}
	done.Store(true)
	wg.Wait()
	for _, vs := range append(concurrent[:], views) {
		for _, v := range vs {
			for _, f := range attached {
				if _, owned := v.ConceptOfFeature(f); v.IsFeature(f) != owned {
					t.Fatalf("the view at generation %d sees feature %s typed %v and owned %v", v.Generation(), f, v.IsFeature(f), owned)
				}
			}
		}
	}
}

func TestRelateRequiresConcepts(t *testing.T) {
	o := NewOntology()
	a, b := rdf.IRI("http://ex/A"), rdf.IRI("http://ex/B")
	if err := o.Relate(a, rdf.IRI("http://ex/p"), b); err == nil {
		t.Error("relating undeclared concepts should fail")
	}
	if err := o.AddConcept(a); err != nil {
		t.Fatal(err)
	}
	if err := o.AddConcept(b); err != nil {
		t.Fatal(err)
	}
	if err := o.Relate(a, rdf.IRI("http://ex/p"), b); err != nil {
		t.Fatal(err)
	}
	edges := o.View().ConceptEdges()
	if len(edges) != 1 {
		t.Errorf("ConceptEdges = %v", edges)
	}
}

func TestSupersedeGlobalGraph(t *testing.T) {
	o := NewOntology()
	if err := BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	if len(o.View().Concepts()) != 5 {
		t.Errorf("concepts = %v", o.View().Concepts())
	}
	if len(o.View().Features()) != 5 {
		t.Errorf("features = %v", o.View().Features())
	}
	if !isIdentifier(o.store.Snapshot(), SupMonitorID) {
		t.Error("sup:monitorId must be an identifier")
	}
	if isIdentifier(o.store.Snapshot(), SupLagRatio) {
		t.Error("sup:lagRatio must not be an identifier")
	}
	if len(o.View().ConceptEdges()) != 4 {
		t.Errorf("concept edges = %v", o.View().ConceptEdges())
	}
}

func TestNewReleaseAlgorithm1(t *testing.T) {
	o := NewOntology()
	if err := BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	res, err := o.NewRelease(SupersedeReleaseW1())
	if err != nil {
		t.Fatal(err)
	}
	if !res.NewSource {
		t.Error("D1 should be a new source")
	}
	if len(res.NewAttributes) != 2 || len(res.ReusedAttributes) != 0 {
		t.Errorf("attributes: new=%v reused=%v", res.NewAttributes, res.ReusedAttributes)
	}
	// Source graph content (Algorithm 1 lines 3-15).
	if !o.Store().Snapshot().ContainsTriple(SourceGraphName, rdf.T(SourceURI("D1"), rdf.RDFType, SDataSource)) {
		t.Error("data source D1 not registered")
	}
	if !o.Store().Snapshot().ContainsTriple(SourceGraphName, rdf.T(SourceURI("D1"), SHasWrapper, WrapperURI("w1"))) {
		t.Error("w1 not linked to D1")
	}
	if !o.Store().Snapshot().ContainsTriple(SourceGraphName, rdf.T(WrapperURI("w1"), SHasAttribute, AttributeURI("D1", "lagRatio"))) {
		t.Error("lagRatio attribute not linked to w1")
	}
	// Mapping graph content (lines 16-21).
	g := MappingGraphURI("w1")
	if w, ok := wrapperOfLAVGraph(o.store.Snapshot(), g); !ok || w != WrapperURI("w1") || o.Store().GraphLen(g) != 3 {
		t.Errorf("LAV graph missing or wrong size: %v %d", w, o.Store().GraphLen(g))
	}
	if !o.Store().Snapshot().ContainsTriple(MappingsGraphName, rdf.T(AttributeURI("D1", "VoDmonitorId"), rdf.OWLSameAs, SupMonitorID)) {
		t.Error("F(VoDmonitorId) is not sup:monitorId")
	}
}

func TestNewReleaseReusesAttributesOfSameSource(t *testing.T) {
	o, err := BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	before := o.TriplesInSource()
	res, err := o.NewRelease(SupersedeReleaseW4())
	if err != nil {
		t.Fatal(err)
	}
	if res.NewSource {
		t.Error("D1 already exists, release must not re-register it")
	}
	// VoDmonitorId is reused, bufferingRatio is new.
	if len(res.ReusedAttributes) != 1 || len(res.NewAttributes) != 1 {
		t.Errorf("reused=%v new=%v", res.ReusedAttributes, res.NewAttributes)
	}
	if res.SourceTriplesAdded != o.TriplesInSource()-before {
		t.Error("SourceTriplesAdded inconsistent")
	}
	// w4: wrapper type + hasWrapper + 2 hasAttribute + 1 new attribute type = 5.
	if res.SourceTriplesAdded != 5 {
		t.Errorf("SourceTriplesAdded = %d, want 5", res.SourceTriplesAdded)
	}
}

func TestNewReleaseValidation(t *testing.T) {
	o := NewOntology()
	if err := BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	// Empty subgraph.
	bad := SupersedeReleaseW1()
	bad.Subgraph = rdf.NewGraph("")
	if _, err := o.NewRelease(bad); err == nil {
		t.Error("empty subgraph should be rejected")
	}
	// Subgraph not contained in G.
	bad2 := SupersedeReleaseW1()
	bad2.Subgraph = rdf.NewGraph("")
	bad2.Subgraph.Add(rdf.T("http://ex/X", "http://ex/y", "http://ex/Z"))
	if _, err := o.NewRelease(bad2); err == nil {
		t.Error("subgraph outside G should be rejected")
	}
	// F maps an unknown attribute.
	bad3 := SupersedeReleaseW1()
	bad3.F["unknownAttr"] = SupLagRatio
	if _, err := o.NewRelease(bad3); err == nil {
		t.Error("F over unknown attribute should be rejected")
	}
	// Duplicate wrapper registration.
	if _, err := o.NewRelease(SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.NewRelease(SupersedeReleaseW1()); err == nil {
		t.Error("duplicate wrapper registration should be rejected")
	}
	// Wrapper spec problems.
	specs := []WrapperSpec{
		{},
		{Name: "w"},
		{Name: "w", Source: "D", IDAttributes: []string{"a", "a"}},
		{Name: "w", Source: "D", IDAttributes: []string{""}},
	}
	for i, s := range specs {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
}

func TestSupersedeOntologyAccessors(t *testing.T) {
	o, err := BuildSupersedeOntology(true)
	if err != nil {
		t.Fatal(err)
	}
	sources := o.Sources()
	if len(sources) != 3 {
		t.Errorf("data sources = %v", sources)
	}
	if len(o.Wrappers()) != 4 {
		t.Errorf("wrappers = %v", o.Wrappers())
	}
	if got := o.View().WrappersOfSource("D1"); len(got) != 2 {
		t.Errorf("wrappers of D1 = %v", got)
	}
	if s, ok := o.View().SourceOfWrapper(WrapperURI("w2")); !ok || s != SourceURI("D2") {
		t.Errorf("source of w2 = %v", s)
	}
	var w3Attrs []rdf.IRI
	for _, src := range sources {
		for _, w := range src.Wrappers {
			if w.Wrapper == WrapperURI("w3") {
				w3Attrs = w.Attributes
			}
		}
	}
	if len(w3Attrs) != 3 {
		t.Errorf("attributes of w3 = %v", w3Attrs)
	}
	// LAV mapping resolution used by the rewriting algorithms.
	providers := o.View().WrappersProvidingFeature(SupMonitor, SupMonitorID)
	if len(providers) != 3 {
		t.Errorf("providers of (Monitor, monitorId) = %v", providers)
	}
	providers = o.View().WrappersProvidingFeature(SupInfoMonitor, SupLagRatio)
	if len(providers) != 2 {
		t.Errorf("providers of (InfoMonitor, lagRatio) = %v", providers)
	}
	edgeProviders := o.View().WrappersProvidingEdge(SupSoftwareApplication, SupMonitor)
	if len(edgeProviders) != 1 || edgeProviders[0] != WrapperURI("w3") {
		t.Errorf("edge providers = %v", edgeProviders)
	}
	if attr, ok := o.View().AttributeOfFeatureInWrapper(WrapperURI("w4"), SupLagRatio); !ok || AttributeName(attr) != "D1/bufferingRatio" {
		t.Errorf("attribute of lagRatio in w4 = %v, %v", attr, ok)
	}
	if attrs := o.View().AttributesOfFeature(SupMonitorID); len(attrs) != 2 {
		t.Errorf("attributes of monitorId = %v", attrs)
	}
	if w, ok := wrapperOfLAVGraph(o.store.Snapshot(), MappingGraphURI("w2")); !ok || w != WrapperURI("w2") {
		t.Errorf("wrapper of LAV graph = %v", w)
	}
}

func TestStatsAndString(t *testing.T) {
	o, err := BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Concepts != 5 || st.Features != 5 || st.Wrappers != 3 || st.DataSources != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.LAVGraphTriples == 0 {
		t.Error("LAV graphs should contain triples")
	}
	if !strings.Contains(o.String(), "BDI ontology") {
		t.Error("String() malformed")
	}
}

// TestReleaseSequenceNeverReused pins that a release's sequence number is
// never handed out twice: the newest release of a source is its latest
// wrapper, and an ontology restored over an existing store continues from
// the store's highest number.
func TestReleaseSequenceNeverReused(t *testing.T) {
	o, err := BuildSupersedeOntology(true)
	if err != nil {
		t.Fatal(err)
	}
	w5 := SupersedeReleaseW4()
	w5.Wrapper.Name = "w5"
	res, err := o.NewRelease(w5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sequence != 5 {
		t.Errorf("w5 sequence = %d, want 5", res.Sequence)
	}
	if w, ok := o.View().LatestWrapperOfSource("D1"); !ok || w != WrapperURI("w5") {
		t.Errorf("latest wrapper of D1 = %v, want w5", w)
	}

	restored := RestoreOntology(o.Store().Clone())
	w6 := SupersedeReleaseW4()
	w6.Wrapper.Name = "w6"
	if res, err = restored.NewRelease(w6); err != nil {
		t.Fatal(err)
	}
	if res.Sequence != 6 {
		t.Errorf("restored ontology: w6 sequence = %d, want 6", res.Sequence)
	}
}

func TestDefaultPrefixes(t *testing.T) {
	pm := DefaultPrefixes()
	if got := pm.Compact(GHasFeature); got != "G:hasFeature" {
		t.Errorf("compact = %q", got)
	}
	if got := pm.Compact(SupMonitorID); got != "sup:monitorId" {
		t.Errorf("compact = %q", got)
	}
}
