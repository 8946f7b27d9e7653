package oracle

import (
	"sync"
	"testing"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// taxonomyStore builds a small class hierarchy:
//
//	monitorId ⊑ identifier, feedbackGatheringId ⊑ identifier,
//	applicationId ⊑ identifier, identifier ⊑ feature
//
// plus typed instances and a subproperty.
func taxonomyStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	add := func(tr rdf.Triple) {
		t.Helper()
		if _, err := s.Add(rdf.Quad{Triple: tr}); err != nil {
			t.Fatal(err)
		}
	}
	id := rdf.IRI("http://ex/identifier")
	feature := rdf.IRI("http://ex/Feature")
	add(rdf.T("http://ex/monitorId", rdf.RDFSSubClassOf, id))
	add(rdf.T("http://ex/feedbackGatheringId", rdf.RDFSSubClassOf, id))
	add(rdf.T("http://ex/applicationId", rdf.RDFSSubClassOf, id))
	add(rdf.T(id, rdf.RDFSSubClassOf, feature))
	add(rdf.T("http://ex/m1", rdf.RDFType, "http://ex/monitorId"))
	add(rdf.T("http://ex/f1", rdf.RDFType, "http://ex/feedbackGatheringId"))
	add(rdf.T("http://ex/hasVoDMonitor", rdf.RDFSSubPropertyOf, "http://ex/hasMonitor"))
	add(rdf.T("http://ex/app1", "http://ex/hasVoDMonitor", "http://ex/m1"))
	add(rdf.T("http://ex/hasMonitor", rdf.RDFSDomain, "http://ex/SoftwareApplication"))
	add(rdf.T("http://ex/hasMonitor", rdf.RDFSRange, "http://ex/Monitor"))
	add(rdf.T("http://ex/app2", "http://ex/hasMonitor", "http://ex/m2"))
	return s
}

func TestIsSubClassOfTransitive(t *testing.T) {
	e := ClosureAt(taxonomyStore(t).Snapshot())
	if !e.IsSubClassOf("http://ex/monitorId", "http://ex/identifier") {
		t.Error("direct subclass not detected")
	}
	if !e.IsSubClassOf("http://ex/monitorId", "http://ex/Feature") {
		t.Error("transitive subclass not detected")
	}
	if !e.IsSubClassOf("http://ex/monitorId", "http://ex/monitorId") {
		t.Error("subclass relation should be reflexive")
	}
	if e.IsSubClassOf("http://ex/identifier", "http://ex/monitorId") {
		t.Error("subclass relation should not be symmetric")
	}
}

func TestSubAndSuperClassListing(t *testing.T) {
	e := ClosureAt(taxonomyStore(t).Snapshot())
	supers := e.SuperClasses("http://ex/monitorId")
	if len(supers) != 2 {
		t.Errorf("superclasses = %v", supers)
	}
	subs := e.SubClassesOf("http://ex/identifier")
	if len(subs) != 3 {
		t.Errorf("subclasses = %v", subs)
	}
	all := e.SubClassesOf("http://ex/Feature")
	if len(all) != 4 {
		t.Errorf("subclasses of Feature = %v", all)
	}
}

func TestIsSubPropertyOf(t *testing.T) {
	e := ClosureAt(taxonomyStore(t).Snapshot())
	if !e.IsSubPropertyOf("http://ex/hasVoDMonitor", "http://ex/hasMonitor") {
		t.Error("subproperty not detected")
	}
	if !e.IsSubPropertyOf("http://ex/hasMonitor", "http://ex/hasMonitor") {
		t.Error("subproperty should be reflexive")
	}
	if e.IsSubPropertyOf("http://ex/hasMonitor", "http://ex/hasVoDMonitor") {
		t.Error("subproperty should not be symmetric")
	}
}

func TestClosureAtNewerSnapshotSeesChange(t *testing.T) {
	s := taxonomyStore(t)
	if ClosureAt(s.Snapshot()).IsSubClassOf("http://ex/newId", "http://ex/identifier") {
		t.Error("unknown class should not be a subclass")
	}
	if _, err := s.Add(rdf.Quad{Triple: rdf.T("http://ex/newId", rdf.RDFSSubClassOf, "http://ex/identifier")}); err != nil {
		t.Fatal(err)
	}
	if !ClosureAt(s.Snapshot()).IsSubClassOf("http://ex/newId", "http://ex/identifier") {
		t.Error("the closure of a newer snapshot should pick up new triples")
	}
}

func TestMaterializeTypeInheritance(t *testing.T) {
	s := taxonomyStore(t)
	added, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("materialization should add triples")
	}
	// rdfs9: m1 is an identifier and a Feature.
	if !s.Snapshot().ContainsTriple("", rdf.T("http://ex/m1", rdf.RDFType, "http://ex/identifier")) {
		t.Error("missing entailed type identifier")
	}
	if !s.Snapshot().ContainsTriple("", rdf.T("http://ex/m1", rdf.RDFType, "http://ex/Feature")) {
		t.Error("missing entailed type Feature")
	}
	// rdfs11: monitorId ⊑ Feature.
	if !s.Snapshot().ContainsTriple("", rdf.T("http://ex/monitorId", rdf.RDFSSubClassOf, "http://ex/Feature")) {
		t.Error("missing transitive subclass edge")
	}
	// rdfs7: app1 hasMonitor m1 via the subproperty.
	if !s.Snapshot().ContainsTriple("", rdf.T("http://ex/app1", "http://ex/hasMonitor", "http://ex/m1")) {
		t.Error("missing entailed superproperty statement")
	}
	// rdfs2/rdfs3: domain and range typing.
	if !s.Snapshot().ContainsTriple("", rdf.T("http://ex/app2", rdf.RDFType, "http://ex/SoftwareApplication")) {
		t.Error("missing domain-inferred type")
	}
	if !s.Snapshot().ContainsTriple("", rdf.T("http://ex/m2", rdf.RDFType, "http://ex/Monitor")) {
		t.Error("missing range-inferred type")
	}
}

func TestMaterializeIsIdempotent(t *testing.T) {
	s := taxonomyStore(t)
	if _, err := Materialize(s); err != nil {
		t.Fatal(err)
	}
	size := s.Len()
	added, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || s.Len() != size {
		t.Errorf("second materialization added %d quads", added)
	}
}

func TestCyclicHierarchyDoesNotLoop(t *testing.T) {
	s := store.New()
	s.MustAdd(rdf.Q("http://ex/A", rdf.RDFSSubClassOf, "http://ex/B", ""))
	s.MustAdd(rdf.Q("http://ex/B", rdf.RDFSSubClassOf, "http://ex/A", ""))
	e := ClosureAt(s.Snapshot())
	if !e.IsSubClassOf("http://ex/A", "http://ex/B") || !e.IsSubClassOf("http://ex/B", "http://ex/A") {
		t.Error("cycle members should be mutual subclasses")
	}
	if _, err := Materialize(s); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIDClosureAccess pins the concurrency contract of closures:
// parallel lookups through one shared Closure and ClosureAt calls on
// snapshots pinned before and after a write — as issued by concurrent SPARQL
// evaluations — must not race, and each pinned closure must answer for its
// own generation. Run with -race.
func TestConcurrentIDClosureAccess(t *testing.T) {
	s := taxonomyStore(t)
	before := s.Snapshot()
	e := ClosureAt(before)
	if _, err := s.Add(rdf.Quad{Triple: rdf.T("http://ex/newId", rdf.RDFSSubClassOf, "http://ex/identifier")}); err != nil {
		t.Fatal(err)
	}
	after := s.Snapshot()
	classes := []rdf.IRI{"http://ex/identifier", "http://ex/monitorId", "http://ex/Feature", "http://ex/applicationId"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				class := classes[(g+i)%len(classes)]
				e.SubClassesOf(class)
				e.SuperClasses(class)
				e.IsSubClassOf(classes[0], class)
				if ClosureAt(before).IsSubClassOf("http://ex/newId", "http://ex/Feature") {
					t.Error("closure at the older snapshot sees a later subclass edge")
				}
				if !ClosureAt(after).IsSubClassOf("http://ex/newId", "http://ex/Feature") {
					t.Error("closure at the newer snapshot misses its subclass edge")
				}
			}
		}(g)
	}
	wg.Wait()
}
