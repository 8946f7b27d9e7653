package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// Ontology is the BDI ontology T = ⟨G, S, M⟩: three RDF named graphs stored
// in a single quad store, managed by the data steward, and queried by the
// rewriting algorithms. All mutation goes through methods of this type so
// that the design constraints of §3 (e.g. a feature belongs to exactly one
// concept) can be enforced.
type Ontology struct {
	// mu serializes the mutators (G edits, releases and replicated
	// batches). No read path takes it.
	mu sync.Mutex

	store    *store.Store
	prefixes *rdf.PrefixMap

	// view is the read model of the latest store generation a reader asked
	// for (see view.go); a newer generation installs a fresh view.
	view atomic.Pointer[View]

	// lastSeq is the highest release sequence number handed out; 0 until
	// the first release seeds it (see lastSequenceLocked). Guarded by mu.
	lastSeq int
}

// NewOntology returns an ontology whose store is initialized with the
// metadata models for G (Code 6) and S (Code 7).
func NewOntology() *Ontology {
	o := &Ontology{
		store:    store.New(),
		prefixes: DefaultPrefixes(),
	}
	o.installMetamodel()
	return o
}

// RestoreOntology wraps a store rebuilt by the durability layer (checkpoint
// load + WAL replay) into an Ontology. Unlike NewOntology it does not
// install the metamodel: the restored store already contains it. What a
// release changed is read from the store's generation log, which starts at
// the restored generation, so a cache over the restored ontology
// revalidates across every generation published after it.
func RestoreOntology(s *store.Store) *Ontology {
	return &Ontology{
		store:    s,
		prefixes: DefaultPrefixes(),
	}
}

// Store exposes the underlying quad store (read-mostly; mutate through the
// Ontology methods).
func (o *Ontology) Store() *store.Store { return o.store }

// Prefixes returns the prefix map used for display and serialization.
func (o *Ontology) Prefixes() *rdf.PrefixMap { return o.prefixes }

// installMetamodel asserts the vocabulary declarations of Codes 6 and 7 into
// the G and S named graphs.
func (o *Ontology) installMetamodel() {
	addG := func(t rdf.Triple) { o.store.MustAdd(rdf.Quad{Triple: t, Graph: GlobalGraphName}) }
	addS := func(t rdf.Triple) { o.store.MustAdd(rdf.Quad{Triple: t, Graph: SourceGraphName}) }

	globalVocab := rdf.IRI(NSGlobal)
	addG(rdf.T(globalVocab, rdf.RDFType, rdf.VOAFVocabulary))
	addG(rdf.Triple{Subject: globalVocab, Predicate: rdf.VANNPreferredNamespacePrefix, Object: rdf.NewLiteral("G")})
	addG(rdf.Triple{Subject: globalVocab, Predicate: rdf.VANNPreferredNamespaceURI, Object: rdf.NewLiteral(NSGlobal)})
	addG(rdf.Triple{Subject: globalVocab, Predicate: rdf.RDFSLabel, Object: rdf.NewLiteral("The Global graph vocabulary")})
	addG(rdf.T(GConcept, rdf.RDFType, rdf.RDFSClass))
	addG(rdf.T(GConcept, rdf.RDFSIsDefinedBy, globalVocab))
	addG(rdf.T(GFeature, rdf.RDFType, rdf.RDFSClass))
	addG(rdf.T(GFeature, rdf.RDFSIsDefinedBy, globalVocab))
	addG(rdf.T(GHasFeature, rdf.RDFType, rdf.RDFProperty))
	addG(rdf.T(GHasFeature, rdf.RDFSIsDefinedBy, globalVocab))
	addG(rdf.T(GHasFeature, rdf.RDFSDomain, GConcept))
	addG(rdf.T(GHasFeature, rdf.RDFSRange, GFeature))
	addG(rdf.T(GHasDatatype, rdf.RDFType, rdf.RDFProperty))
	addG(rdf.T(GHasDatatype, rdf.RDFSIsDefinedBy, globalVocab))
	addG(rdf.T(GHasDatatype, rdf.RDFSDomain, GFeature))
	addG(rdf.T(GHasDatatype, rdf.RDFSRange, rdf.RDFSDatatype))
	// sc:identifier is the root of the identifier-feature taxonomy.
	addG(rdf.T(rdf.SchemaIdentifier, rdf.RDFType, rdf.RDFSClass))

	sourceVocab := rdf.IRI(NSSource)
	addS(rdf.T(sourceVocab, rdf.RDFType, rdf.VOAFVocabulary))
	addS(rdf.Triple{Subject: sourceVocab, Predicate: rdf.VANNPreferredNamespacePrefix, Object: rdf.NewLiteral("S")})
	addS(rdf.Triple{Subject: sourceVocab, Predicate: rdf.VANNPreferredNamespaceURI, Object: rdf.NewLiteral(NSSource)})
	addS(rdf.Triple{Subject: sourceVocab, Predicate: rdf.RDFSLabel, Object: rdf.NewLiteral("The Source graph vocabulary")})
	addS(rdf.T(SDataSource, rdf.RDFType, rdf.RDFSClass))
	addS(rdf.T(SDataSource, rdf.RDFSIsDefinedBy, sourceVocab))
	addS(rdf.T(SWrapper, rdf.RDFType, rdf.RDFSClass))
	addS(rdf.T(SWrapper, rdf.RDFSIsDefinedBy, sourceVocab))
	addS(rdf.T(SAttribute, rdf.RDFType, rdf.RDFSClass))
	addS(rdf.T(SAttribute, rdf.RDFSIsDefinedBy, sourceVocab))
	addS(rdf.T(SHasWrapper, rdf.RDFType, rdf.RDFProperty))
	addS(rdf.T(SHasWrapper, rdf.RDFSIsDefinedBy, sourceVocab))
	addS(rdf.T(SHasWrapper, rdf.RDFSDomain, SDataSource))
	addS(rdf.T(SHasWrapper, rdf.RDFSRange, SWrapper))
	addS(rdf.T(SHasAttribute, rdf.RDFType, rdf.RDFProperty))
	addS(rdf.T(SHasAttribute, rdf.RDFSIsDefinedBy, sourceVocab))
	addS(rdf.T(SHasAttribute, rdf.RDFSDomain, SWrapper))
	addS(rdf.T(SHasAttribute, rdf.RDFSRange, SAttribute))
}

// TriplesInSource returns the number of triples currently in S. It is the
// growth metric of §6.4 (Figure 11).
func (o *Ontology) TriplesInSource() int { return o.store.GraphLen(SourceGraphName) }

// Stats summarizes the ontology contents.
type Stats struct {
	GlobalTriples   int
	SourceTriples   int
	MappingTriples  int
	LAVGraphTriples int
	Concepts        int
	Features        int
	DataSources     int
	Wrappers        int
	Attributes      int
}

// Stats computes ontology statistics from one store snapshot, so the counts
// describe one generation even while releases land.
func (o *Ontology) Stats() Stats {
	sn := o.store.Snapshot()
	st := Stats{
		GlobalTriples:  sn.GraphLen(GlobalGraphName),
		SourceTriples:  sn.GraphLen(SourceGraphName),
		MappingTriples: sn.GraphLen(MappingsGraphName),
		Concepts:       len(typedInstances(sn, GlobalGraphName, GConcept)),
		Features:       len(typedInstances(sn, GlobalGraphName, GFeature)),
		DataSources:    len(typedInstances(sn, SourceGraphName, SDataSource)),
		Wrappers:       len(typedInstances(sn, SourceGraphName, SWrapper)),
		Attributes:     len(typedInstances(sn, SourceGraphName, SAttribute)),
	}
	for _, g := range sn.Graphs() {
		if isLAVGraph(g) {
			st.LAVGraphTriples += sn.GraphLen(g)
		}
	}
	return st
}

func isLAVGraph(g rdf.IRI) bool {
	prefix := NSMapping + "graph/"
	s := string(g)
	return len(s) > len(prefix) && s[:len(prefix)] == prefix
}

// String returns a short description of the ontology.
func (o *Ontology) String() string {
	st := o.Stats()
	return fmt.Sprintf("BDI ontology{G=%d S=%d M=%d concepts=%d features=%d wrappers=%d}",
		st.GlobalTriples, st.SourceTriples, st.MappingTriples, st.Concepts, st.Features, st.Wrappers)
}
