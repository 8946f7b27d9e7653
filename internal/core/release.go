package core

import (
	"fmt"
	"sort"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// WrapperSpec describes a wrapper being registered through a release: its
// name, the data source it queries, and its ID / non-ID attributes (the
// relation w(a_ID, a_nID) of §2.2).
type WrapperSpec struct {
	Name            string
	Source          string
	IDAttributes    []string
	NonIDAttributes []string
}

// Attributes returns all attribute names of the wrapper (IDs first).
func (w WrapperSpec) Attributes() []string {
	return append(append([]string(nil), w.IDAttributes...), w.NonIDAttributes...)
}

// Validate checks the spec for basic problems.
func (w WrapperSpec) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("core: wrapper spec has no name")
	}
	if w.Source == "" {
		return fmt.Errorf("core: wrapper %q has no data source", w.Name)
	}
	seen := map[string]bool{}
	for _, a := range w.Attributes() {
		if a == "" {
			return fmt.Errorf("core: wrapper %q has an empty attribute name", w.Name)
		}
		if seen[a] {
			return fmt.Errorf("core: wrapper %q declares attribute %q twice", w.Name, a)
		}
		seen[a] = true
	}
	return nil
}

// Release is the construct the data steward creates upon a new source
// version (§4.1): R = ⟨w, G, F⟩ where w is the wrapper, G is the subgraph of
// the Global graph the wrapper contributes to, and F maps each wrapper
// attribute to the feature of G it provides.
type Release struct {
	Wrapper WrapperSpec
	// Subgraph is the fragment of G covered by the wrapper (the LAV mapping
	// graph).
	Subgraph *rdf.Graph
	// F maps wrapper attribute names to feature IRIs in G.
	F map[string]rdf.IRI
}

// validate checks the release against sn: the wrapper spec must be valid,
// every attribute mapped by F must belong to the wrapper, every target must
// be a feature vertex of the subgraph, and the subgraph must be a subgraph of
// G. The checks probe G per triple instead of materializing it.
func (r Release) validate(o *Ontology, sn store.Snapshot) error {
	if err := r.Wrapper.Validate(); err != nil {
		return err
	}
	if r.Subgraph == nil || r.Subgraph.Len() == 0 {
		return fmt.Errorf("core: release for wrapper %q has an empty LAV subgraph", r.Wrapper.Name)
	}
	for _, t := range r.Subgraph.Triples {
		if !sn.ContainsTriple(GlobalGraphName, t) {
			return fmt.Errorf("core: release subgraph for wrapper %q is not a subgraph of G", r.Wrapper.Name)
		}
	}
	attrs := map[string]bool{}
	for _, a := range r.Wrapper.Attributes() {
		attrs[a] = true
	}
	for attr, feature := range r.F {
		if !attrs[attr] {
			return fmt.Errorf("core: release maps unknown attribute %q of wrapper %q", attr, r.Wrapper.Name)
		}
		if !isTyped(sn, feature, GFeature) {
			return fmt.Errorf("core: release maps attribute %q to %s which is not a G:Feature", attr, o.prefixes.Compact(feature))
		}
		if !r.Subgraph.ContainsNode(feature) {
			return fmt.Errorf("core: release maps attribute %q to feature %s which is not part of the LAV subgraph", attr, o.prefixes.Compact(feature))
		}
	}
	return nil
}

// ReleaseResult reports what Algorithm 1 changed in the ontology.
type ReleaseResult struct {
	// NewSource is true when the data source was registered for the first time.
	NewSource bool
	// NewAttributes lists the attribute IRIs added to S (attributes already
	// present from previous schema versions are reused).
	NewAttributes []rdf.IRI
	// ReusedAttributes lists the attribute IRIs that already existed.
	ReusedAttributes []rdf.IRI
	// TriplesAdded is the total number of quads added across S and M.
	TriplesAdded int
	// SourceTriplesAdded is the number of triples added to S only (the growth
	// metric of Figure 11).
	SourceTriplesAdded int
	// Sequence is the global registration sequence number assigned to the
	// release (1 for the first release registered in the ontology).
	Sequence int
	// Delta is the invalidation footprint of the release: the concepts,
	// features, attributes and edges whose rewriting answers the release can
	// affect. Caches use it to retire only footprint-intersecting entries.
	Delta *ReleaseDelta
}

// NewRelease implements Algorithm 1 (Adapt to Release): it registers the
// data source (if new), the wrapper, and its attributes in S; registers the
// wrapper's LAV named graph in M; and serializes the attribute-to-feature
// function F via owl:sameAs links.
//
// The whole release is written as one atomic store batch: existence checks
// (source registration, attribute reuse, the sequence number) only consult
// pre-release state — within-release duplicates are impossible because the
// wrapper spec validates attribute uniqueness — so every quad is collected
// first and published with a single AddAll. Readers therefore never
// observe a half-registered release, and the store merges each touched
// index bucket once instead of once per triple. The release is validated
// against the snapshot it is planned on, under the same lock, so no
// Global-graph edit slips in between.
func (o *Ontology) NewRelease(r Release) (*ReleaseResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()

	sn := o.store.Snapshot()
	if err := r.validate(o, sn); err != nil {
		return nil, err
	}
	res := &ReleaseResult{}
	sBefore := sn.GraphLen(SourceGraphName)
	totalBefore := sn.Len()
	var pending []rdf.Quad
	add := func(graph rdf.IRI, t rdf.Triple) {
		pending = append(pending, rdf.Quad{Triple: t, Graph: graph})
	}

	sourceURI := SourceURI(r.Wrapper.Source)
	// Line 3-5: register the data source if it is new.
	if !sn.ContainsTriple(SourceGraphName, rdf.T(sourceURI, rdf.RDFType, SDataSource)) {
		res.NewSource = true
		add(SourceGraphName, rdf.T(sourceURI, rdf.RDFType, SDataSource))
	}

	// Lines 6-8: register the wrapper and link it to its source.
	wrapperURI := WrapperURI(r.Wrapper.Name)
	if sn.ContainsTriple(SourceGraphName, rdf.T(wrapperURI, rdf.RDFType, SWrapper)) {
		return nil, fmt.Errorf("core: wrapper %q is already registered; releases are immutable", r.Wrapper.Name)
	}
	add(SourceGraphName, rdf.T(wrapperURI, rdf.RDFType, SWrapper))
	add(SourceGraphName, rdf.T(sourceURI, SHasWrapper, wrapperURI))

	// Lines 9-15: register attributes, reusing those already present for the
	// same data source (attribute URIs are prefixed with the source).
	for _, a := range r.Wrapper.Attributes() {
		attrURI := AttributeURI(r.Wrapper.Source, a)
		if sn.ContainsTriple(SourceGraphName, rdf.T(attrURI, rdf.RDFType, SAttribute)) {
			res.ReusedAttributes = append(res.ReusedAttributes, attrURI)
		} else {
			res.NewAttributes = append(res.NewAttributes, attrURI)
			add(SourceGraphName, rdf.T(attrURI, rdf.RDFType, SAttribute))
		}
		add(SourceGraphName, rdf.T(wrapperURI, SHasAttribute, attrURI))
	}

	// Line 16: register the wrapper's LAV named graph in M, together with the
	// release sequence number used by historical query policies.
	lavGraph := MappingGraphURI(r.Wrapper.Name)
	add(MappingsGraphName, rdf.T(wrapperURI, MMapping, lavGraph))
	seq := o.lastSequenceLocked(sn) + 1
	res.Sequence = seq
	add(MappingsGraphName, rdf.Triple{
		Subject:   wrapperURI,
		Predicate: MRegistrationOrder,
		Object:    rdf.NewIntegerLiteral(int64(seq)),
	})
	for _, t := range r.Subgraph.Triples {
		add(lavGraph, t)
	}

	// Lines 17-21: serialize F as owl:sameAs links between S attributes and
	// G features.
	attrs := make([]string, 0, len(r.F))
	for a := range r.F {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		attrURI := AttributeURI(r.Wrapper.Source, a)
		add(MappingsGraphName, rdf.T(attrURI, rdf.OWLSameAs, r.F[a]))
	}

	// The delta is derived from the pre-release snapshot (reused-attribute
	// links must be the pre-release ones) before the batch is published.
	res.Delta = computeReleaseDelta(sn, pending)

	// One snapshot publication for the whole release. Quads already present
	// from earlier releases (e.g. an owl:sameAs link of a reused attribute)
	// are skipped by the store, exactly as the per-triple path ignored them.
	if _, err := o.store.AddAll(pending); err != nil {
		return nil, fmt.Errorf("core: registering release of wrapper %q: %w", r.Wrapper.Name, err)
	}
	o.lastSeq = seq
	after := o.store.Snapshot()
	res.SourceTriplesAdded = after.GraphLen(SourceGraphName) - sBefore
	res.TriplesAdded = after.Len() - totalBefore
	return res, nil
}

// AddAll adds quads as one store batch under the mutator lock, as a replica
// applies its primary's add-all records. A batch of Algorithm 1's shape is
// a release to caches however it was written: View.ChangedSince derives its
// footprint from the store's generation log.
func (o *Ontology) AddAll(quads []rdf.Quad) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.store.AddAll(quads)
}

// lastSequenceLocked returns the highest release sequence number handed out
// so far. Until this ontology numbers its first release the store is the
// authority (a restored or recovered ontology), so the counter is seeded
// from the largest M:registrationOrder in sn; after that it only grows. The
// store only grows too, so no write can lower the number it was seeded
// from. Callers hold o.mu.
func (o *Ontology) lastSequenceLocked(sn store.Snapshot) int {
	if o.lastSeq == 0 {
		for _, q := range sn.Match(store.InGraph(MappingsGraphName, nil, MRegistrationOrder, nil)) {
			if lit, ok := q.Object.(rdf.Literal); ok {
				if n, ok := lit.Integer(); ok && int(n) > o.lastSeq {
					o.lastSeq = int(n)
				}
			}
		}
	}
	return o.lastSeq
}
