package core

import (
	"slices"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// DataSources returns all registered data source IRIs, sorted.
func (o *Ontology) DataSources() []rdf.IRI {
	return typedInstances(o.store.Snapshot(), SourceGraphName, SDataSource)
}

// Wrappers returns all registered wrapper IRIs, sorted.
func (o *Ontology) Wrappers() []rdf.IRI {
	return typedInstances(o.store.Snapshot(), SourceGraphName, SWrapper)
}

// Attributes returns all registered attribute IRIs, sorted.
func (o *Ontology) Attributes() []rdf.IRI {
	return typedInstances(o.store.Snapshot(), SourceGraphName, SAttribute)
}

// WrappersOfSource returns the wrappers (schema versions) registered for a
// data source.
func (o *Ontology) WrappersOfSource(source string) []rdf.IRI {
	return objectIRIs(o.store.Snapshot(), SourceGraphName, SourceURI(source), SHasWrapper)
}

// SourceWrappers is one data source of S with its wrappers (schema
// versions), as listed by Sources.
type SourceWrappers struct {
	Source   rdf.IRI
	Wrappers []WrapperAttributes
}

// WrapperAttributes is one wrapper of a SourceWrappers with the attributes
// it projects.
type WrapperAttributes struct {
	Wrapper    rdf.IRI
	Attributes []rdf.IRI
}

// Sources lists S from one store snapshot: every data source, its wrappers
// and their attributes, all sorted. The listing describes one generation
// even while releases land.
func (o *Ontology) Sources() []SourceWrappers {
	sn := o.store.Snapshot()
	var out []SourceWrappers
	for _, ds := range typedInstances(sn, SourceGraphName, SDataSource) {
		entry := SourceWrappers{Source: ds}
		for _, w := range objectIRIs(sn, SourceGraphName, ds, SHasWrapper) {
			entry.Wrappers = append(entry.Wrappers, WrapperAttributes{
				Wrapper:    w,
				Attributes: objectIRIs(sn, SourceGraphName, w, SHasAttribute),
			})
		}
		out = append(out, entry)
	}
	return out
}

// SourceOfWrapper returns the data source IRI a wrapper belongs to,
// memoized per store generation.
func (o *Ontology) SourceOfWrapper(wrapper rdf.IRI) (rdf.IRI, bool) {
	qc := o.queryCache()
	wid, ok := qc.snap.Dict().LookupIRI(wrapper)
	if !ok {
		return "", false
	}
	qc.mu.Lock()
	if s, cached := qc.sourceOf[wid]; cached {
		qc.mu.Unlock()
		return s, s != ""
	}
	qc.mu.Unlock()
	var found rdf.IRI
	for _, q := range qc.snap.Match(store.InGraph(SourceGraphName, nil, SHasWrapper, wrapper)) {
		if s, ok := q.Subject.(rdf.IRI); ok {
			found = s
			break
		}
	}
	qc.mu.Lock()
	qc.sourceOf[wid] = found
	qc.mu.Unlock()
	return found, found != ""
}

// AttributesOfWrapper returns the attribute IRIs projected by a wrapper,
// sorted.
func (o *Ontology) AttributesOfWrapper(wrapper rdf.IRI) []rdf.IRI {
	return objectIRIs(o.store.Snapshot(), SourceGraphName, wrapper, SHasAttribute)
}

// LAVGraphOf returns the named graph holding the LAV mapping of a wrapper.
func (o *Ontology) LAVGraphOf(wrapper rdf.IRI) (rdf.IRI, bool) {
	for _, q := range o.store.Match(store.InGraph(MappingsGraphName, wrapper, MMapping, nil)) {
		if g, ok := q.Object.(rdf.IRI); ok {
			return g, true
		}
	}
	return "", false
}

// WrapperOfLAVGraph returns the wrapper whose mapping lives in the given
// named graph.
func (o *Ontology) WrapperOfLAVGraph(graph rdf.IRI) (rdf.IRI, bool) {
	for _, q := range o.store.Match(store.InGraph(MappingsGraphName, nil, MMapping, graph)) {
		if w, ok := q.Subject.(rdf.IRI); ok {
			return w, true
		}
	}
	return "", false
}

// FeatureOfAttribute resolves F for one attribute: the feature the attribute
// is owl:sameAs-linked to. Memoized per store generation.
func (o *Ontology) FeatureOfAttribute(attr rdf.IRI) (rdf.IRI, bool) {
	qc := o.queryCache()
	aid, ok := qc.snap.Dict().LookupIRI(attr)
	if !ok {
		return "", false
	}
	qc.mu.Lock()
	if f, cached := qc.featureOfAttr[aid]; cached {
		qc.mu.Unlock()
		return f, f != ""
	}
	qc.mu.Unlock()
	var found rdf.IRI
	for _, q := range qc.snap.Match(store.InGraph(MappingsGraphName, attr, rdf.OWLSameAs, nil)) {
		if f, ok := q.Object.(rdf.IRI); ok {
			found = f
			break
		}
	}
	qc.mu.Lock()
	qc.featureOfAttr[aid] = found
	qc.mu.Unlock()
	return found, found != ""
}

// AttributesOfFeature returns the inverse of F: all source attributes that
// map to the given feature, sorted. Memoized per store generation.
func (o *Ontology) AttributesOfFeature(feature rdf.IRI) []rdf.IRI {
	qc := o.queryCache()
	fid, ok := qc.snap.Dict().LookupIRI(feature)
	if !ok {
		return nil
	}
	qc.mu.Lock()
	if attrs, cached := qc.attrsOf[fid]; cached {
		qc.mu.Unlock()
		return slices.Clone(attrs)
	}
	qc.mu.Unlock()
	var out []rdf.IRI
	for _, q := range qc.snap.Match(store.InGraph(MappingsGraphName, nil, rdf.OWLSameAs, feature)) {
		if a, ok := q.Subject.(rdf.IRI); ok {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	qc.mu.Lock()
	qc.attrsOf[fid] = out
	qc.mu.Unlock()
	return slices.Clone(out)
}

// AttributeOfFeatureInWrapper resolves, for a given wrapper and feature, the
// wrapper attribute providing it (Algorithm 4, line 10: the attribute that
// is owl:sameAs the feature and S:hasAttribute-linked to the wrapper). The
// resolution is memoized per store generation: phase #3 asks the same
// (wrapper, feature) pairs once per candidate walk.
func (o *Ontology) AttributeOfFeatureInWrapper(wrapper, feature rdf.IRI) (rdf.IRI, bool) {
	qc := o.queryCache()
	d := qc.snap.Dict()
	wid, okW := d.LookupIRI(wrapper)
	fid, okF := d.LookupIRI(feature)
	if !okW || !okF {
		// An un-interned wrapper or feature appears in no triple; the slow
		// path below would find nothing.
		return "", false
	}
	key := [2]rdf.TermID{wid, fid}
	qc.mu.Lock()
	if attr, ok := qc.attrOf[key]; ok {
		qc.mu.Unlock()
		return attr, attr != ""
	}
	qc.mu.Unlock()
	var found rdf.IRI
	for _, attr := range o.AttributesOfFeature(feature) {
		if qc.snap.ContainsTriple(SourceGraphName, rdf.T(wrapper, SHasAttribute, attr)) {
			found = attr
			break
		}
	}
	qc.mu.Lock()
	qc.attrOf[key] = found
	qc.mu.Unlock()
	return found, found != ""
}

// WrappersProvidingFeature returns the wrappers whose LAV mapping graph
// contains the triple ⟨concept, G:hasFeature, feature⟩ (Algorithm 4, line 8).
// Memoized per store generation, with the graph→wrapper resolution served
// from the cached mapping maps instead of a store probe per graph.
func (o *Ontology) WrappersProvidingFeature(concept, feature rdf.IRI) []rdf.IRI {
	qc := o.queryCache()
	d := qc.snap.Dict()
	cid, okC := d.LookupIRI(concept)
	fid, okF := d.LookupIRI(feature)
	if !okC || !okF {
		return nil
	}
	key := [2]rdf.TermID{cid, fid}
	qc.mu.Lock()
	if ws, ok := qc.providers[key]; ok {
		qc.mu.Unlock()
		return slices.Clone(ws)
	}
	qc.ensureMappingMapsLocked(o)
	graphWrapper := qc.graphWrapper
	qc.mu.Unlock()

	target := rdf.T(concept, GHasFeature, feature)
	var out []rdf.IRI
	for _, g := range qc.snap.GraphsContaining(target) {
		if !isLAVGraph(g) {
			continue
		}
		if w, ok := graphWrapper[g]; ok {
			out = append(out, w)
		}
	}
	slices.Sort(out)
	qc.mu.Lock()
	qc.providers[key] = out
	qc.mu.Unlock()
	return slices.Clone(out)
}

// WrappersProvidingEdge returns the wrappers whose LAV mapping graph
// contains any edge from one concept to another (Algorithm 5, lines 9-10).
// One subject+object index probe replaces the per-graph scan of the naive
// formulation, and the result is memoized per store generation (phase #3
// asks the same concept pairs for every walk combination).
func (o *Ontology) WrappersProvidingEdge(from, to rdf.IRI) []rdf.IRI {
	qc := o.queryCache()
	d := qc.snap.Dict()
	fid, okF := d.LookupIRI(from)
	tid, okT := d.LookupIRI(to)
	if !okF || !okT {
		return nil
	}
	key := [2]rdf.TermID{fid, tid}
	qc.mu.Lock()
	if ws, ok := qc.edges[key]; ok {
		qc.mu.Unlock()
		return slices.Clone(ws)
	}
	qc.ensureMappingMapsLocked(o)
	graphWrapper := qc.graphWrapper
	qc.mu.Unlock()

	seen := map[rdf.IRI]bool{}
	var out []rdf.IRI
	for _, q := range qc.snap.Match(store.WildcardGraph(from, nil, to)) {
		g := q.Graph
		if !isLAVGraph(g) {
			continue
		}
		if w, ok := graphWrapper[g]; ok && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	slices.Sort(out)
	qc.mu.Lock()
	qc.edges[key] = out
	qc.mu.Unlock()
	return slices.Clone(out)
}

// WrapperLocalName converts a wrapper IRI into the wrapper name used by the
// wrapper registry (the IRI local name).
func WrapperLocalName(wrapper rdf.IRI) string { return wrapper.LocalName() }

// SourceLocalName converts a data source IRI into its plain name.
func SourceLocalName(source rdf.IRI) string { return source.LocalName() }

// RegistrationOrder returns the release sequence number assigned to a
// wrapper when it was registered (1-based), or false when the wrapper is
// unknown or predates sequence tracking.
func (o *Ontology) RegistrationOrder(wrapper rdf.IRI) (int, bool) {
	for _, q := range o.store.Match(store.InGraph(MappingsGraphName, wrapper, MRegistrationOrder, nil)) {
		if lit, ok := q.Object.(rdf.Literal); ok {
			if n, ok := lit.Integer(); ok {
				return int(n), true
			}
		}
	}
	return 0, false
}

// LatestWrapperOfSource returns the most recently registered wrapper (i.e.
// the newest schema version) of a data source.
func (o *Ontology) LatestWrapperOfSource(source string) (rdf.IRI, bool) {
	best := rdf.IRI("")
	bestSeq := -1
	for _, w := range o.WrappersOfSource(source) {
		seq, ok := o.RegistrationOrder(w)
		if !ok {
			continue
		}
		if seq > bestSeq {
			best, bestSeq = w, seq
		}
	}
	return best, bestSeq >= 0
}

// CurrentWrappers returns, for every data source, its latest wrapper. It is
// the wrapper set used by the "latest versions only" query policy.
func (o *Ontology) CurrentWrappers() map[rdf.IRI]rdf.IRI {
	out := map[rdf.IRI]rdf.IRI{}
	for _, ds := range o.DataSources() {
		if w, ok := o.LatestWrapperOfSource(SourceLocalName(ds)); ok {
			out[ds] = w
		}
	}
	return out
}
