package core

import (
	"slices"
	"strings"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// Wrappers returns all registered wrapper IRIs, sorted.
func (o *Ontology) Wrappers() []rdf.IRI {
	return typedInstances(o.store.Snapshot(), SourceGraphName, SWrapper)
}

// WrappersOfSource returns the wrappers (schema versions) registered for a
// data source.
func (v *View) WrappersOfSource(source string) []rdf.IRI {
	return objectIRIs(v.snap, SourceGraphName, SourceURI(source), SHasWrapper)
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
// memoized.
func (v *View) SourceOfWrapper(wrapper rdf.IRI) (rdf.IRI, bool) {
	wid, ok := v.snap.Dict().LookupIRI(wrapper)
	if !ok {
		return "", false
	}
	found := memoize(v, v.sourceOf, wid, func() rdf.IRI {
		for _, q := range v.snap.Match(store.InGraph(SourceGraphName, nil, SHasWrapper, wrapper)) {
			if s, ok := q.Subject.(rdf.IRI); ok {
				return s
			}
		}
		return ""
	})
	return found, found != ""
}

// wrapperOfLAVGraph returns the wrapper whose mapping lives in the given
// named graph on one snapshot: the first M:mapping subject naming the
// graph. The memoized accessors resolve graphs to wrappers with it on their
// view's snapshot.
func wrapperOfLAVGraph(sn store.Snapshot, graph rdf.IRI) (rdf.IRI, bool) {
	for _, q := range sn.Match(store.InGraph(MappingsGraphName, nil, MMapping, graph)) {
		if w, ok := q.Subject.(rdf.IRI); ok {
			return w, true
		}
	}
	return "", false
}

// AttributesOfFeature returns the inverse of F: all source attributes that
// map to the given feature, sorted. Memoized.
func (v *View) AttributesOfFeature(feature rdf.IRI) []rdf.IRI {
	return slices.Clone(v.attributesOfFeature(feature))
}

// attributesOfFeature is AttributesOfFeature without the copy; the result is
// shared and must not be mutated.
func (v *View) attributesOfFeature(feature rdf.IRI) []rdf.IRI {
	fid, ok := v.snap.Dict().LookupIRI(feature)
	if !ok {
		return nil
	}
	return memoize(v, v.attrsOf, fid, func() []rdf.IRI {
		var out []rdf.IRI
		for _, q := range v.snap.Match(store.InGraph(MappingsGraphName, nil, rdf.OWLSameAs, feature)) {
			if a, ok := q.Subject.(rdf.IRI); ok {
				out = append(out, a)
			}
		}
		slices.Sort(out)
		return out
	})
}

// AttributeOfFeatureInWrapper resolves, for a given wrapper and feature, the
// wrapper attribute providing it (Algorithm 4, line 10: the attribute that
// is owl:sameAs the feature and S:hasAttribute-linked to the wrapper). The
// resolution is memoized: phase #3 asks the same (wrapper, feature) pairs
// once per candidate walk.
func (v *View) AttributeOfFeatureInWrapper(wrapper, feature rdf.IRI) (rdf.IRI, bool) {
	d := v.snap.Dict()
	wid, okW := d.LookupIRI(wrapper)
	fid, okF := d.LookupIRI(feature)
	if !okW || !okF {
		// An un-interned wrapper or feature appears in no triple.
		return "", false
	}
	found := memoize(v, v.attrOf, [2]rdf.TermID{wid, fid}, func() rdf.IRI {
		for _, attr := range v.attributesOfFeature(feature) {
			if v.snap.ContainsTriple(SourceGraphName, rdf.T(wrapper, SHasAttribute, attr)) {
				return attr
			}
		}
		return ""
	})
	return found, found != ""
}

// WrappersProvidingFeature returns the wrappers whose LAV mapping graph
// contains the triple ⟨concept, G:hasFeature, feature⟩ (Algorithm 4, line 8).
// Memoized.
func (v *View) WrappersProvidingFeature(concept, feature rdf.IRI) []rdf.IRI {
	d := v.snap.Dict()
	cid, okC := d.LookupIRI(concept)
	fid, okF := d.LookupIRI(feature)
	if !okC || !okF {
		return nil
	}
	return slices.Clone(memoize(v, v.providers, [2]rdf.TermID{cid, fid}, func() []rdf.IRI {
		var out []rdf.IRI
		for _, g := range v.snap.GraphsContaining(rdf.T(concept, GHasFeature, feature)) {
			if !isLAVGraph(g) {
				continue
			}
			if w, ok := wrapperOfLAVGraph(v.snap, g); ok {
				out = append(out, w)
			}
		}
		slices.Sort(out)
		return out
	}))
}

// WrappersProvidingEdge returns the wrappers whose LAV mapping graph
// contains any edge from one concept to another (Algorithm 5, lines 9-10).
// One subject+object index probe replaces the per-graph scan of the naive
// formulation, and the result is memoized (phase #3 asks the same concept
// pairs for every walk combination).
func (v *View) WrappersProvidingEdge(from, to rdf.IRI) []rdf.IRI {
	d := v.snap.Dict()
	fid, okF := d.LookupIRI(from)
	tid, okT := d.LookupIRI(to)
	if !okF || !okT {
		return nil
	}
	return slices.Clone(memoize(v, v.edges, [2]rdf.TermID{fid, tid}, func() []rdf.IRI {
		seen := map[rdf.IRI]bool{}
		var out []rdf.IRI
		for _, q := range v.snap.Match(store.WildcardGraph(from, nil, to)) {
			if !isLAVGraph(q.Graph) {
				continue
			}
			if w, ok := wrapperOfLAVGraph(v.snap, q.Graph); ok && !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
		slices.Sort(out)
		return out
	}))
}

// WrapperLocalName converts a wrapper IRI into the wrapper name used by the
// wrapper registry: the inverse of WrapperURI, so a name may hold any
// character. An IRI outside that namespace yields its local name.
func WrapperLocalName(wrapper rdf.IRI) string { return nameIn(wrapper, WrapperURI("")) }

// SourceLocalName converts a data source IRI into its plain name: the
// inverse of SourceURI. An IRI outside that namespace yields its local name.
func SourceLocalName(source rdf.IRI) string { return nameIn(source, SourceURI("")) }

// nameIn cuts the namespace prefix from iri, or returns iri's local name when
// iri lies outside the namespace.
func nameIn(iri, namespace rdf.IRI) string {
	if name, ok := strings.CutPrefix(string(iri), string(namespace)); ok {
		return name
	}
	return iri.LocalName()
}

// RegistrationOrder returns the release sequence number assigned to a
// wrapper when it was registered (1-based), or false when the wrapper is
// unknown or predates sequence tracking.
func (v *View) RegistrationOrder(wrapper rdf.IRI) (int, bool) {
	for _, q := range v.snap.Match(store.InGraph(MappingsGraphName, wrapper, MRegistrationOrder, nil)) {
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
func (v *View) LatestWrapperOfSource(source string) (rdf.IRI, bool) {
	best := rdf.IRI("")
	bestSeq := -1
	for _, w := range v.WrappersOfSource(source) {
		seq, ok := v.RegistrationOrder(w)
		if !ok {
			continue
		}
		if seq > bestSeq {
			best, bestSeq = w, seq
		}
	}
	return best, bestSeq >= 0
}
