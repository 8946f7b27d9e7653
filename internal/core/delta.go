package core

import (
	"fmt"
	"slices"
	"strings"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// ReleaseDelta is the footprint of one wrapper release: the set of ontology
// elements whose query-rewriting answers the release can possibly change.
// Algorithm 1 only writes to S, M and the wrapper's own LAV named graph —
// never to G — so a release can only affect queries whose pattern touches
// the concepts, features or concept edges its LAV subgraph (or its
// attribute-to-feature function F) mentions. Caches key their entries on
// query footprints and, when new releases arrive, retire only the entries
// whose footprint intersects the releases' (the delta-driven
// view-maintenance style of incremental engines).
type ReleaseDelta struct {
	// Wrapper and Source identify the registered wrapper.
	Wrapper rdf.IRI
	Source  rdf.IRI
	// Sequence is the global registration sequence number of the release.
	Sequence int
	// Footprint holds the G concepts the release can affect (every concept
	// mentioned by the LAV subgraph plus the owners of every affected
	// feature) and the G features: those mentioned by the LAV subgraph, the
	// range of F and — crucially for attribute reuse — every feature a
	// reused attribute was already owl:sameAs-linked to (a new link can
	// change which feature an attribute resolves to).
	Footprint
	// Attributes are the S attribute IRIs the wrapper projects (new and
	// reused). Sorted.
	Attributes []rdf.IRI
	// Edges are the (from, to) concept pairs of the object-property edges
	// the LAV subgraph provides. Their endpoints are always also listed in
	// Concepts; the pairs are kept for reporting and tooling. Sorted.
	Edges [][2]rdf.IRI
}

// String renders the delta compactly for logs and the bdictl releases
// subcommand.
func (d *ReleaseDelta) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "release #%d %s: %d concept(s), %d feature(s), %d attribute(s), %d edge(s)",
		d.Sequence, d.Wrapper.LocalName(), len(d.Concepts), len(d.Features), len(d.Attributes), len(d.Edges))
	return b.String()
}

// Footprint is a set of ontology elements: concepts and features. A
// memoized rewriting answer depends on the concepts of its (expanded) query
// and the features it requests; releases change the elements of their
// deltas' footprints. A cached answer stays valid across releases whose
// footprints it does not intersect. Both slices are sorted; edge
// dependencies need no separate tracking because a delta providing an edge
// always lists both endpoint concepts.
type Footprint struct {
	Concepts []rdf.IRI
	Features []rdf.IRI
}

// NewFootprint builds a footprint from (possibly unsorted, possibly
// duplicated) concept and feature sets.
func NewFootprint(concepts, features []rdf.IRI) Footprint {
	return Footprint{Concepts: sortedUnique(concepts), Features: sortedUnique(features)}
}

// Touches reports whether the footprint holds the given concept or feature.
func (f Footprint) Touches(iri rdf.IRI) bool {
	_, ok := slices.BinarySearch(f.Concepts, iri)
	if ok {
		return true
	}
	_, ok = slices.BinarySearch(f.Features, iri)
	return ok
}

// Intersects reports whether the two footprints share a concept or a
// feature. Both sides are sorted, so the test is one merge walk per kind.
func (f Footprint) Intersects(g Footprint) bool {
	return sortedIntersect(f.Concepts, g.Concepts) || sortedIntersect(f.Features, g.Features)
}

func sortedUnique(in []rdf.IRI) []rdf.IRI {
	if len(in) == 0 {
		return nil
	}
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}

func sortedIntersect(a, b []rdf.IRI) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// computeReleaseDelta derives the delta of a release from its store batch
// and sn, the state before it or a later one with the same G. It returns nil
// when the batch is not Algorithm 1's shape: a quad in G or in a graph other
// than S, M and the wrapper's own LAV graph, no wrapper or a second one, or
// an S or M quad no release writes. G is never written by a release, so
// concept and feature classification read from sn stay valid after the
// batch is applied. The delta reads only the quads every release inserts
// and the batch's owl:sameAs links, and a reused attribute's existing links
// come from sn, so a batch the store stripped of duplicate quads derives the
// same delta. A later sn may hold more links of a reused attribute; each
// came with a later release, whose own delta lists its feature.
func computeReleaseDelta(sn store.Snapshot, quads []rdf.Quad) *ReleaseDelta {
	d := &ReleaseDelta{}
	for _, q := range quads {
		if q.Graph == SourceGraphName && q.Predicate == rdf.RDFType && q.Object == SWrapper {
			w, ok := q.Subject.(rdf.IRI)
			if !ok || d.Wrapper != "" {
				return nil
			}
			d.Wrapper = w
		}
	}
	name, ok := strings.CutPrefix(string(d.Wrapper), string(WrapperURI("")))
	if !ok || name == "" {
		return nil
	}
	lav := MappingGraphURI(name)
	isConcept := func(t rdf.Term) (rdf.IRI, bool) {
		iri, ok := t.(rdf.IRI)
		if !ok {
			return "", false
		}
		return iri, sn.ContainsTriple(GlobalGraphName, rdf.T(iri, rdf.RDFType, GConcept))
	}
	var concepts, features, sources, typed, linked []rdf.IRI
	for _, q := range quads {
		switch q.Graph {
		case lav:
			// A triple of the LAV subgraph.
			s, sOK := isConcept(q.Subject)
			if sOK {
				concepts = append(concepts, s)
			}
			if q.Predicate == GHasFeature {
				if f, ok := q.Object.(rdf.IRI); ok {
					features = append(features, f)
				}
				continue
			}
			if obj, oOK := isConcept(q.Object); oOK {
				concepts = append(concepts, obj)
				if sOK {
					d.Edges = append(d.Edges, [2]rdf.IRI{s, obj})
				}
			}
		case SourceGraphName:
			s, ok := q.Subject.(rdf.IRI)
			switch {
			case !ok:
				return nil
			case q.Predicate == rdf.RDFType && q.Object == SWrapper:
			case q.Predicate == rdf.RDFType && q.Object == SDataSource:
				sources = append(sources, s)
			case q.Predicate == rdf.RDFType && q.Object == SAttribute:
				typed = append(typed, s)
			case q.Predicate == SHasWrapper && q.Object == d.Wrapper && d.Source == "":
				d.Source = s
			case q.Predicate == SHasAttribute && s == d.Wrapper:
				a, ok := q.Object.(rdf.IRI)
				if !ok {
					return nil
				}
				d.Attributes = append(d.Attributes, a)
			default:
				return nil
			}
		case MappingsGraphName:
			switch {
			case q.Subject == d.Wrapper && q.Predicate == MMapping && q.Object == lav:
			case q.Subject == d.Wrapper && q.Predicate == MRegistrationOrder && d.Sequence == 0:
				lit, ok := q.Object.(rdf.Literal)
				n, isInt := lit.Integer()
				if !ok || !isInt || n <= 0 {
					return nil
				}
				d.Sequence = int(n)
			case q.Predicate == rdf.OWLSameAs:
				a, aOK := q.Subject.(rdf.IRI)
				f, fOK := q.Object.(rdf.IRI)
				if !aOK || !fOK {
					return nil
				}
				linked = append(linked, a)
				features = append(features, f)
			default:
				return nil
			}
		default:
			return nil
		}
	}
	if d.Source == "" || d.Sequence == 0 {
		return nil
	}
	d.Attributes = sortedUnique(d.Attributes)
	// Only the wrapper's source and attributes are typed, and F maps only
	// the wrapper's attributes.
	isAttr := func(iri rdf.IRI) bool {
		_, ok := slices.BinarySearch(d.Attributes, iri)
		return ok
	}
	for _, s := range sources {
		if s != d.Source {
			return nil
		}
	}
	for _, a := range append(typed, linked...) {
		if !isAttr(a) {
			return nil
		}
	}

	// Every attribute's existing links: a second owl:sameAs link can change
	// which feature a reused attribute resolves to under the accessors'
	// first-match semantics.
	for _, a := range d.Attributes {
		for _, q := range sn.Match(store.InGraph(MappingsGraphName, a, rdf.OWLSameAs, nil)) {
			if f, ok := q.Object.(rdf.IRI); ok {
				features = append(features, f)
			}
		}
	}

	// Every affected feature also marks its owning concept: feature-level
	// changes surface in rewrites through the concept's Algorithm 4 walks.
	features = sortedUnique(features)
	for _, f := range features {
		for _, q := range sn.Match(store.InGraph(GlobalGraphName, nil, GHasFeature, f)) {
			if c, ok := q.Subject.(rdf.IRI); ok {
				concepts = append(concepts, c)
			}
		}
	}

	d.Concepts = sortedUnique(concepts)
	d.Features = features
	slices.SortFunc(d.Edges, func(a, b [2]rdf.IRI) int {
		if a[0] != b[0] {
			return strings.Compare(string(a[0]), string(b[0]))
		}
		return strings.Compare(string(a[1]), string(b[1]))
	})
	d.Edges = slices.Compact(d.Edges)
	return d
}
