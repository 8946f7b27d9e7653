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
// query footprints and, when a new release arrives, retire only the entries
// whose footprint intersects the delta instead of recomputing everything
// (the delta-driven view-maintenance style of incremental engines).
type ReleaseDelta struct {
	// Wrapper and Source identify the registered wrapper.
	Wrapper rdf.IRI
	Source  rdf.IRI
	// Sequence is the global registration sequence number of the release.
	Sequence int
	// Concepts are the G concepts the release can affect: every concept
	// mentioned by the LAV subgraph plus the owners of every affected
	// feature. Sorted.
	Concepts []rdf.IRI
	// Features are the G features the release can affect: features mentioned
	// by the LAV subgraph, the range of F and — crucially for attribute
	// reuse — every feature a reused attribute was already owl:sameAs-linked
	// to (a new link can change which feature an attribute resolves to).
	// Sorted.
	Features []rdf.IRI
	// Attributes are the S attribute IRIs the wrapper projects (new and
	// reused). Sorted.
	Attributes []rdf.IRI
	// Edges are the (from, to) concept pairs of the object-property edges
	// the LAV subgraph provides. Their endpoints are always also listed in
	// Concepts; the pairs are kept for reporting and tooling. Sorted.
	Edges [][2]rdf.IRI
}

// Touches reports whether the delta affects the given concept or feature.
func (d *ReleaseDelta) Touches(iri rdf.IRI) bool {
	_, ok := slices.BinarySearch(d.Concepts, iri)
	if ok {
		return true
	}
	_, ok = slices.BinarySearch(d.Features, iri)
	return ok
}

// String renders the delta compactly for logs and the bdictl releases
// subcommand.
func (d *ReleaseDelta) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "release #%d %s: %d concept(s), %d feature(s), %d attribute(s), %d edge(s)",
		d.Sequence, d.Wrapper.LocalName(), len(d.Concepts), len(d.Features), len(d.Attributes), len(d.Edges))
	return b.String()
}

// Footprint is the set of ontology elements a memoized rewriting answer
// depends on: the concepts of the (expanded) query and the features it
// requests. A cached answer stays valid across a release whose delta does
// not intersect its footprint. Both slices are sorted; edge dependencies
// need no separate tracking because a delta providing an edge always lists
// both endpoint concepts.
type Footprint struct {
	Concepts []rdf.IRI
	Features []rdf.IRI
}

// NewFootprint builds a footprint from (possibly unsorted, possibly
// duplicated) concept and feature sets.
func NewFootprint(concepts, features []rdf.IRI) Footprint {
	return Footprint{Concepts: sortedUnique(concepts), Features: sortedUnique(features)}
}

// Intersects reports whether a release delta touches any element of the
// footprint. Both sides are sorted, so the test is one merge walk per kind.
func (f Footprint) Intersects(d *ReleaseDelta) bool {
	return sortedIntersect(f.Concepts, d.Concepts) || sortedIntersect(f.Features, d.Features)
}

// IntersectsAny reports whether any of the deltas touches the footprint.
func (f Footprint) IntersectsAny(deltas []*ReleaseDelta) bool {
	for _, d := range deltas {
		if f.Intersects(d) {
			return true
		}
	}
	return false
}

// TouchedConcepts returns the footprint concepts any of the deltas touches
// (directly, or through one of the footprint's features owned by the
// concept — attributed to the delta's own concept list). Used for
// per-concept invalidation statistics.
func (f Footprint) TouchedConcepts(deltas []*ReleaseDelta) []rdf.IRI {
	var out []rdf.IRI
	for _, c := range f.Concepts {
		for _, d := range deltas {
			if d.Touches(c) {
				out = append(out, c)
				break
			}
		}
	}
	return out
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

// DeltaSpan is one entry of the release-delta log: a release delta together
// with the store-generation interval (From, To] its publication covered. The
// log lives in memory only: a release's delta is derived from its store
// batch and the state before it, so a recovered or resynchronized ontology,
// whose caches start empty, has nothing to restore.
type DeltaSpan struct {
	From  uint64
	To    uint64
	Delta *ReleaseDelta
}

// spans returns the published delta log. The slice is never written after
// publication.
func (o *Ontology) spans() []DeltaSpan {
	if p := o.deltaLog.Load(); p != nil {
		return *p
	}
	return nil
}

// SetReleaseHook installs (or, with nil, removes) a hook observing every
// delta span NewRelease records, invoked under the ontology write lock once
// the release is published. It is a test point: a hook can park a release
// after publication. A non-nil error is returned by NewRelease, whose
// release stays applied.
func (o *Ontology) SetReleaseHook(h func(DeltaSpan) error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.releaseHook = h
}

// maxDeltaLog bounds the release-delta log. Caches that fall further behind
// than the window simply pay one full recompute; the log itself stays O(1).
const maxDeltaLog = 256

// recordDeltaLocked publishes the log with one more span, trimmed to the
// bounded window. The published slice is copied, never appended to in place,
// so readers holding it see no write. Caller holds o.mu.
func (o *Ontology) recordDeltaLocked(sp DeltaSpan) {
	log := append(slices.Clip(o.spans()), sp)
	if len(log) > maxDeltaLog {
		log = log[len(log)-maxDeltaLog:]
	}
	o.deltaLog.Store(&log)
}

// DeltasBetween returns the release deltas that fully explain every store
// mutation in the generation interval (from, to]. ok is false when the
// interval contains any mutation that did not come from a release (e.g. a
// Global-graph edit or a direct store write), when the interval predates
// the bounded log window, or when generations moved backwards — in all of
// which cases the caller must fall back to full invalidation. It takes no
// lock: a release publishes its span before its snapshot, so a reader that
// has seen a release's generation also sees the span explaining it.
func (o *Ontology) DeltasBetween(from, to uint64) ([]*ReleaseDelta, bool) {
	if to == from {
		return nil, true
	}
	if to < from {
		return nil, false
	}
	log := o.spans()
	// Walk the log backwards collecting the contiguous chain to ... from.
	var rev []*ReleaseDelta
	next := to
	for i := len(log) - 1; i >= 0; i-- {
		span := log[i]
		if span.To < next {
			// A generation in (span.To, next] is unexplained by any release.
			return nil, false
		}
		if span.To > next {
			continue
		}
		rev = append(rev, span.Delta)
		next = span.From
		if next <= from {
			break
		}
	}
	if next != from {
		return nil, false
	}
	slices.Reverse(rev)
	return rev, true
}

// computeReleaseDelta derives the delta of a release from the state before
// it (sn) and its store batch. It returns nil when the batch is not
// Algorithm 1's shape: a quad in G or in a graph other than S, M and the
// wrapper's own LAV graph, no wrapper or a second one, or an S or M quad no
// release writes. G is never written by a release, so concept and feature
// classification read from sn stay valid after the batch is applied. The
// delta reads only the quads every release inserts and the batch's
// owl:sameAs links, and a reused attribute's existing links come from sn, so
// a batch the store stripped of duplicate quads derives the same delta.
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
	// changes surface in rewrites through the concept's intra-concept unit.
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
