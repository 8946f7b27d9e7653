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
// with the store-generation interval (From, To] its publication covered.
// The durability layer checkpoints the log and journals each new span so
// that, after a restart, caches validate incrementally against the same
// release history instead of falling back to full flushes.
type DeltaSpan struct {
	From  uint64
	To    uint64
	Delta *ReleaseDelta
}

// DeltaLog returns a copy of the ontology's bounded release-delta log in
// publication order.
func (o *Ontology) DeltaLog() []DeltaSpan {
	return slices.Clone(o.spans())
}

// spans returns the published delta log. The slice is never written after
// publication.
func (o *Ontology) spans() []DeltaSpan {
	if p := o.deltaLog.Load(); p != nil {
		return *p
	}
	return nil
}

// RestoreDeltaLog replaces the delta log with the given spans (publication
// order), trimming to the bounded window. Recovery uses it to rebuild the
// log from a checkpoint plus the journaled release records.
func (o *Ontology) RestoreDeltaLog(spans []DeltaSpan) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var log []DeltaSpan
	for _, sp := range spans {
		log = appendSpan(log, sp)
	}
	o.deltaLog.Store(&log)
}

// AppendDeltaSpan appends one span to the delta log, trimming to the bounded
// window. The replication apply path uses it to mirror the primary's release
// history span by span (the span's store batch has already been applied), so
// a replica's rewriting caches invalidate incrementally exactly as the
// primary's do.
func (o *Ontology) AppendDeltaSpan(sp DeltaSpan) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recordDeltaLocked(sp)
}

// SetReleaseHook installs (or, with nil, removes) a hook observing every
// delta span a release records, invoked under the ontology write lock once
// the release is published. The durability layer uses it to journal release
// registrations; a non-nil error is propagated by NewRelease (note that the
// release's store batch has already been applied and logged at that point —
// losing only the span degrades cache invalidation to a full flush after
// recovery, never correctness).
func (o *Ontology) SetReleaseHook(h func(DeltaSpan) error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.releaseHook = h
}

// maxDeltaLog bounds the release-delta log. Caches that fall further behind
// than the window simply pay one full recompute; the log itself stays O(1).
const maxDeltaLog = 256

// recordDeltaLocked publishes the log with one more span. The published
// slice is copied, never appended to in place, so readers holding it see no
// write. Caller holds o.mu.
func (o *Ontology) recordDeltaLocked(sp DeltaSpan) {
	log := appendSpan(slices.Clip(o.spans()), sp)
	o.deltaLog.Store(&log)
}

// appendSpan appends a span to a log the caller owns, trimming it to the
// bounded window. Empty spans are dropped.
func appendSpan(log []DeltaSpan, sp DeltaSpan) []DeltaSpan {
	if sp.To == sp.From {
		return log
	}
	log = append(log, sp)
	if len(log) > maxDeltaLog {
		log = log[len(log)-maxDeltaLog:]
	}
	return log
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

// computeReleaseDelta derives the delta of a validated release against the
// pre-release snapshot. G is never written by Algorithm 1, so concept and
// feature classification read from the same snapshot remain valid after the
// release is applied.
func computeReleaseDelta(sn store.Snapshot, r Release, sequence int) *ReleaseDelta {
	d := &ReleaseDelta{
		Wrapper:  WrapperURI(r.Wrapper.Name),
		Source:   SourceURI(r.Wrapper.Source),
		Sequence: sequence,
	}
	isConcept := func(t rdf.Term) (rdf.IRI, bool) {
		iri, ok := t.(rdf.IRI)
		if !ok {
			return "", false
		}
		return iri, sn.ContainsTriple(GlobalGraphName, rdf.T(iri, rdf.RDFType, GConcept))
	}
	var concepts, features []rdf.IRI

	// Elements mentioned by the LAV subgraph.
	for _, t := range r.Subgraph.Triples {
		s, sOK := isConcept(t.Subject)
		if sOK {
			concepts = append(concepts, s)
		}
		if p, ok := t.Predicate.(rdf.IRI); ok && p == GHasFeature {
			if f, ok := t.Object.(rdf.IRI); ok {
				features = append(features, f)
			}
			continue
		}
		if obj, oOK := isConcept(t.Object); oOK {
			concepts = append(concepts, obj)
			if sOK {
				d.Edges = append(d.Edges, [2]rdf.IRI{s, obj})
			}
		}
	}

	// The range of F, and — for reused attributes — every feature the
	// attribute is already linked to: a second owl:sameAs link can change
	// which feature an existing attribute resolves to under the accessors'
	// first-match semantics.
	for _, a := range r.Wrapper.Attributes() {
		attrURI := AttributeURI(r.Wrapper.Source, a)
		d.Attributes = append(d.Attributes, attrURI)
		if f, ok := r.F[a]; ok {
			features = append(features, f)
		}
		for _, q := range sn.Match(store.InGraph(MappingsGraphName, attrURI, rdf.OWLSameAs, nil)) {
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
	d.Attributes = sortedUnique(d.Attributes)
	slices.SortFunc(d.Edges, func(a, b [2]rdf.IRI) int {
		if a[0] != b[0] {
			return strings.Compare(string(a[0]), string(b[0]))
		}
		return strings.Compare(string(a[1]), string(b[1]))
	})
	d.Edges = slices.Compact(d.Edges)
	return d
}
