package core

import (
	"slices"
	"sync"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// View is the read model of one store generation: every reader that query
// rewriting (Algorithms 2-5), the version policies and the ontology
// endpoints combine answers from the one store.Snapshot the view carries, so
// a caller that pins a view reads one consistent state of T however many
// lookups it makes and however many releases land meanwhile. The lookups
// that dominate rewriting — per-triple covering-wrapper sets, edge- and
// feature-providing wrappers, per-(wrapper, feature) attribute resolution —
// are memoized in the view, keyed on dictionary TermIDs. Nothing is carried
// into the next generation's view; work that outlives a release is kept one
// layer up, by rewriting.Cache's footprint revalidation. A View is safe for
// concurrent use.
type View struct {
	snap     store.Snapshot
	prefixes *rdf.PrefixMap

	mu            sync.Mutex
	covering      map[[3]rdf.TermID][]rdf.IRI // ground triple -> covering wrappers
	edges         map[[2]rdf.TermID][]rdf.IRI // (from, to) -> edge-providing wrappers
	attrOf        map[[2]rdf.TermID]rdf.IRI   // (wrapper, feature) -> attribute, "" = none
	identifiersOf map[rdf.TermID][]rdf.IRI    // concept -> identifier features
	providers     map[[2]rdf.TermID][]rdf.IRI // (concept, feature) -> providing wrappers
	attrsOf       map[rdf.TermID][]rdf.IRI    // feature -> attributes
	sourceOf      map[rdf.TermID]rdf.IRI      // wrapper -> data source, "" = none
}

// View returns the view of the current store generation; two calls within
// one generation return the same view. A stale view is replaced with one
// compare-and-swap, which never replaces a newer view: a caller whose
// snapshot is older than the installed view gets the installed one, a view
// of a later store state. No lock is taken.
func (o *Ontology) View() *View {
	sn := o.store.Snapshot()
	for {
		cur := o.view.Load()
		if cur != nil && cur.snap.Generation() >= sn.Generation() {
			return cur
		}
		next := &View{
			snap:          sn,
			prefixes:      o.prefixes,
			covering:      map[[3]rdf.TermID][]rdf.IRI{},
			edges:         map[[2]rdf.TermID][]rdf.IRI{},
			attrOf:        map[[2]rdf.TermID]rdf.IRI{},
			identifiersOf: map[rdf.TermID][]rdf.IRI{},
			providers:     map[[2]rdf.TermID][]rdf.IRI{},
			attrsOf:       map[rdf.TermID][]rdf.IRI{},
			sourceOf:      map[rdf.TermID]rdf.IRI{},
		}
		if o.view.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// Generation reports the store generation the view reads.
func (v *View) Generation() uint64 { return v.snap.Generation() }

// ChangedSince returns the union of the release footprints of the
// generations in (gen, v.Generation()], each derived from the quads it
// inserted (store.Snapshot.Inserted). covered is false when one of them is
// not a release of Algorithm 1's shape (a Global-graph edit, the metamodel,
// a bulk load), when gen precedes the store's generation log or follows the
// view: then anything memoized at gen must be dropped. Deriving every
// release on the view's snapshot instead of the state before it yields the
// same union: G does not change within a covered interval, and an
// owl:sameAs link a later release adds to a reused attribute is among that
// later release's own features.
func (v *View) ChangedSince(gen uint64) (changed Footprint, covered bool) {
	if gen > v.Generation() {
		return Footprint{}, false
	}
	var concepts, features []rdf.IRI
	for g := gen + 1; g <= v.Generation(); g++ {
		quads, ok := v.snap.Inserted(g)
		if !ok {
			return Footprint{}, false
		}
		d := computeReleaseDelta(v.snap, quads)
		if d == nil {
			return Footprint{}, false
		}
		concepts = append(concepts, d.Concepts...)
		features = append(features, d.Features...)
	}
	return NewFootprint(concepts, features), true
}

// Compact renders an IRI with the ontology's prefixes, for messages.
func (v *View) Compact(iri rdf.IRI) string { return v.prefixes.Compact(iri) }

// memoize returns m[key], computing and storing it on a miss. m must be one
// of v's maps. compute runs without the view's lock, so racing misses may
// compute the same value twice; both read v.snap, so they agree.
func memoize[K comparable, V any](v *View, m map[K]V, key K, compute func() V) V {
	v.mu.Lock()
	val, ok := m[key]
	v.mu.Unlock()
	if ok {
		return val
	}
	val = compute()
	v.mu.Lock()
	m[key] = val
	v.mu.Unlock()
	return val
}

// WrappersCoveringTriple returns the wrappers whose LAV mapping graph
// contains the given ground triple, sorted. The result is memoized and must
// not be mutated; triples with variables or terms the store has never seen
// are covered by no wrapper.
func (v *View) WrappersCoveringTriple(t rdf.Triple) []rdf.IRI {
	d := v.snap.Dict()
	sid, okS := d.Lookup(t.Subject)
	pid, okP := d.Lookup(t.Predicate)
	oid, okO := d.Lookup(t.Object)
	if !okS || !okP || !okO {
		return nil
	}
	return memoize(v, v.covering, [3]rdf.TermID{sid, pid, oid}, func() []rdf.IRI {
		var out []rdf.IRI
		for _, g := range v.snap.GraphsContaining(t) {
			if w, ok := wrapperOfLAVGraph(v.snap, g); ok {
				out = append(out, w)
			}
		}
		slices.Sort(out)
		return out
	})
}
