package core

import (
	"slices"
	"sync"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// queryCache memoizes the ontology lookups that dominate query rewriting —
// per-triple covering-wrapper sets, edge-providing wrappers and
// per-(wrapper, feature) attribute resolution — keyed on dictionary TermIDs.
// A memo lives for exactly one store generation: it carries the
// store.Snapshot it was created against, every probe that fills it reads
// from that snapshot, and nothing is carried into the next generation's
// memo. Work that outlives a release is kept one layer up, by
// rewriting.Cache's footprint revalidation.
type queryCache struct {
	snap store.Snapshot

	mu            sync.Mutex
	covering      map[[3]rdf.TermID][]rdf.IRI // ground triple -> covering wrappers
	edges         map[[2]rdf.TermID][]rdf.IRI // (from, to) -> edge-providing wrappers
	attrOf        map[[2]rdf.TermID]rdf.IRI   // (wrapper, feature) -> attribute, "" = none
	identifiersOf map[rdf.TermID][]rdf.IRI    // concept -> identifier features
	providers     map[[2]rdf.TermID][]rdf.IRI // (concept, feature) -> providing wrappers
	featureOfAttr map[rdf.TermID]rdf.IRI      // attribute -> feature, "" = none
	attrsOf       map[rdf.TermID][]rdf.IRI    // feature -> attributes
	sourceOf      map[rdf.TermID]rdf.IRI      // wrapper -> data source, "" = none
}

// queryCache returns the memo of the current store generation. A stale memo
// is replaced with one compare-and-swap, which never replaces a newer memo:
// a caller whose snapshot is older than the installed memo uses the
// installed one, a view of a later store state. No lock is taken.
func (o *Ontology) queryCache() *queryCache {
	sn := o.store.Snapshot()
	for {
		cur := o.qc.Load()
		if cur != nil && cur.snap.Generation() >= sn.Generation() {
			return cur
		}
		next := newQueryCache(sn)
		if o.qc.CompareAndSwap(cur, next) {
			return next
		}
	}
}

func newQueryCache(sn store.Snapshot) *queryCache {
	return &queryCache{
		snap:          sn,
		covering:      map[[3]rdf.TermID][]rdf.IRI{},
		edges:         map[[2]rdf.TermID][]rdf.IRI{},
		attrOf:        map[[2]rdf.TermID]rdf.IRI{},
		identifiersOf: map[rdf.TermID][]rdf.IRI{},
		providers:     map[[2]rdf.TermID][]rdf.IRI{},
		featureOfAttr: map[rdf.TermID]rdf.IRI{},
		attrsOf:       map[rdf.TermID][]rdf.IRI{},
		sourceOf:      map[rdf.TermID]rdf.IRI{},
	}
}

// memoize returns m[key], computing and storing it on a miss. m must be one
// of qc's maps. compute runs without the memo's lock, so racing misses may
// compute the same value twice; both read qc.snap, so they agree.
func memoize[K comparable, V any](qc *queryCache, m map[K]V, key K, compute func() V) V {
	qc.mu.Lock()
	v, ok := m[key]
	qc.mu.Unlock()
	if ok {
		return v
	}
	v = compute()
	qc.mu.Lock()
	m[key] = v
	qc.mu.Unlock()
	return v
}

// WrappersCoveringTriple returns the wrappers whose LAV mapping graph
// contains the given ground triple, sorted. The result is memoized per store
// generation and must not be mutated; triples with variables or terms the
// store has never seen are covered by no wrapper.
func (o *Ontology) WrappersCoveringTriple(t rdf.Triple) []rdf.IRI {
	qc := o.queryCache()
	d := qc.snap.Dict()
	sid, okS := d.Lookup(t.Subject)
	pid, okP := d.Lookup(t.Predicate)
	oid, okO := d.Lookup(t.Object)
	if !okS || !okP || !okO {
		return nil
	}
	return memoize(qc, qc.covering, [3]rdf.TermID{sid, pid, oid}, func() []rdf.IRI {
		var out []rdf.IRI
		for _, g := range qc.snap.GraphsContaining(t) {
			if w, ok := wrapperOfLAVGraph(qc.snap, g); ok {
				out = append(out, w)
			}
		}
		slices.Sort(out)
		return out
	})
}
