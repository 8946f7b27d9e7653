// Package store implements the in-memory, indexed, named-graph quad store
// that backs the BDI ontology. It plays the role of Jena TDB in the paper:
// it holds the Global graph (G), the Source graph (S) and the Mapping graph
// (M, one named graph per wrapper) and answers the triple-pattern lookups
// the rewriting algorithms issue through internal/core.
//
// Like TDB's node table, the store dictionary-encodes every term into a
// dense uint32 TermID at Add time (see rdf.Dict); the subject and object
// indexes are keyed on TermIDs and the canonical quad set on 4-integer
// composite keys, so pattern matching compares integers instead of
// rebuilding string keys.
// Quads themselves live in a pointer-free slab arena (see snapshot.go and
// bdi/internal/slab): the stored form of a quad is a 4-integer QuadID plus
// the byte-slab offset of its precomputed sort key, and index buckets are
// uint32 arena references, so the live heap the garbage collector must scan
// stays a handful of large noscan arrays no matter how many quads are
// loaded.
//
// The store only grows: insertion is its one mutation, as registering a
// release only adds triples to the ontology (Algorithm 1). Concurrency
// follows a single-writer / many-readers snapshot discipline: every
// insertion batch copy-on-writes the index structures it touches and
// atomically publishes a new immutable, generation-tagged snapshot, while
// readers pin the current snapshot with one atomic load and never take a
// lock (see snapshot.go). Index buckets are kept permanently sorted by the
// quad's precomputed sort key, so ordered matches are plain bucket copies —
// the per-probe sort of earlier revisions is gone, paid for by O(bucket)
// insertion on the write path.
package store

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bdi/internal/obs"
	"bdi/internal/rdf"
	"bdi/internal/slab"
)

// Store metrics: batch writes. Probes are deliberately uninstrumented: a
// consumer that pins a snapshot issues many of them, and a shared counter
// there would put contended atomics on the hottest read path.
var (
	addAllBatchesTotal = obs.NewCounter("bdi_store_addall_batches_total",
		"AddAll batch insertions.")
	addAllQuadsTotal = obs.NewCounter("bdi_store_addall_quads_total",
		"Quads newly added by AddAll batches.")
	addAllSeconds = obs.NewHistogram("bdi_store_addall_seconds",
		"Latency of AddAll batch insertions (intern + index + publish).")
)

// Pattern is a quad pattern: nil terms act as wildcards, and an empty
// GraphFilter means "any graph". Use WildcardGraph to match all graphs and
// DefaultGraph to match only the default graph.
type Pattern struct {
	Subject   rdf.Term
	Predicate rdf.Term
	Object    rdf.Term
	// Graph restricts matching to a single graph when GraphSet is true.
	Graph    rdf.IRI
	GraphSet bool
}

// WildcardGraph returns a pattern matching the given triple terms in any graph.
func WildcardGraph(s, p, o rdf.Term) Pattern {
	return Pattern{Subject: s, Predicate: p, Object: o}
}

// InGraph returns a pattern restricted to the given graph.
func InGraph(g rdf.IRI, s, p, o rdf.Term) Pattern {
	return Pattern{Subject: s, Predicate: p, Object: o, Graph: g, GraphSet: true}
}

// QuadID is the dictionary-encoded identity of a stored quad: the TermIDs of
// its graph name, subject, predicate and object. Two quads are equal iff
// their QuadIDs are equal, so QuadID is usable directly as a map key.
type QuadID struct {
	Graph     rdf.TermID
	Subject   rdf.TermID
	Predicate rdf.TermID
	Object    rdf.TermID
}

// MatchedQuad is a quad together with its dictionary encoding, returned by
// MatchWithIDs so hot-path consumers can dedupe and join on integer IDs
// without re-deriving string keys.
type MatchedQuad struct {
	rdf.Quad
	ID QuadID
}

// arena owns the store's entry slots and sort-key bytes. It has a single
// writer (the holder of Store.mu); snapshots hold views of its chunk tables
// and readers resolve erefs through those views without locking (chunks
// never move — see bdi/internal/slab).
type arena struct {
	slots *slab.Slots[entrySlot]
	keys  *slab.Bytes
}

func newArena() *arena {
	return &arena{slots: slab.NewSlots[entrySlot](), keys: slab.NewBytes()}
}

// slot returns the writer-side view of an entry slot.
func (a *arena) slot(e eref) *entrySlot { return a.slots.At(e) }

// key returns the writer-side view of an entry's sort-key bytes.
func (a *arena) key(e eref) []byte { return a.keys.Bytes(a.slot(e).key) }

// add appends a new entry (copying key) and returns its reference.
func (a *arena) add(id QuadID, key []byte) eref {
	return a.slots.Append(entrySlot{id: id, key: a.keys.Append(key)})
}

// Batch describes one atomic insertion batch about to be published: the
// quads actually inserted (duplicates already filtered), in the order they
// were interned. Generation is the generation the batch publishes (current
// generation + 1).
type Batch struct {
	Quads      []rdf.Quad
	Generation uint64
}

// CommitHook observes every insertion batch before it is published. It is
// invoked while the writer mutex is held and strictly before the batch's
// snapshot becomes visible to readers, which gives a write-ahead-log
// implementation its ordering guarantee: a batch a reader can observe has
// always been offered to the hook first, and hook invocations are totally
// ordered by Generation. A non-nil error vetoes the batch: the insertion is
// rolled back and every write returns the hook's error. The hook must not
// call back into the Store.
type CommitHook func(Batch) error

// Store is an in-memory quad store with named-graph support. Reads are
// lock-free (they pin the current snapshot, see Snapshot); writes are
// serialized by a mutex and publish a fresh snapshot per mutation batch.
type Store struct {
	// mu serializes writers. Readers never take it.
	mu sync.Mutex

	// snap is the current published snapshot; the only shared mutable cell.
	snap atomic.Pointer[snapshot]

	// ar is the entry arena behind the current snapshot. Guarded by mu;
	// readers reach it only through snapshot views.
	ar *arena

	// quads is the canonical quad set, used by the write path for duplicate
	// detection. It is guarded by mu and never reachable from a snapshot.
	quads map[QuadID]eref

	// keyBuf is the sort-key scratch buffer of the write path. Guarded by mu.
	keyBuf []byte

	// hook, when set, observes every insertion batch before publication
	// (write-ahead ordering). Guarded by mu.
	hook CommitHook
}

// SetCommitHook installs (or, with nil, removes) the store's commit hook.
// See CommitHook for the ordering and error contract. It must be installed
// before the writes it needs to observe; batches published earlier are not
// replayed.
func (s *Store) SetCommitHook(h CommitHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// New returns an empty store.
func New() *Store {
	s := &Store{quads: map[QuadID]eref{}, ar: newArena()}
	s.snap.Store(emptySnapshot(rdf.NewDict(), s.ar))
	return s
}

// Len returns the total number of quads in the store.
func (s *Store) Len() int { return s.Snapshot().Len() }

// Generation returns a counter incremented on every insertion batch. It
// allows callers (e.g. the rewriting caches) to detect staleness cheaply.
func (s *Store) Generation() uint64 { return s.Snapshot().Generation() }

// GraphLen returns the number of quads in the given named graph ("" is the
// default graph).
func (s *Store) GraphLen(graph rdf.IRI) int { return s.Snapshot().GraphLen(graph) }

// Add inserts a quad as a batch of one (see AddAll). Duplicate quads are
// ignored. It returns true when the quad was newly added.
func (s *Store) Add(q rdf.Quad) (bool, error) {
	n, err := s.AddAll([]rdf.Quad{q})
	return n == 1, err
}

// MustAdd inserts a quad and panics on invalid data. It is intended for
// static vocabulary initialization.
func (s *Store) MustAdd(q rdf.Quad) {
	if _, err := s.Add(q); err != nil {
		panic(err)
	}
}

// AddAll inserts all given quads atomically: the whole batch becomes
// visible in a single snapshot publication, so no reader ever observes a
// partially loaded batch. It returns the number newly added. On a
// validation error it stops, publishing and reporting how many quads had
// been added up to that point. Entries for the whole batch are appended to
// the slab arena (a handful of large chunk allocations instead of one per
// quad); duplicate quads allocate nothing.
func (s *Store) AddAll(quads []rdf.Quad) (int, error) {
	if len(quads) == 0 {
		return 0, nil
	}
	start := time.Now()
	added := 0
	defer func() {
		addAllSeconds.Observe(time.Since(start))
		addAllBatchesTotal.Inc()
		addAllQuadsTotal.Add(int64(added))
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	mark := s.ar.slots.Len()
	terms := s.snap.Load().dict.Len()
	ents := make([]eref, 0, len(quads))
	var journal []rdf.Quad
	if s.hook != nil {
		journal = make([]rdf.Quad, 0, len(quads))
	}
	var invalid error
	for _, q := range quads {
		if invalid = q.Validate(); invalid != nil {
			break
		}
		if e, ok := s.internQuad(q); ok {
			ents = append(ents, e)
			if s.hook != nil {
				journal = append(journal, q)
			}
		}
	}
	if err := s.commit(mark, terms, ents, journal); err != nil {
		return 0, err
	}
	added = len(ents)
	return added, invalid
}

// commit offers the batch interned since arena slot mark and dictionary
// length terms to the commit hook and publishes it as the next generation,
// recording mark as that generation's first slot. A vetoed batch is rolled
// back: its quads leave the canonical set, and the arena and the dictionary
// are truncated back to mark and terms, which no snapshot ever resolved
// (the write path is the dictionary's only interner, under s.mu). So the
// arena holds exactly the published quads, each generation's as one
// contiguous slot range in intern order, and the dictionary no term only a
// vetoed batch used. Callers hold s.mu.
func (s *Store) commit(mark eref, terms int, ents []eref, journal []rdf.Quad) error {
	if len(ents) == 0 {
		return nil
	}
	prev := s.snap.Load()
	if s.hook != nil {
		// The hook sees the inserted quads in intern order, so replaying
		// the batch re-interns every term at its original TermID.
		if err := s.hook(Batch{Quads: journal, Generation: prev.generation + 1}); err != nil {
			for _, e := range ents {
				delete(s.quads, s.ar.slot(e).id)
			}
			s.ar.keys.Truncate(s.ar.slot(mark).key)
			s.ar.slots.Truncate(mark)
			prev.dict.Truncate(terms)
			return err
		}
	}
	var next *snapshot
	if prev.size == 0 {
		// Fast-path bulk load: the store is empty, so there is nothing to
		// merge with or copy-on-write around — build the whole snapshot
		// directly with plain appends (see newSnapshotFromSorted). This is
		// the initial/recovery load path: one sort plus O(batch) appends
		// instead of per-bucket COW bookkeeping and sorted merges.
		s.sortByKey(ents)
		next = newSnapshotFromSorted(prev.dict, prev.generation+1, s.ar, ents)
	} else {
		b := s.begin()
		b.insert(ents)
		next = b.next
	}
	// Published snapshots share starts' backing array; each reads only the
	// prefix it was published with, and append writes past every prefix.
	next.base, next.starts = prev.base, append(prev.starts, mark)
	s.snap.Store(next)
	return nil
}

// internQuad interns q's terms, rejects duplicates against the canonical
// set and appends the quad's entry to the arena. Callers must hold s.mu.
// The bool result is false for duplicates (the eref is then meaningless).
func (s *Store) internQuad(q rdf.Quad) (eref, bool) {
	d := s.snap.Load().dict
	id := QuadID{
		Graph:     d.Intern(q.Graph),
		Subject:   d.Intern(q.Subject),
		Predicate: d.Intern(q.Predicate),
		Object:    d.Intern(q.Object),
	}
	if _, exists := s.quads[id]; exists {
		return 0, false
	}
	s.keyBuf = appendSortKey(s.keyBuf[:0], d, q.Graph, id)
	e := s.ar.add(id, s.keyBuf)
	s.quads[id] = e
	return e, true
}

// Quads returns a snapshot of every quad in the store, sorted.
func (s *Store) Quads() []rdf.Quad { return s.Snapshot().Quads() }

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	c := New()
	if _, err := c.AddAll(s.Quads()); err != nil {
		// Stored quads were validated on the way in; re-adding cannot fail.
		panic(err)
	}
	return c
}

// Stats summarizes the content of the store.
type Stats struct {
	Quads             int
	NamedGraphs       int
	DefaultGraphQuads int
	DistinctSubjects  int
	DistinctObjects   int
}

// Stats returns summary statistics for the store.
func (s *Store) Stats() Stats { return s.Snapshot().Stats() }

// String renders a short description of the store.
func (s *Store) String() string {
	st := s.Stats()
	return fmt.Sprintf("store{quads=%d graphs=%d subjects=%d}", st.Quads, st.NamedGraphs, st.DistinctSubjects)
}

func wildcardIfVar(t rdf.Term) rdf.Term {
	if t == nil || t.Kind() == rdf.KindVariable {
		return nil
	}
	return t
}

// appendSortKey derives the deterministic ordering key of a quad: the graph
// name and the three term keys, NUL-separated so concatenation order equals
// component-wise lexicographic order. It is computed once per quad at Add
// time and packed into the arena's key slab; buckets stay sorted by it, so
// it is never derived inside a comparator. The per-term keys come from the
// dictionary's key slab (the terms were just interned), so repeated terms
// cost a copy instead of a fresh key derivation.
func appendSortKey(dst []byte, d *rdf.Dict, graph rdf.IRI, id QuadID) []byte {
	dst = append(dst, string(graph)...)
	dst = append(dst, 0)
	dst, _ = d.AppendKey(dst, id.Subject)
	dst = append(dst, 0)
	dst, _ = d.AppendKey(dst, id.Predicate)
	dst = append(dst, 0)
	dst, _ = d.AppendKey(dst, id.Object)
	return dst
}

// sortByKey sorts a batch of erefs by their arena sort keys. Callers must
// hold s.mu.
func (s *Store) sortByKey(ents []eref) {
	slices.SortFunc(ents, func(x, y eref) int {
		return bytes.Compare(s.ar.key(x), s.ar.key(y))
	})
}

// graphName resolves a graph's name from its TermID.
func graphName(d *rdf.Dict, gid rdf.TermID) rdf.IRI {
	t, _ := d.Term(gid)
	name, _ := t.(rdf.IRI)
	return name
}

// builder constructs the next snapshot of an insertion batch. The union index
// headers are cloned up front (every batch touches both dimensions);
// pages, buckets and graph buckets are copy-on-written on first touch, and
// structures created within the batch are tracked so repeated touches mutate
// in place. commit makes the snapshot visible with one atomic store.
type builder struct {
	s          *Store
	next       *snapshot
	freshPages map[*indexPage]bool
	freshG     map[*graphBucket]bool
}

// begin opens an insertion batch against the current snapshot. Callers must
// hold s.mu, and must have appended any new entries to the arena already
// (the views are captured here).
func (s *Store) begin() *builder {
	prev := s.snap.Load()
	next := &snapshot{
		dict:       prev.dict,
		generation: prev.generation + 1,
		size:       prev.size,
		slots:      s.ar.slots.View(),
		keys:       s.ar.keys.View(),
		graphs:     slices.Clone(prev.graphs),
		bySubject:  cloneIdx(prev.bySubject),
		byObject:   cloneIdx(prev.byObject),
	}
	return &builder{
		s:          s,
		next:       next,
		freshPages: map[*indexPage]bool{},
		freshG:     map[*graphBucket]bool{},
	}
}

func cloneIdx(ti *termIndex) *termIndex {
	if ti == nil {
		return &termIndex{}
	}
	return &termIndex{pages: slices.Clone(ti.pages), count: ti.count}
}

// insert merges the batch's new entries into every index. ents may arrive
// in any order; each touched union bucket is rebuilt exactly once per batch
// via a sorted merge, so bulk loads cost O(touched buckets + batch log
// batch) instead of one binary insertion per quad.
func (b *builder) insert(ents []eref) {
	b.s.sortByKey(ents)
	b.applyDim(b.next.bySubject, ents, dimSubject)
	b.applyDim(b.next.byObject, ents, dimObject)
	b.insertGraphs(ents)
	b.next.size += len(ents)
}

// applyDim groups the batch by term and merges it once into each touched
// union bucket.
func (b *builder) applyDim(ti *termIndex, ents []eref, dim int) {
	pending := make(map[rdf.TermID][]eref)
	var order []rdf.TermID
	for _, e := range ents {
		tid := b.s.ar.slot(e).id.dim(dim)
		if _, ok := pending[tid]; !ok {
			order = append(order, tid)
		}
		pending[tid] = append(pending[tid], e)
	}
	for _, tid := range order {
		b.setBucket(ti, tid, b.mergeSorted(ti.bucket(tid), pending[tid]))
	}
}

// setBucket installs a rebuilt bucket under tid, copy-on-writing the page on
// first touch and maintaining the distinct-term count.
func (b *builder) setBucket(ti *termIndex, tid rdf.TermID, bucket []eref) {
	pg := b.ensurePage(ti, tid)
	if len(pg[tid&pageMask]) == 0 {
		ti.count++
	}
	pg[tid&pageMask] = bucket
}

// ensurePage returns a batch-owned page covering tid, growing the page
// table and cloning a published page on first touch.
func (b *builder) ensurePage(ti *termIndex, tid rdf.TermID) *indexPage {
	pi := int(tid >> pageBits)
	for len(ti.pages) <= pi {
		ti.pages = append(ti.pages, nil)
	}
	pg := ti.pages[pi]
	switch {
	case pg == nil:
		pg = &indexPage{}
		ti.pages[pi] = pg
		b.freshPages[pg] = true
	case !b.freshPages[pg]:
		cp := *pg
		pg = &cp
		ti.pages[pi] = pg
		b.freshPages[pg] = true
	}
	return pg
}

// insertGraphs merges the batch into the per-graph buckets. The batch is
// sorted graph-name-first, so graphs seen for the first time arrive in name
// order and each is placed by a binary search from the previous placement.
func (b *builder) insertGraphs(ents []eref) {
	var fresh []*graphBucket
	for i := 0; i < len(ents); {
		gid := b.s.ar.slot(ents[i]).id.Graph
		j := i
		for j < len(ents) && b.s.ar.slot(ents[j]).id.Graph == gid {
			j++
		}
		group := ents[i:j]
		i = j
		name := graphName(b.next.dict, gid)
		if pos, ok := b.next.graphPos(name); ok {
			gb := b.ensureGraph(pos)
			gb.entries = b.mergeSorted(gb.entries, group)
		} else {
			gb := &graphBucket{name: name, entries: slices.Clone(group)}
			b.freshG[gb] = true
			fresh = append(fresh, gb)
		}
	}
	if len(fresh) == 0 {
		return
	}
	graphs, pos := b.next.graphs, 0
	for _, gb := range fresh {
		n, _ := slices.BinarySearchFunc(graphs[pos:], gb.name, cmpGraphName)
		pos += n
		graphs = slices.Insert(graphs, pos, gb)
		pos++
	}
	b.next.graphs = graphs
}

// ensureGraph returns a batch-owned graph bucket at the given position,
// cloning the published one on first touch.
func (b *builder) ensureGraph(pos int) *graphBucket {
	gb := b.next.graphs[pos]
	if !b.freshG[gb] {
		cp := &graphBucket{name: gb.name, entries: gb.entries}
		b.next.graphs[pos] = cp
		b.freshG[cp] = true
		return cp
	}
	return gb
}

// mergeSorted merges two ascending (by sort key) eref slices into a fresh
// slice. Each batch entry is placed by galloping from the previous placement,
// and the stretch of old it skips is appended wholesale rather than compared
// entry by entry, so a batch costs O(len(add) · log len(old)) comparisons
// plus one copy of old; on fully interleaved input it compares no more than
// a linear merge. Sort keys are unique across distinct quads, so no
// tie-breaking is needed.
func (b *builder) mergeSorted(old, add []eref) []eref {
	ar := b.s.ar
	out := make([]eref, 0, len(old)+len(add))
	i := 0
	for j, e := range add {
		if i == len(old) {
			return append(out, add[j:]...)
		}
		n := ar.gallop(old, i, ar.key(e))
		out = append(append(out, old[i:n]...), e)
		i = n
	}
	return append(out, old[i:]...)
}

// gallop returns the first index n ≥ i whose entry in s sorts after k (or
// len(s)), where s is ascending and every entry before i sorts before k. It
// probes i, i+1, i+3, i+7, … and binary-searches the last gap, so a run of
// d skipped entries costs O(log d) comparisons.
func (a *arena) gallop(s []eref, i int, k []byte) int {
	lo, hi, step := i, i, 1
	for hi < len(s) && bytes.Compare(a.key(s[hi]), k) < 0 {
		lo = hi + 1
		hi = lo + step - 1
		step *= 2
	}
	hi = min(hi, len(s))
	n, _ := slices.BinarySearchFunc(s[lo:hi], k, func(e eref, target []byte) int {
		return bytes.Compare(a.key(e), target)
	})
	return lo + n
}
