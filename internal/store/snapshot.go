package store

import (
	"slices"
	"sort"
	"strings"

	"bdi/internal/rdf"
	"bdi/internal/slab"
)

// The read side of the store is an immutable, generation-tagged snapshot.
// Writers build a new snapshot by copy-on-writing exactly the structures a
// mutation touches (the union index headers, one page per touched term, the
// touched buckets themselves) and publish it with a single atomic store;
// readers pin a snapshot with one atomic load and then run without any lock,
// mutex or retry loop. Everything reachable from a published snapshot is
// immutable forever, so a pinned snapshot is a consistent point-in-time view:
// two probes against the same Snapshot can never observe different store
// states, no matter how many writers run concurrently.
//
// Quads are not stored as individual heap objects. The stored form of a quad
// is a pointer-free entrySlot (its QuadID plus the offset of its sort key in
// a byte slab) packed into a chunked arena (see bdi/internal/slab), and every
// index bucket is a []eref — plain uint32 arena indexes. A snapshot holds
// views (cloned chunk tables) of the arena, so the entire quad payload of a
// 100k-quad store is a few dozen large noscan arrays instead of hundreds of
// thousands of GC-scanned pointers; the collector's mark phase no longer
// grows with the number of quads.
//
// Index buckets are kept permanently sorted by the quad's precomputed sort
// key. Ordered matching therefore never sorts: a probe bound by one subject,
// object or graph is a zero-copy hand-out of the immutable bucket itself,
// and every other probe filters a bucket (or the full scan) without
// disturbing the order. The cost moved to the write side — inserting into a
// bucket is O(bucket) — which is the trade the read-dominated
// query-answering workload of the paper wants.
//
// There is one family of per-term indexes, by subject and by object, over
// the union of all graphs. A sort key starts with the graph name, so the
// entries of one graph form one contiguous run of every union bucket: a
// graph-scoped probe reads the same union bucket an unscoped probe reads and
// binary-searches its graph's run. Nothing is derived per graph, so a write
// never turns into a rebuild for the next reader. There is no predicate
// index: the only production probe that binds a predicate alone is
// graph-scoped, and a predicate's bucket would hold every quad using it, so
// keeping it would make each batch copy a bucket that grows with the store.

// eref is an index into the store's entry arena: the stored identity of one
// quad. Buckets hold erefs instead of pointers, which keeps them invisible
// to the garbage collector.
type eref = uint32

// entrySlot is the pointer-free stored representation of a quad: its
// dictionary encoding and the arena address of its precomputed sort key.
// Slots are immutable once referenced by a published snapshot.
type entrySlot struct {
	id  QuadID
	key slab.Ref
}

// pageBits sizes the termIndex pages: 1<<pageBits buckets per page. Pages
// are the COW granularity of the per-term indexes: small enough (32 slice
// headers, 768 B) that a writer's first touch of a page is a cheap copy,
// large enough that the page table stays compact for dense TermID ranges.
const (
	pageBits = 5
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// indexPage holds the buckets of pageSize consecutive TermIDs.
type indexPage [pageSize][]eref

// termIndex maps a TermID to its sorted entry bucket through a paged array:
// TermIDs are dense (the dictionary assigns them sequentially from 1), so
// pages[id>>pageBits][id&pageMask] resolves a bucket with two dereferences
// and no hashing. count tracks the number of non-empty buckets (distinct
// terms).
type termIndex struct {
	pages []*indexPage
	count int
}

// bucket returns the sorted entry bucket of the given term, or nil. Safe on
// a nil index.
func (ti *termIndex) bucket(id rdf.TermID) []eref {
	if ti == nil {
		return nil
	}
	p := int(id >> pageBits)
	if p >= len(ti.pages) || ti.pages[p] == nil {
		return nil
	}
	return ti.pages[p][id&pageMask]
}

// Dimensions of the per-term indexes.
const (
	dimSubject = iota
	dimObject
)

// dim returns the TermID of the given index dimension.
func (id QuadID) dim(d int) rdf.TermID {
	if d == dimSubject {
		return id.Subject
	}
	return id.Object
}

// graphBucket is the sorted entry list of one graph (named or default).
type graphBucket struct {
	name    rdf.IRI
	entries []eref // ascending sort-key order
}

// snapshot is one immutable generation of the store. All fields, and
// everything reachable from them, are frozen once the snapshot is published.
type snapshot struct {
	// dict interns every term appearing in this snapshot. The dictionary is
	// append-only and safe for concurrent use, so it is shared between the
	// writer and every live snapshot.
	dict *rdf.Dict

	generation uint64
	size       int

	// slots and keys are views of the store's entry arena, pinned at
	// publication time. Every eref reachable from this snapshot resolves
	// through them. The arena holds exactly the published quads: slots
	// [0, size) are this snapshot's, in insertion order after the base.
	slots slab.SlotsView[entrySlot]
	keys  slab.BytesView

	// base is the generation the store was created or restored at, and
	// starts[i] the first slot of generation base+1+i; the last generation's
	// range ends at size. The writer appends to the backing array this
	// snapshot shares, never within its length.
	base   uint64
	starts []eref

	// graphs holds one sorted bucket per non-empty graph, in ascending
	// graph-name order. A quad's sort key is prefixed by its graph name, so
	// concatenating these buckets in slice order yields the full store in
	// global sort order — full scans never sort. A graph's position is
	// found by binary search on its name (see graphPos).
	graphs []*graphBucket

	// Union-of-all-graphs per-term indexes, one per dimension, maintained
	// by the writer. The default graph is included like any other graph.
	// Graph-scoped probes read them too and filter on the graph.
	bySubject *termIndex
	byObject  *termIndex
}

// graphPos returns the position of the named graph's bucket in graphs, and
// whether the graph has one.
func (s *snapshot) graphPos(name rdf.IRI) (int, bool) {
	return slices.BinarySearchFunc(s.graphs, name, cmpGraphName)
}

// cmpGraphName orders a graph bucket against a graph name.
func cmpGraphName(g *graphBucket, name rdf.IRI) int {
	return strings.Compare(string(g.name), string(name))
}

// slot resolves an eref against this snapshot's arena view.
func (s *snapshot) slot(e eref) *entrySlot { return s.slots.At(e) }

// key resolves an entry's sort-key bytes against this snapshot's arena view.
func (s *snapshot) key(e eref) []byte { return s.keys.Bytes(s.slot(e).key) }

// quadOf materializes a quad from its dictionary encoding. terms is the
// dictionary's term table (dict.Terms()), resolved once per materializing
// call so per-quad resolution is two array reads.
func quadOf(terms []rdf.Term, id QuadID) rdf.Quad {
	g, _ := terms[id.Graph-1].(rdf.IRI)
	return rdf.Quad{
		Triple: rdf.Triple{
			Subject:   terms[id.Subject-1],
			Predicate: terms[id.Predicate-1],
			Object:    terms[id.Object-1],
		},
		Graph: g,
	}
}

// emptySnapshot returns the snapshot of an empty store over the given
// dictionary and arena.
func emptySnapshot(d *rdf.Dict, ar *arena) *snapshot {
	return &snapshot{
		dict:      d,
		slots:     ar.slots.View(),
		keys:      ar.keys.View(),
		bySubject: &termIndex{},
		byObject:  &termIndex{},
	}
}

// Snapshot is a pinned, immutable, point-in-time view of a Store. The zero
// value is an empty snapshot. Snapshots are cheap (one pointer), safe for
// concurrent use, and answer every read the Store itself answers — Store's
// read methods are thin wrappers that pin a fresh Snapshot per call.
// Consumers that issue several related probes (a rewriting run, a
// memoized ontology lookup, a checkpoint) should pin one Snapshot and probe it
// throughout, so the whole operation observes a single generation even while
// writers publish new ones.
type Snapshot struct {
	sn *snapshot
}

// Snapshot pins the store's current state: one atomic load, no lock.
func (s *Store) Snapshot() Snapshot {
	return Snapshot{sn: s.snap.Load()}
}

// Generation returns the mutation counter of the pinned state. Two
// Snapshots of the same Store with equal generations are views of identical
// content.
func (sn Snapshot) Generation() uint64 {
	if sn.sn == nil {
		return 0
	}
	return sn.sn.generation
}

// Inserted returns the quads generation g inserted, in insertion order. It
// reports false unless g is in (base, Generation()], where base is the
// generation the store was created (New) or restored (Restore) at.
func (sn Snapshot) Inserted(g uint64) ([]rdf.Quad, bool) {
	s := sn.sn
	if s == nil || g <= s.base || g > s.generation {
		return nil, false
	}
	i := g - s.base - 1
	from, to := s.starts[i], eref(s.size)
	if i+1 < uint64(len(s.starts)) {
		to = s.starts[i+1]
	}
	terms := s.dict.Terms()
	out := make([]rdf.Quad, 0, to-from)
	for e := from; e < to; e++ {
		out = append(out, quadOf(terms, s.slot(e).id))
	}
	return out, true
}

// Dict returns the term dictionary backing this snapshot. It is append-only
// and safe for concurrent use; TermIDs resolved against it remain valid for
// the snapshot's lifetime and every later one.
func (sn Snapshot) Dict() *rdf.Dict {
	if sn.sn == nil {
		return nil
	}
	return sn.sn.dict
}

// Len returns the number of quads in the snapshot.
func (sn Snapshot) Len() int {
	if sn.sn == nil {
		return 0
	}
	return sn.sn.size
}

// GraphLen returns the number of quads in the given named graph ("" is the
// default graph).
func (sn Snapshot) GraphLen(graph rdf.IRI) int {
	if sn.sn == nil {
		return 0
	}
	if pos, ok := sn.sn.graphPos(graph); ok {
		return len(sn.sn.graphs[pos].entries)
	}
	return 0
}

// Graphs returns the names of all non-empty named graphs, sorted. The
// default graph is not included.
func (sn Snapshot) Graphs() []rdf.IRI {
	if sn.sn == nil {
		return nil
	}
	var out []rdf.IRI
	for _, gb := range sn.sn.graphs {
		if gb.name != "" {
			out = append(out, gb.name)
		}
	}
	return out
}

// Contains reports whether the exact quad is present. The probe scans the
// smaller of the quad's union subject and object buckets, so hub subjects (a
// wrapper with hundreds of attribute triples) are looked up through their far
// more selective object side.
func (sn Snapshot) Contains(q rdf.Quad) bool {
	if sn.sn == nil {
		return false
	}
	s := sn.sn
	id, ok := quadID(s.dict, q)
	if !ok {
		return false
	}
	b := s.bySubject.bucket(id.Subject)
	if o := s.byObject.bucket(id.Object); len(o) < len(b) {
		b = o
	}
	for _, e := range b {
		if s.slot(e).id == id {
			return true
		}
	}
	return false
}

// ContainsTriple reports whether the triple is present in the given graph.
func (sn Snapshot) ContainsTriple(graph rdf.IRI, t rdf.Triple) bool {
	return sn.Contains(rdf.Quad{Triple: t, Graph: graph})
}

// Match returns all quads matching the pattern, in deterministic order
// (ascending ⟨graph, subject, predicate, object⟩ term-key order). Variables
// in the pattern are treated as wildcards. Quads are materialized from the
// dictionary's canonical term table, so literals come back in canonical form
// (an empty datatype reads back as xsd:string, mirroring rdf.Literal.Equal).
func (sn Snapshot) Match(p Pattern) []rdf.Quad {
	entries := sn.matchEntries(p)
	if len(entries) == 0 {
		return nil
	}
	terms := sn.sn.dict.Terms()
	out := make([]rdf.Quad, len(entries))
	for i, e := range entries {
		out[i] = quadOf(terms, sn.sn.slot(e).id)
	}
	return out
}

// MatchWithIDs is Match, additionally reporting each quad's dictionary
// encoding so consumers can dedupe and join on integer IDs.
func (sn Snapshot) MatchWithIDs(p Pattern) []MatchedQuad {
	entries := sn.matchEntries(p)
	if len(entries) == 0 {
		return nil
	}
	terms := sn.sn.dict.Terms()
	out := make([]MatchedQuad, len(entries))
	for i, e := range entries {
		id := sn.sn.slot(e).id
		out[i] = MatchedQuad{Quad: quadOf(terms, id), ID: id}
	}
	return out
}

// GraphsContaining returns the names of all named graphs that contain the
// given triple. This implements the SPARQL `GRAPH ?g { ... }` lookups used
// by the rewriting algorithms to resolve LAV mappings (Algorithm 4 line 8
// and Algorithm 5 lines 9-10).
func (sn Snapshot) GraphsContaining(t rdf.Triple) []rdf.IRI {
	entries := sn.matchEntries(WildcardGraph(t.Subject, t.Predicate, t.Object))
	if len(entries) == 0 {
		return nil
	}
	terms := sn.sn.dict.Terms()
	seen := map[rdf.TermID]bool{}
	var out []rdf.IRI
	// Entries are sorted by quad sort key, whose leading component is the
	// graph name, so the output is already in ascending graph order.
	for _, e := range entries {
		gid := sn.sn.slot(e).id.Graph
		if seen[gid] {
			continue
		}
		seen[gid] = true
		if g, _ := terms[gid-1].(rdf.IRI); g != "" {
			out = append(out, g)
		}
	}
	return out
}

// NamedGraph materializes the contents of a named graph as a rdf.Graph
// value.
func (sn Snapshot) NamedGraph(name rdf.IRI) *rdf.Graph {
	g := rdf.NewGraph(name)
	quads := sn.Match(InGraph(name, nil, nil, nil))
	if len(quads) > 0 {
		g.Triples = make([]rdf.Triple, len(quads))
		for i, q := range quads {
			g.Triples[i] = q.Triple
		}
	}
	return g
}

// Quads returns a snapshot of every quad in the store, sorted.
func (sn Snapshot) Quads() []rdf.Quad {
	return sn.Match(Pattern{})
}

// Stats returns summary statistics for the snapshot.
func (sn Snapshot) Stats() Stats {
	if sn.sn == nil {
		return Stats{}
	}
	st := Stats{
		Quads:            sn.sn.size,
		DistinctSubjects: sn.sn.bySubject.count,
		DistinctObjects:  sn.sn.byObject.count,
	}
	for _, gb := range sn.sn.graphs {
		if gb.name == "" {
			st.DefaultGraphQuads = len(gb.entries)
		} else {
			st.NamedGraphs++
		}
	}
	return st
}

// matchEntries returns the erefs matching p in ascending sort-key order.
// The probe reads the union bucket of its subject, else of its object —
// narrowed to its graph's run when it binds one — else the entry list of
// its graph; a probe that binds none of them (at most a predicate) reads the
// full scan. Buckets are immutable and pre-sorted, so whenever the selected
// bucket needs no residual filtering it is returned without a copy; callers
// must treat the result as read-only.
func (sn Snapshot) matchEntries(p Pattern) []eref {
	if sn.sn == nil {
		return nil
	}
	s := sn.sn
	ip, ok := encodePattern(s.dict, p)
	if !ok {
		return nil
	}
	var bucket []eref
	switch {
	case ip.Subject != 0:
		bucket = s.bySubject.bucket(ip.Subject)
	case ip.Object != 0:
		bucket = s.byObject.bucket(ip.Object)
	case ip.GraphSet:
		if pos, ok := s.graphPos(p.Graph); ok {
			bucket = s.graphs[pos].entries
		}
	case ip.Predicate == 0:
		// Nothing bound: the whole store, in global order.
		out := make([]eref, 0, s.size)
		for _, gb := range s.graphs {
			out = append(out, gb.entries...)
		}
		return out
	default:
		// Only the predicate bound: the full scan, filtered.
		var out []eref
		for _, gb := range s.graphs {
			out = s.appendMatching(out, gb.entries, ip)
		}
		return out
	}
	if ip.GraphSet && (ip.Subject != 0 || ip.Object != 0) {
		bucket = s.graphRun(bucket, string(p.Graph))
		ip.GraphSet = false
	}
	if !residualFilter(ip) {
		return bucket
	}
	return s.appendMatching(nil, bucket, ip)
}

// graphRun returns the entries of graph g in a sorted bucket: a sort key
// starts with its graph's name and a NUL, so they are one contiguous run,
// found by two binary searches.
func (s *snapshot) graphRun(bucket []eref, g string) []eref {
	lo := sort.Search(len(bucket), func(i int) bool { return graphOrder(s.key(bucket[i]), g) >= 0 })
	n := sort.Search(len(bucket)-lo, func(i int) bool { return graphOrder(s.key(bucket[lo+i]), g) > 0 })
	return bucket[lo : lo+n]
}

// graphOrder orders a sort key against the run of graph g's keys: -1
// before it, 0 in it, +1 after it.
func graphOrder(key []byte, g string) int {
	n := min(len(key), len(g))
	switch h := g[:n]; {
	case string(key[:n]) < h:
		return -1
	case string(key[:n]) > h:
		return 1
	case len(key) == n:
		return -1 // a prefix of g sorts before g's NUL-terminated name
	case key[n] == 0:
		return 0
	default:
		return 1
	}
}

// appendMatching appends the entries of bucket that match p to out.
func (s *snapshot) appendMatching(out, bucket []eref, p idPattern) []eref {
	for _, e := range bucket {
		if idMatches(s.slot(e).id, p) {
			out = append(out, e)
		}
	}
	return out
}

// residualFilter reports whether a bucket candidate can fail idMatches,
// i.e. whether the pattern binds more than the term or graph the bucket was
// selected by.
func residualFilter(p idPattern) bool {
	bound := 0
	if p.GraphSet {
		bound++
	}
	if p.Subject != 0 {
		bound++
	}
	if p.Predicate != 0 {
		bound++
	}
	if p.Object != 0 {
		bound++
	}
	return bound > 1
}

// idMatches applies the residual graph and term filter to a bucket
// candidate.
func idMatches(id QuadID, p idPattern) bool {
	return (!p.GraphSet || id.Graph == p.Graph) &&
		(p.Subject == 0 || id.Subject == p.Subject) &&
		(p.Predicate == 0 || id.Predicate == p.Predicate) &&
		(p.Object == 0 || id.Object == p.Object)
}

// idPattern is a quad pattern expressed in dictionary TermIDs, the form
// every Match resolves to: 0 terms act as wildcards, and GraphSet restricts
// matching to the graph with ID Graph.
type idPattern struct {
	Subject   rdf.TermID
	Predicate rdf.TermID
	Object    rdf.TermID
	Graph     rdf.TermID
	GraphSet  bool
}

// encodePattern resolves a term pattern to its dictionary encoding. The
// second result is false when a constant has never been interned, in which
// case the pattern cannot match any stored quad.
func encodePattern(d *rdf.Dict, p Pattern) (idPattern, bool) {
	sTerm := wildcardIfVar(p.Subject)
	pTerm := wildcardIfVar(p.Predicate)
	oTerm := wildcardIfVar(p.Object)

	var ip idPattern
	var ok bool
	if sTerm != nil {
		if ip.Subject, ok = d.Lookup(sTerm); !ok {
			return idPattern{}, false
		}
	}
	if pTerm != nil {
		if ip.Predicate, ok = d.Lookup(pTerm); !ok {
			return idPattern{}, false
		}
	}
	if oTerm != nil {
		if ip.Object, ok = d.Lookup(oTerm); !ok {
			return idPattern{}, false
		}
	}
	if p.GraphSet {
		ip.GraphSet = true
		if ip.Graph, ok = d.Lookup(p.Graph); !ok {
			return idPattern{}, false
		}
	}
	return ip, true
}

// quadID resolves the dictionary encoding of q without interning. The
// second result is false when any term has never been seen, in which case
// the quad cannot be present.
func quadID(d *rdf.Dict, q rdf.Quad) (QuadID, bool) {
	gid, ok := d.Lookup(q.Graph)
	if !ok {
		return QuadID{}, false
	}
	sid, ok := d.Lookup(q.Subject)
	if !ok {
		return QuadID{}, false
	}
	pid, ok := d.Lookup(q.Predicate)
	if !ok {
		return QuadID{}, false
	}
	oid, ok := d.Lookup(q.Object)
	if !ok {
		return QuadID{}, false
	}
	return QuadID{Graph: gid, Subject: sid, Predicate: pid, Object: oid}, true
}
