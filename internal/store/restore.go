package store

import (
	"bytes"
	"fmt"

	"bdi/internal/rdf"
)

// This file is the store side of the durability subsystem (internal/wal):
// exporting a pinned snapshot in dictionary-ID space for a checkpoint, and
// rebuilding a store from a decoded checkpoint without paying the write
// path's copy-on-write bookkeeping.

// ExportGraphIDs dumps the snapshot's quads in dictionary-ID space: one
// []QuadID per non-empty graph (the default graph included), graphs in
// ascending name order and quads in ascending sort-key order — exactly the
// order Restore expects. Together with the snapshot dictionary's term table
// (Dict().Terms()) this is a complete, compact serialization of the
// snapshot: 16 bytes per quad plus the dictionary.
func (sn Snapshot) ExportGraphIDs() [][]QuadID {
	if sn.sn == nil {
		return nil
	}
	out := make([][]QuadID, len(sn.sn.graphs))
	for i, gb := range sn.sn.graphs {
		ids := make([]QuadID, len(gb.entries))
		for j, e := range gb.entries {
			ids[j] = sn.sn.slot(e).id
		}
		out[i] = ids
	}
	return out
}

// Restore rebuilds a store from a checkpoint: the dictionary (whose term
// table was restored with rdf.NewDictFromTerms, so TermIDs match the
// serialized QuadIDs), the generation the snapshot was pinned at, and the
// per-graph quad IDs as produced by ExportGraphIDs. Sort keys are
// regenerated from the dictionary and the input order is verified against
// them, so a corrupt or reordered checkpoint is rejected rather than
// silently building unsorted buckets. The whole load is one snapshot
// publication built with plain appends into a fresh arena — no per-batch
// copy-on-write, no bucket merges. The restored store's generation log
// starts at generation: Snapshot.Inserted answers for later ones only.
func Restore(d *rdf.Dict, generation uint64, graphs [][]QuadID) (*Store, error) {
	if d == nil {
		d = rdf.NewDict()
	}
	total := 0
	for _, ids := range graphs {
		total += len(ids)
	}
	ar := newArena()
	kv := d.KeysView()
	ents := make([]eref, 0, total)
	quads := make(map[QuadID]eref, total)
	var keyBuf []byte
	prevName := rdf.IRI("")
	for gi, ids := range graphs {
		if len(ids) == 0 {
			return nil, fmt.Errorf("store: restore: graph %d is empty", gi)
		}
		gid := ids[0].Graph
		gname, err := restoreGraphName(d, gid)
		if err != nil {
			return nil, err
		}
		if len(ents) > 0 && string(gname) <= string(prevName) {
			return nil, fmt.Errorf("store: restore: graph %q out of order (after %q)", gname, prevName)
		}
		prevName = gname
		for _, id := range ids {
			if id.Graph != gid {
				return nil, fmt.Errorf("store: restore: quad %v filed under graph %q", id, gname)
			}
			if _, err := restoreQuad(d, id, gname); err != nil {
				return nil, err
			}
			keyBuf = appendSortKeyView(keyBuf[:0], kv, gname, id)
			if len(ents) > 0 && bytes.Compare(keyBuf, ar.key(ents[len(ents)-1])) <= 0 {
				return nil, fmt.Errorf("store: restore: quad %v out of sort order in graph %q", id, gname)
			}
			if _, dup := quads[id]; dup {
				return nil, fmt.Errorf("store: restore: duplicate quad %v", id)
			}
			e := ar.add(id, keyBuf)
			quads[id] = e
			ents = append(ents, e)
		}
	}
	s := &Store{quads: quads, ar: ar}
	sn := newSnapshotFromSorted(d, generation, ar, ents)
	sn.base = generation
	s.snap.Store(sn)
	return s, nil
}

// appendSortKeyView is appendSortKey resolving term keys through a
// pre-captured lock-free key view (the dictionary is fully built before a
// restore starts, so the view covers every id).
func appendSortKeyView(dst []byte, kv rdf.KeyView, graph rdf.IRI, id QuadID) []byte {
	dst = append(dst, string(graph)...)
	dst = append(dst, 0)
	dst, _ = kv.Append(dst, id.Subject)
	dst = append(dst, 0)
	dst, _ = kv.Append(dst, id.Predicate)
	dst = append(dst, 0)
	dst, _ = kv.Append(dst, id.Object)
	return dst
}

func restoreGraphName(d *rdf.Dict, gid rdf.TermID) (rdf.IRI, error) {
	t, ok := d.Term(gid)
	if !ok {
		return "", fmt.Errorf("store: restore: graph TermID %d not in dictionary", gid)
	}
	name, ok := t.(rdf.IRI)
	if !ok {
		return "", fmt.Errorf("store: restore: graph term %v is not an IRI", t)
	}
	return name, nil
}

// restoreQuad materializes a quad from its dictionary encoding and validates
// it as a data quad.
func restoreQuad(d *rdf.Dict, id QuadID, graph rdf.IRI) (rdf.Quad, error) {
	sub, ok := d.Term(id.Subject)
	if !ok {
		return rdf.Quad{}, fmt.Errorf("store: restore: subject TermID %d not in dictionary", id.Subject)
	}
	pred, ok := d.Term(id.Predicate)
	if !ok {
		return rdf.Quad{}, fmt.Errorf("store: restore: predicate TermID %d not in dictionary", id.Predicate)
	}
	obj, ok := d.Term(id.Object)
	if !ok {
		return rdf.Quad{}, fmt.Errorf("store: restore: object TermID %d not in dictionary", id.Object)
	}
	q := rdf.Quad{Triple: rdf.Triple{Subject: sub, Predicate: pred, Object: obj}, Graph: graph}
	if err := q.Validate(); err != nil {
		return rdf.Quad{}, fmt.Errorf("store: restore: %w", err)
	}
	return q, nil
}

// newSnapshotFromSorted builds a complete snapshot from arena entries in
// ascending global sort-key order. The sort key is graph-name-prefixed, so
// the entries of each graph are contiguous and graphs appear in ascending
// name order; appending entries in input order therefore leaves every union
// index bucket and graph bucket sorted without a single merge or
// copy-on-write step. The empty-store AddAll fast path and checkpoint
// Restore use it.
func newSnapshotFromSorted(d *rdf.Dict, generation uint64, ar *arena, ents []eref) *snapshot {
	sn := emptySnapshot(d, ar)
	sn.generation = generation
	sn.size = len(ents)
	for i := 0; i < len(ents); {
		gid := ar.slot(ents[i]).id.Graph
		j := i
		for j < len(ents) && ar.slot(ents[j]).id.Graph == gid {
			j++
		}
		sn.graphs = append(sn.graphs, &graphBucket{
			name:    graphName(d, gid),
			entries: append([]eref(nil), ents[i:j]...),
		})
		i = j
	}
	for _, e := range ents {
		id := ar.slot(e).id
		appendToBucket(sn.bySubject, id.Subject, e)
		appendToBucket(sn.byObject, id.Object, e)
	}
	return sn
}

// appendToBucket appends e to the index's tid bucket, creating pages as
// needed and maintaining the distinct-term count. Used by the sorted bulk
// build, which appends in ascending sort-key order.
func appendToBucket(ti *termIndex, tid rdf.TermID, e eref) {
	pi := int(tid >> pageBits)
	for len(ti.pages) <= pi {
		ti.pages = append(ti.pages, nil)
	}
	pg := ti.pages[pi]
	if pg == nil {
		pg = &indexPage{}
		ti.pages[pi] = pg
	}
	if len(pg[tid&pageMask]) == 0 {
		ti.count++
	}
	pg[tid&pageMask] = append(pg[tid&pageMask], e)
}
