package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/store"
)

// The checkpoint parity suite: the add-only scripted workload interleaves
// with checkpoints, and every rebuild path from the same data dir — recovery
// and replica-style checkpoint bootstrap — must produce byte-identical
// stores (dictionary tables, MatchWithIDs), including when the newest
// checkpoint is corrupted away or the WAL is killed at arbitrary offsets.
//
// Earlier builds compacted the dictionary at every checkpoint: removals
// orphaned TermIDs, and each checkpoint was written without them, densely
// renumbered. The store only grows now and the writer no longer compacts,
// but those checkpoints must stay readable, so the suite also runs on a dir
// whose newest checkpoint is rewritten the way those builds wrote it.

// compactDict is the compaction pass earlier builds ran at every
// checkpoint, kept as the fixture that writes their checkpoints. It computes
// the TermIDs live in the exported graphs and, when the dictionary holds
// orphaned entries, rewrites the term table and every QuadID under the dense
// order-preserving remap newID = oldID − |dropped ≤ oldID|. Sort keys derive
// from term bytes, so bucket order survives the remap. It returns the
// inputs unchanged (nil dropped list) when nothing is reclaimable.
func compactDict(terms []rdf.Term, graphs [][]store.QuadID) ([]rdf.Term, [][]store.QuadID, []rdf.TermID) {
	live := make([]bool, len(terms)+1)
	for _, ids := range graphs {
		for _, id := range ids {
			live[id.Graph] = true
			live[id.Subject] = true
			live[id.Predicate] = true
			live[id.Object] = true
		}
	}
	var dropped []rdf.TermID
	for id := 1; id <= len(terms); id++ {
		if !live[id] {
			dropped = append(dropped, rdf.TermID(id))
		}
	}
	if len(dropped) == 0 {
		return terms, graphs, nil
	}
	remap := make([]rdf.TermID, len(terms)+1)
	shift := rdf.TermID(0)
	di := 0
	for id := rdf.TermID(1); id <= rdf.TermID(len(terms)); id++ {
		if di < len(dropped) && dropped[di] == id {
			shift++
			di++
			continue
		}
		remap[id] = id - shift
	}
	newTerms := make([]rdf.Term, 0, len(terms)-len(dropped))
	for i, t := range terms {
		if remap[i+1] != 0 {
			newTerms = append(newTerms, t)
		}
	}
	newGraphs := make([][]store.QuadID, len(graphs))
	for gi, ids := range graphs {
		out := make([]store.QuadID, len(ids))
		for i, id := range ids {
			out[i] = store.QuadID{
				Graph:     remap[id.Graph],
				Subject:   remap[id.Subject],
				Predicate: remap[id.Predicate],
				Object:    remap[id.Object],
			}
		}
		newGraphs[gi] = out
	}
	return newTerms, newGraphs, dropped
}

// encodeCompactedCheckpoint writes a checkpoint of terms and graphs at gen
// as an earlier build's compacting writer did: compacted by compactDict,
// with the header naming the dropped TermIDs under the given compaction
// epoch. It returns the bytes and the compacted dictionary and graphs.
func encodeCompactedCheckpoint(t *testing.T, gen, epoch uint64, terms []rdf.Term, graphs [][]store.QuadID) ([]byte, []rdf.Term, [][]store.QuadID) {
	t.Helper()
	terms, graphs, dropped := compactDict(terms, graphs)
	if len(dropped) == 0 {
		t.Fatal("compactDict found no orphaned TermID; the fixture would write an uncompacted checkpoint")
	}
	var buf bytes.Buffer
	if err := writeCheckpointTo(&buf, checkpointPayload{generation: gen, terms: terms, graphs: graphs}); err != nil {
		t.Fatal(err)
	}
	// Swap this build's empty header (epoch 0, origLen = nterms, ndrop 0)
	// for the compacting writer's, and drop the CRC to recompute it.
	rest := buf.Bytes()[len(checkpointMagicV2):]
	for range 3 {
		var err error
		if _, rest, err = readUvarint(rest); err != nil {
			t.Fatal(err)
		}
	}
	body := append([]byte(nil), checkpointMagicV2...)
	body = binary.AppendUvarint(body, epoch)
	body = binary.AppendUvarint(body, uint64(len(terms)+len(dropped)))
	body = binary.AppendUvarint(body, uint64(len(dropped)))
	prev := rdf.TermID(0)
	for _, id := range dropped {
		body = binary.AppendUvarint(body, uint64(id-prev))
		prev = id
	}
	body = append(body, rest[:len(rest)-4]...)
	return checkpointOf(body), terms, graphs
}

// orphanTerms interns terms that no stored quad uses, as removals did in
// earlier builds: a batch the commit hook vetoes leaves its terms in the
// append-only dictionary. The store's hook is then set to restore.
func orphanTerms(t *testing.T, s *store.Store, restore store.CommitHook) {
	t.Helper()
	veto := errors.New("vetoed")
	s.SetCommitHook(func(store.Batch) error { return veto })
	defer s.SetCommitHook(restore)
	quads := []rdf.Quad{
		rdf.Q("http://ex/orphan/s", "http://ex/orphan/p", "http://ex/orphan/o1", "http://ex/orphan/g"),
		rdf.Q("http://ex/orphan/s", "http://ex/orphan/p", "http://ex/orphan/o2", "http://ex/orphan/g"),
	}
	if _, err := s.AddAll(quads); !errors.Is(err, veto) {
		t.Fatalf("vetoed batch returned %v", err)
	}
}

// assertEmptyCompactionHeader checks that every checkpoint in dir carries
// the header this build writes: epoch 0, origLen equal to the term count,
// no dropped TermIDs.
func assertEmptyCompactionHeader(t *testing.T, dir string) {
	t.Helper()
	ckpts, err := listSeqFiles(dir, checkpointPrefix, checkpointSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range ckpts {
		data, err := os.ReadFile(ck.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, checkpointMagicV2) {
			t.Fatalf("%s: not a v2 checkpoint", filepath.Base(ck.path))
		}
		var fields [5]uint64 // epoch, origLen, ndrop, gen, nterms
		b := data[len(checkpointMagicV2):]
		for i := range fields {
			if fields[i], b, err = readUvarint(b); err != nil {
				t.Fatal(err)
			}
		}
		if fields[0] != 0 || fields[2] != 0 || fields[1] != fields[4] {
			t.Fatalf("%s: header epoch=%d origLen=%d ndrop=%d nterms=%d, want 0, nterms, 0", filepath.Base(ck.path), fields[0], fields[1], fields[2], fields[4])
		}
	}
}

// quadStrings renders an ontology's quads for order-sensitive comparison.
func quadStrings(o *core.Ontology) []string {
	quads := o.Store().Quads()
	out := make([]string, len(quads))
	for i, q := range quads {
		out[i] = q.String()
	}
	return out
}

// assertOntologyByteParity proves two independently rebuilt ontologies agree
// exactly: generation, quads, the full dictionary table (hence TermIDs) and
// MatchWithIDs output.
func assertOntologyByteParity(t *testing.T, a, b *core.Ontology, label string) {
	t.Helper()
	asn, bsn := a.Store().Snapshot(), b.Store().Snapshot()
	if asn.Generation() != bsn.Generation() {
		t.Fatalf("%s: generations %d vs %d", label, asn.Generation(), bsn.Generation())
	}
	aq, bq := asn.Quads(), bsn.Quads()
	if len(aq) != len(bq) {
		t.Fatalf("%s: %d quads vs %d", label, len(aq), len(bq))
	}
	for i := range aq {
		if aq[i].String() != bq[i].String() {
			t.Fatalf("%s: quad %d = %s vs %s", label, i, aq[i], bq[i])
		}
	}
	at, bt := asn.Dict().Terms(), bsn.Dict().Terms()
	if len(at) != len(bt) {
		t.Fatalf("%s: dict has %d terms vs %d", label, len(at), len(bt))
	}
	for i := range at {
		if !at[i].Equal(bt[i]) {
			t.Fatalf("%s: dict term %d = %v vs %v", label, i+1, at[i], bt[i])
		}
	}
	probes := []store.Pattern{
		{},
		store.WildcardGraph(nil, rdf.RDFType, nil),
		store.InGraph(core.SourceGraphName, nil, nil, nil),
		store.WildcardGraph(nil, rdf.OWLSameAs, nil),
	}
	for pi, p := range probes {
		am, bm := asn.MatchWithIDs(p), bsn.MatchWithIDs(p)
		if len(am) != len(bm) {
			t.Fatalf("%s: probe %d returned %d vs %d matches", label, pi, len(am), len(bm))
		}
		for i := range am {
			if am[i].ID != bm[i].ID {
				t.Fatalf("%s: probe %d match %d ID = %+v vs %+v", label, pi, i, am[i].ID, bm[i].ID)
			}
		}
	}
}

// bootstrapFromDir rebuilds an ontology the way a replica does: restore the
// newest checkpoint that decodes (skipping corrupt ones, like recovery), then
// replay the retained WAL through the public shipping API — DecodeFrame and
// Record.Apply under the replica's generation guard. A torn tail ends replay
// exactly where recovery stops.
func bootstrapFromDir(t *testing.T, dir string) *core.Ontology {
	t.Helper()
	ckpts, err := listSeqFiles(dir, checkpointPrefix, checkpointSuffix)
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("listing checkpoints: %v (%d found)", err, len(ckpts))
	}
	var o *core.Ontology
	for i := len(ckpts) - 1; i >= 0 && o == nil; i-- {
		data, rerr := os.ReadFile(ckpts[i].path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if restored, rerr := RestoreCheckpoint(data); rerr == nil {
			o = restored
		}
	}
	if o == nil {
		t.Fatal("no checkpoint in the dir restores")
	}
	segs, err := listSeqFiles(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, rerr := os.ReadFile(seg.path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		off := 0
		for off < len(data) {
			rec, n, derr := DecodeFrame(data[off:])
			if derr != nil {
				break // torn tail (or corrupted suffix): stop like a replica would
			}
			off += n
			cur := o.Store().Generation()
			if rec.Generation <= cur {
				continue
			}
			if rec.Generation != cur+1 {
				t.Fatalf("bootstrap: generation gap: at %d, frame publishes %d", cur, rec.Generation)
			}
			if err := rec.Apply(o); err != nil {
				t.Fatalf("bootstrap: applying frame at generation %d: %v", rec.Generation, err)
			}
		}
	}
	return o
}

// TestDictCompactionCheckpointParity interleaves the add-only scripted
// workload (releases and Global-graph edits) with randomly placed
// checkpoints, then proves recovery and replica bootstrap from the
// surviving dir agree byte-identically with each other and with the live
// primary, and that no checkpoint was written compacted.
func TestDictCompactionCheckpointParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := buildScript(t, rng)
			dir := t.TempDir()
			m, err := Open(dir, Options{Sync: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				if err := op.run(m.Ontology()); err != nil {
					t.Fatalf("op %s: %v", op.name, err)
				}
				// Random interleave, plus a guaranteed checkpoint before the
				// last op so the newest base has a WAL tail (the final
				// release) to replay on top of it.
				if rng.Intn(4) == 0 || i == len(ops)-2 {
					info, err := m.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if info.FormatVersion != 2 {
						t.Fatalf("checkpoint info = %+v, want v2", info)
					}
				}
			}
			live := m.Ontology()
			if err := m.Abort(); err != nil {
				t.Fatal(err)
			}
			assertEmptyCompactionHeader(t, dir)

			recovered, rec, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.CheckpointFormatVersion != 2 || rec.RecordsReplayed == 0 {
				t.Fatalf("recovery = %+v, want a v2 checkpoint and a replayed tail", rec)
			}
			assertOntologyByteParity(t, live, recovered, "live vs recovery")
			if fp, lfp := rewriteFingerprint(recovered), rewriteFingerprint(live); fp != lfp {
				t.Fatalf("rewriting diverged:\nrecovered: %s\nlive: %s", fp, lfp)
			}
			assertOntologyByteParity(t, recovered, bootstrapFromDir(t, dir), "recovery vs bootstrap")
		})
	}
}

// TestDictCompactionKillParity extends the crash-parity offsets to a dir
// whose newest checkpoint an earlier build wrote compacted (TermIDs
// orphaned, then dropped and the rest renumbered): the WAL tail past that
// checkpoint is killed at arbitrary offsets — and the checkpoint itself
// corrupted, as a crash mid-rewrite leaves at worst a skipped file — and
// recovery must land on a valid op prefix, logically identical to a
// from-scratch rebuild and byte-identical to a replica bootstrap of the same
// dir.
func TestDictCompactionKillParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := buildScript(t, rng)
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	baseGen := m.Ontology().Store().Generation()
	// Apply everything but the last op, orphan a few TermIDs, checkpoint,
	// then one more release so the WAL holds a replayable tail past it.
	for _, op := range ops[:len(ops)-1] {
		if err := op.run(m.Ontology()); err != nil {
			t.Fatalf("op %s: %v", op.name, err)
		}
	}
	orphanTerms(t, m.Ontology().Store(), m.onBatch)
	info, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ckptGen := info.Generation
	if err := ops[len(ops)-1].run(m.Ontology()); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the newest checkpoint as an earlier build's compacting writer
	// left it.
	ckptPath := filepath.Join(dir, checkpointName(ckptGen))
	data, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	compacted, _, _ := encodeCompactedCheckpoint(t, ck.generation, 3, ck.dict.Terms(), ck.graphs)
	if err := os.WriteFile(ckptPath, compacted, 0o644); err != nil {
		t.Fatal(err)
	}

	segs, err := listSeqFiles(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		t.Fatal(err)
	}
	lastSeg := segs[len(segs)-1]
	fi, err := os.Stat(lastSeg.path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	trial := func(name string, mutate func(tdir string)) {
		tdir := copyDir(t, dir)
		mutate(tdir)
		recovered, rec, err := Inspect(tdir)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", name, err)
		}
		gen := recovered.Store().Generation()
		if gen < baseGen {
			t.Fatalf("%s: recovered generation %d below the baseline %d", name, gen, baseGen)
		}
		if rec.CheckpointsSkipped == 0 && gen < ckptGen {
			t.Fatalf("%s: recovered generation %d below the intact checkpoint %d", name, gen, ckptGen)
		}
		// Logical parity with the from-scratch rebuild of the surviving prefix.
		expected := rebuildAt(t, ops, gen, nil)
		if got, want := quadStrings(recovered), quadStrings(expected); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recovered quads diverged from the prefix rebuild", name)
		}
		if fp, wfp := rewriteFingerprint(recovered), rewriteFingerprint(expected); fp != wfp {
			t.Fatalf("%s: rewriting diverged:\n got: %s\nwant: %s", name, fp, wfp)
		}
		// Byte parity with a replica bootstrap of the same mutated dir.
		assertOntologyByteParity(t, recovered, bootstrapFromDir(t, tdir), name+": recovery vs bootstrap")
	}

	offsets := []int64{0, size}
	for i := 0; i < 6; i++ {
		offsets = append(offsets, rng.Int63n(size+1))
	}
	for _, off := range offsets {
		trial(fmt.Sprintf("truncate@%d", off), func(tdir string) {
			if err := os.Truncate(filepath.Join(tdir, filepath.Base(lastSeg.path)), off); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Kill the compacted checkpoint itself: recovery and bootstrap both fall
	// back to the previous base and replay the full WAL.
	trial("corrupt-compacted-checkpoint", func(tdir string) {
		path := filepath.Join(tdir, checkpointName(ckptGen))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x5a
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCompactedCheckpointReadable pins that a checkpoint an earlier build
// compacted (dropped TermIDs listed in its header) restores to exactly the
// quads and TermIDs it stores — shipped to a replica, recovered from a data
// dir, and once that dir is opened and checkpointed again, rewritten with
// this build's empty header and the same TermIDs.
func TestCompactedCheckpointReadable(t *testing.T) {
	o, err := core.BuildSupersedeOntology(false)
	if err != nil {
		t.Fatal(err)
	}
	orphanTerms(t, o.Store(), nil)
	if _, err := o.NewRelease(core.SupersedeReleaseW4()); err != nil {
		t.Fatal(err)
	}
	sn := o.Store().Snapshot()
	data, terms, graphs := encodeCompactedCheckpoint(t, sn.Generation(), 1, sn.Dict().Terms(), sn.ExportGraphIDs())
	if len(terms) >= sn.Dict().Len() {
		t.Fatalf("compacted dictionary has %d terms, live %d; nothing was dropped", len(terms), sn.Dict().Len())
	}
	// checkStores asserts got holds o's quads under the compacted TermIDs.
	checkStores := func(label string, got *core.Ontology) {
		t.Helper()
		gsn := got.Store().Snapshot()
		if gsn.Generation() != sn.Generation() {
			t.Fatalf("%s: generation %d, want %d", label, gsn.Generation(), sn.Generation())
		}
		quadsEqual(t, gsn.Quads(), sn.Quads())
		if gt := gsn.Dict().Terms(); !reflect.DeepEqual(gt, terms) {
			t.Fatalf("%s: dictionary has %d terms, the checkpoint stores %d", label, len(gt), len(terms))
		}
		var want []store.QuadID
		for _, ids := range graphs {
			want = append(want, ids...)
		}
		var ids []store.QuadID
		for _, mq := range gsn.MatchWithIDs(store.Pattern{}) {
			ids = append(ids, mq.ID)
		}
		if !reflect.DeepEqual(ids, want) {
			t.Fatalf("%s: MatchWithIDs returns other TermIDs than the checkpoint stores", label)
		}
	}

	shipped, err := RestoreCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	checkStores("shipped", shipped)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointName(sn.Generation())), data, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointFormatVersion != 2 || rec.CheckpointQuads != sn.Len() {
		t.Fatalf("recovery = %+v, want the v2 checkpoint's %d quads", rec, sn.Len())
	}
	checkStores("recovered", recovered)

	m, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // writes a checkpoint of the same generation
		t.Fatal(err)
	}
	assertEmptyCompactionHeader(t, dir)
	rewritten, _, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkStores("rewritten", rewritten)
}

// encodeCheckpointV1 writes the version-1 checkpoint layout (no compaction
// header), byte-for-byte what pre-compaction builds produced, span section
// included.
func encodeCheckpointV1(sn store.Snapshot, terms []rdf.Term, spans []legacySpan) []byte {
	buf := append([]byte(nil), checkpointMagicV1...)
	buf = binary.AppendUvarint(buf, sn.Generation())
	buf = binary.AppendUvarint(buf, uint64(len(terms)))
	for _, t := range terms {
		buf = rdf.AppendTerm(buf, t)
	}
	graphs := sn.ExportGraphIDs()
	buf = binary.AppendUvarint(buf, uint64(len(graphs)))
	for _, ids := range graphs {
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		for _, id := range ids {
			buf = binary.AppendUvarint(buf, uint64(id.Graph))
			buf = binary.AppendUvarint(buf, uint64(id.Subject))
			buf = binary.AppendUvarint(buf, uint64(id.Predicate))
			buf = binary.AppendUvarint(buf, uint64(id.Object))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	for _, sp := range spans {
		buf = appendLegacySpan(buf, sp)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(buf, castagnoli))
	return append(buf, tail[:]...)
}

// TestCheckpointV1Compatibility pins the upgrade path: a version-1 checkpoint
// still decodes and recovers with its TermIDs preserved, Open reports the
// loaded format version, and the next checkpoint rewrites the dir as v2
// under the same TermIDs.
func TestCheckpointV1Compatibility(t *testing.T) {
	o := core.NewOntology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	spans := []legacySpan{releaseSpan(t, o, core.SupersedeReleaseW1())}
	sn := o.Store().Snapshot()
	terms := sn.Dict().Terms()
	data := encodeCheckpointV1(sn, terms, spans)

	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decoding a v1 checkpoint: %v", err)
	}
	if ck.version != 1 {
		t.Fatalf("v1 decode: version=%d, want 1", ck.version)
	}
	restored, err := store.Restore(ck.dict, ck.generation, ck.graphs)
	if err != nil {
		t.Fatal(err)
	}
	quadsEqual(t, restored.Quads(), o.Store().Quads())
	assertTermsEqual := func(label string, got []rdf.Term) {
		t.Helper()
		if len(got) != len(terms) {
			t.Fatalf("%s: dict has %d terms, want %d", label, len(got), len(terms))
		}
		for i := range got {
			if !got[i].Equal(terms[i]) {
				t.Fatalf("%s: dict term %d = %v, want %v (v1 TermIDs must be preserved)", label, i+1, got[i], terms[i])
			}
		}
	}
	assertTermsEqual("restored", restored.Snapshot().Dict().Terms())

	// Full lifecycle: a dir holding only the v1 file opens, reports the
	// format, journals new writes, and upgrades on its next checkpoint.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointName(sn.Generation())), data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatalf("opening a v1 data dir: %v", err)
	}
	rec := m.Recovery()
	if rec.CheckpointFormatVersion != 1 {
		t.Fatalf("recovery format version = %d, want 1", rec.CheckpointFormatVersion)
	}
	if rec.CheckpointGeneration != sn.Generation() || rec.CheckpointQuads != sn.Len() {
		t.Fatalf("recovery info %+v does not match the v1 checkpoint", rec)
	}
	quadsEqual(t, m.Ontology().Store().Quads(), o.Store().Quads())
	info, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.FormatVersion != 2 {
		t.Fatalf("rewritten checkpoint format = %d, want 2", info.FormatVersion)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	assertEmptyCompactionHeader(t, dir)
	upgraded, rec2, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.CheckpointFormatVersion != 2 {
		t.Fatalf("post-upgrade recovery format version = %d, want 2", rec2.CheckpointFormatVersion)
	}
	assertTermsEqual("upgraded", upgraded.Store().Snapshot().Dict().Terms())
}
