package wal

import (
	"encoding/binary"
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

// The dictionary-compaction parity suite: workloads interleave removals
// (which orphan TermIDs — the dictionary is append-only) with compacting
// checkpoints, and every rebuild path from the same data dir — recovery and
// replica-style checkpoint bootstrap — must produce byte-identical stores
// under the densely remapped IDs, including when the newest (compacted)
// checkpoint is corrupted away or the WAL is killed at arbitrary offsets.

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

// TestDictCompactionCheckpointParity interleaves the scripted workload
// (removals and re-registrations included) with randomly placed compacting
// checkpoints, then proves recovery and replica bootstrap from the surviving
// dir agree byte-identically with each other and logically with the live
// primary — whose dictionary stays sparse until restart.
func TestDictCompactionCheckpointParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := buildScript(t, rng)
			dir := t.TempDir()
			m, err := Open(dir, Options{Sync: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			reclaimedTotal := 0
			var lastInfo CheckpointInfo
			for i, op := range ops {
				if err := op.run(m.Ontology()); err != nil {
					t.Fatalf("op %s: %v", op.name, err)
				}
				// Random interleave, plus a guaranteed checkpoint right after
				// the removal ops so the compacted base has a WAL tail (the
				// final release) to replay on top of it.
				if rng.Intn(4) == 0 || i == len(ops)-2 {
					info, err := m.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					reclaimedTotal += info.DictIDsReclaimed
					lastInfo = info
				}
			}
			if reclaimedTotal == 0 {
				t.Fatal("no checkpoint reclaimed a TermID; compaction never fired")
			}
			if lastInfo.FormatVersion != 2 || lastInfo.CompactionEpoch == 0 {
				t.Fatalf("last checkpoint info = %+v, want v2 with a nonzero epoch", lastInfo)
			}
			liveQuads := quadStrings(m.Ontology())
			liveFP := rewriteFingerprint(m.Ontology())
			liveDictLen := m.Ontology().Store().Snapshot().Dict().Len()
			if err := m.Abort(); err != nil {
				t.Fatal(err)
			}

			recovered, rec, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.CheckpointFormatVersion != 2 {
				t.Fatalf("recovery loaded a v%d checkpoint, want v2", rec.CheckpointFormatVersion)
			}
			if rec.DictIDsReclaimed == 0 {
				t.Fatal("recovery reports no reclaimed IDs; the newest checkpoint should be compacted")
			}
			if rec.DictCompactionEpoch == 0 || rec.DictRemapBytes == 0 {
				t.Fatalf("recovery info missing compaction stats: %+v", rec)
			}
			// Logical parity with the live primary: same quads, same rewriting,
			// and a dictionary denser by exactly the reclaimed count (replayed
			// tail batches re-intern their new terms on both sides).
			if got := quadStrings(recovered); !reflect.DeepEqual(got, liveQuads) {
				t.Fatalf("recovered quads diverged from the live primary (%d vs %d)", len(got), len(liveQuads))
			}
			if fp := rewriteFingerprint(recovered); fp != liveFP {
				t.Fatalf("rewriting diverged:\nrecovered: %s\nlive: %s", fp, liveFP)
			}
			if got, want := recovered.Store().Snapshot().Dict().Len(), liveDictLen-rec.DictIDsReclaimed; got != want {
				t.Fatalf("recovered dict has %d terms, want %d (live %d − %d reclaimed)", got, want, liveDictLen, rec.DictIDsReclaimed)
			}
			// Byte parity across rebuild paths: recovery vs replica bootstrap.
			boot := bootstrapFromDir(t, dir)
			assertOntologyByteParity(t, recovered, boot, "recovery vs bootstrap")
		})
	}
}

// TestDictCompactionKillParity extends the crash-parity offsets to a dir
// whose newest checkpoint is compacted: the WAL tail past that checkpoint is
// killed at arbitrary offsets — and the checkpoint itself corrupted, as a
// crash mid-compaction-rewrite leaves at worst a skipped file — and recovery
// must land on a valid op prefix, logically identical to a from-scratch
// rebuild and byte-identical to a replica bootstrap of the same dir.
func TestDictCompactionKillParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := buildScript(t, rng)
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	baseGen := m.Ontology().Store().Generation()
	// Apply everything through the removals, compact, then one more release
	// so the WAL holds a replayable tail past the compacted base.
	for _, op := range ops[:len(ops)-1] {
		if err := op.run(m.Ontology()); err != nil {
			t.Fatalf("op %s: %v", op.name, err)
		}
	}
	info, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.DictIDsReclaimed == 0 {
		t.Fatalf("post-removal checkpoint reclaimed nothing: %+v", info)
	}
	ckptGen := info.Generation
	if err := ops[len(ops)-1].run(m.Ontology()); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(); err != nil {
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
		off := off
		trial(fmt.Sprintf("truncate@%d", off), func(tdir string) {
			if err := os.Truncate(filepath.Join(tdir, filepath.Base(lastSeg.path)), off); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Kill the compacted checkpoint itself: recovery and bootstrap both fall
	// back to the previous (uncompacted) base and replay the full WAL.
	trial("corrupt-compacted-checkpoint", func(tdir string) {
		ckpts, err := listSeqFiles(tdir, checkpointPrefix, checkpointSuffix)
		if err != nil || len(ckpts) < 2 {
			t.Fatalf("listing checkpoints: %v (%d found, want >= 2)", err, len(ckpts))
		}
		path := ckpts[len(ckpts)-1].path
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

// encodeCheckpointV1 writes the version-1 checkpoint layout (no compaction
// header), byte-for-byte what pre-compaction builds produced, span section
// included.
func encodeCheckpointV1(sn store.Snapshot, terms []rdf.Term, spans []core.DeltaSpan) []byte {
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
// still decodes and recovers with its TermIDs preserved (orphans included —
// v1 never compacted), Open reports the loaded format version, and the next
// checkpoint rewrites the dir as v2, reclaiming the recovered orphans.
func TestCheckpointV1Compatibility(t *testing.T) {
	o := core.NewOntology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	spans := recordSpans(o)
	if _, err := o.NewRelease(core.SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	if o.RemoveWrapperRegistration("w1") == 0 {
		t.Fatal("expected the w1 registration to be removable")
	}
	sn := o.Store().Snapshot()
	terms := sn.Dict().Terms()
	data := encodeCheckpointV1(sn, terms, *spans)

	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decoding a v1 checkpoint: %v", err)
	}
	if ck.version != 1 || ck.epoch != 0 || ck.reclaimed != 0 {
		t.Fatalf("v1 decode: version=%d epoch=%d reclaimed=%d, want 1/0/0", ck.version, ck.epoch, ck.reclaimed)
	}
	if ck.origDictLen != len(terms) {
		t.Fatalf("v1 origDictLen = %d, want %d", ck.origDictLen, len(terms))
	}
	restored, err := store.Restore(ck.dict, ck.generation, ck.graphs)
	if err != nil {
		t.Fatal(err)
	}
	quadsEqual(t, restored.Quads(), o.Store().Quads())
	rt, wt := restored.Snapshot().Dict().Terms(), terms
	if len(rt) != len(wt) {
		t.Fatalf("restored dict has %d terms, want %d", len(rt), len(wt))
	}
	for i := range rt {
		if !rt[i].Equal(wt[i]) {
			t.Fatalf("restored dict term %d = %v, want %v (v1 TermIDs must be preserved)", i+1, rt[i], wt[i])
		}
	}

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
	if info.DictIDsReclaimed == 0 || info.CompactionEpoch != 1 {
		t.Fatalf("upgrade checkpoint did not reclaim the recovered orphans: %+v", info)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.CheckpointFormatVersion != 2 {
		t.Fatalf("post-upgrade recovery format version = %d, want 2", rec2.CheckpointFormatVersion)
	}
}
