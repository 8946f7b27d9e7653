package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/store"
)

func quadsEqual(t *testing.T, got, want []rdf.Quad) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("quad count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("quad %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	records := []*record{
		{gen: 3, quads: []rdf.Quad{
			{Triple: rdf.T("http://ex/s", "http://ex/p", "http://ex/o"), Graph: "http://ex/g"},
			{Triple: rdf.Triple{Subject: rdf.IRI("http://ex/s"), Predicate: rdf.IRI("http://ex/p"), Object: rdf.NewLangLiteral("héllo\nworld", "en")}},
			{Triple: rdf.Triple{Subject: rdf.NewBlankNode("b0"), Predicate: rdf.IRI("http://ex/p"), Object: rdf.NewIntegerLiteral(-5)}},
		}},
		{gen: 4, quads: []rdf.Quad{{Triple: rdf.T("http://ex/s2", "http://ex/p", "http://ex/o"), Graph: "http://ex/g"}}},
	}
	var buf []byte
	for _, r := range records {
		buf = appendRecord(buf, r)
	}
	for _, want := range records {
		got, n, err := decodeRecord(buf)
		if err != nil {
			t.Fatalf("decoding the record of generation %d: %v", want.gen, err)
		}
		buf = buf[n:]
		if got.gen != want.gen {
			t.Fatalf("decoded %+v, want %+v", got, want)
		}
		quadsEqual(t, got.quads, want.quads)
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after decoding all records", len(buf))
	}
}

func TestRecordRejectsCorruption(t *testing.T) {
	r := &record{gen: 1, quads: []rdf.Quad{{Triple: rdf.T("http://ex/s", "http://ex/p", "http://ex/o")}}}
	clean := appendRecord(nil, r)
	for i := 0; i < len(clean); i++ {
		bad := append([]byte(nil), clean...)
		bad[i] ^= 0x40
		if _, _, err := decodeRecord(bad); !errors.Is(err, errTornFrame) {
			t.Fatalf("flipping byte %d: %v, want a torn frame", i, err)
		}
	}
	for cut := 0; cut < len(clean); cut++ {
		if _, _, err := decodeRecord(clean[:cut]); !errors.Is(err, errTornFrame) {
			t.Fatalf("truncation to %d bytes: %v, want a torn frame", cut, err)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	o, err := core.BuildSupersedeOntology(true)
	if err != nil {
		t.Fatal(err)
	}
	s := o.Store()
	sn := s.Snapshot()
	data := encodeCheckpoint(sn, sn.Dict().Terms())
	// The span count, the last field before the CRC, is always 0.
	if nspans := data[len(data)-5]; nspans != 0 {
		t.Fatalf("checkpoint span count = %d, want 0", nspans)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if ck.generation != sn.Generation() {
		t.Fatalf("checkpoint generation = %d, want %d", ck.generation, sn.Generation())
	}
	restored, err := store.Restore(ck.dict, ck.generation, ck.graphs)
	if err != nil {
		t.Fatal(err)
	}
	quadsEqual(t, restored.Quads(), s.Quads())
	if got, want := restored.Snapshot().Dict().Len(), s.Snapshot().Dict().Len(); got != want {
		t.Fatalf("restored dict has %d terms, want %d", got, want)
	}
	// Flip one byte anywhere: the checkpoint must be rejected.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if _, err := decodeCheckpoint(bad); err == nil {
		t.Fatal("corrupted checkpoint went undetected")
	}
}

// TestOpenCloseReopen exercises the full lifecycle: fresh dir, writes,
// clean close, reopen, parity.
func TestOpenCloseReopen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	for _, r := range []core.Release{core.SupersedeReleaseW1(), core.SupersedeReleaseW2(), core.SupersedeReleaseW3()} {
		if _, err := o.NewRelease(r); err != nil {
			t.Fatal(err)
		}
	}
	wantQuads := o.Store().Quads()
	wantGen := o.Store().Generation()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	o2 := m2.Ontology()
	quadsEqual(t, o2.Store().Quads(), wantQuads)
	if got := o2.Store().Generation(); got != wantGen {
		t.Fatalf("recovered generation = %d, want %d", got, wantGen)
	}
	// The clean close checkpointed everything: no batches should replay.
	if rec := m2.Recovery(); rec.RecordsReplayed != 0 {
		t.Fatalf("clean reopen replayed %d batches, want 0", rec.RecordsReplayed)
	}
	// The ontology stays writable after recovery, and a release journals
	// exactly one record: its add-all batch.
	before := m2.Stats().RecordsAppended
	if _, err := o2.NewRelease(core.SupersedeReleaseW4()); err != nil {
		t.Fatal(err)
	}
	if n := m2.Stats().RecordsAppended - before; n != 1 {
		t.Fatalf("a release appended %d records, want 1", n)
	}
}

// TestReplayWithoutCheckpointCoverage reopens after Abort (no final
// checkpoint): everything past the initial checkpoint must come from WAL
// replay, including Global-graph edits made after the releases.
func TestReplayWithoutCheckpointCoverage(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	for _, r := range []core.Release{core.SupersedeReleaseW1(), core.SupersedeReleaseW2()} {
		if _, err := o.NewRelease(r); err != nil {
			t.Fatal(err)
		}
	}
	// G edits after the releases must replay too.
	player := rdf.IRI("http://ex/replay/Player")
	if err := o.AddConcept(player); err != nil {
		t.Fatal(err)
	}
	if err := o.AddFeatureTo(player, rdf.IRI("http://ex/replay/bitrate"), rdf.XSDInteger); err != nil {
		t.Fatal(err)
	}
	wantQuads := o.Store().Quads()
	wantGen := o.Store().Generation()
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	o2 := m2.Ontology()
	quadsEqual(t, o2.Store().Quads(), wantQuads)
	if got := o2.Store().Generation(); got != wantGen {
		t.Fatalf("recovered generation = %d, want %d", got, wantGen)
	}
	if rec := m2.Recovery(); rec.RecordsReplayed == 0 {
		t.Fatal("expected WAL replay after Abort")
	}
}

// TestCheckpointPrunesAndRecovers: checkpoints rotate the WAL, prune
// superseded segments, keep two checkpoints, and recovery prefers the
// newest valid one.
func TestCheckpointPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := o.NewRelease(core.SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	info, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != o.Store().Generation() {
		t.Fatalf("checkpoint generation = %d, want %d", info.Generation, o.Store().Generation())
	}
	ckpts, err := listSeqFiles(dir, checkpointPrefix, checkpointSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 2 {
		t.Fatalf("checkpoints on disk = %d, want 2", len(ckpts))
	}
	wantQuads := o.Store().Quads()
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest checkpoint: recovery must fall back to the older
	// one and replay the retained WAL suffix.
	newest := ckpts[len(ckpts)-1].path
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	o2, rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointsSkipped != 1 {
		t.Fatalf("checkpoints skipped = %d, want 1", rec.CheckpointsSkipped)
	}
	quadsEqual(t, o2.Store().Quads(), wantQuads)
}

// TestTornTailTruncation writes records, chops the segment mid-record, and
// verifies recovery lands on the longest valid prefix and truncates the
// file.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	preGen := o.Store().Generation()
	if _, err := o.NewRelease(core.SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqFiles(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last.path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop 3 bytes off the tail: the release's batch, the last record,
	// becomes torn and recovery ends before it.
	if err := os.Truncate(last.path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	if !rec.TornTail || rec.TruncatedBytes == 0 {
		t.Fatalf("expected a torn tail, got %+v", rec)
	}
	if got := m2.Ontology().Store().Generation(); got != preGen {
		t.Fatalf("recovered generation = %d, want %d (release batch torn)", got, preGen)
	}
}

func TestWALSegmentsButNoCheckpointFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), appendRecord(nil, &record{gen: 1, quads: []rdf.Quad{rdf.Q("http://ex/s", "http://ex/p", "http://ex/o", "")}}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Inspect(dir); err == nil {
		t.Fatal("expected an error for a dir with segments but no checkpoint")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, good := range []string{"always", "batch", "off"} {
		if _, err := ParseSyncPolicy(good); err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", good, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("expected an error for an unknown policy")
	}
}

func TestSyncAlwaysCountsFsyncs(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Ontology().Store().Add(rdf.Quad{Triple: rdf.T("http://ex/s", "http://ex/p", "http://ex/o")}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Fsyncs == 0 {
		t.Fatalf("sync=always recorded no fsyncs: %+v", st)
	}
	if st.RecordsAppended == 0 || st.BytesAppended == 0 {
		t.Fatalf("append counters empty: %+v", st)
	}
}

// TestOpenLocksDataDir: two managers must never share a data dir — the
// second Open fails while the first holds the lock, and succeeds after a
// clean Close.
func TestOpenLocksDataDir(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncOff}); err == nil {
		t.Fatal("second Open of a locked data dir succeeded")
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}
