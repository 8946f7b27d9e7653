package wal

import (
	"fmt"
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

// assertCheckpointsReadable checks that every checkpoint in dir decodes,
// which holds only for the one layout this build writes.
func assertCheckpointsReadable(t *testing.T, dir string) {
	t.Helper()
	ckpts, err := listSeqFiles(dir, checkpointPrefix, checkpointSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range ckpts {
		if _, err := readCheckpointFile(ck.path); err != nil {
			t.Fatal(err)
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

// TestCheckpointRebuildParity interleaves the add-only scripted workload
// (releases and Global-graph edits) with randomly placed checkpoints, then
// proves recovery and replica bootstrap from the surviving dir agree
// byte-identically with each other and with the live primary.
func TestCheckpointRebuildParity(t *testing.T) {
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
					if _, err := m.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			live := m.Ontology()
			if err := m.Abort(); err != nil {
				t.Fatal(err)
			}
			assertCheckpointsReadable(t, dir)

			recovered, rec, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.RecordsReplayed == 0 {
				t.Fatalf("recovery = %+v, want a replayed tail", rec)
			}
			assertOntologyByteParity(t, live, recovered, "live vs recovery")
			if fp, lfp := rewriteFingerprint(recovered), rewriteFingerprint(live); fp != lfp {
				t.Fatalf("rewriting diverged:\nrecovered: %s\nlive: %s", fp, lfp)
			}
			assertOntologyByteParity(t, recovered, bootstrapFromDir(t, dir), "recovery vs bootstrap")
		})
	}
}

// TestCheckpointKillParity extends the crash-parity offsets past a
// checkpoint: the WAL tail after it is killed at arbitrary offsets — and the
// checkpoint itself corrupted, as a crash mid-rewrite leaves at worst a
// skipped file — and recovery must land on a valid op prefix, logically
// identical to a from-scratch rebuild and byte-identical to a replica
// bootstrap of the same dir.
func TestCheckpointKillParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := buildScript(t, rng)
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	baseGen := m.Ontology().Store().Generation()
	// Apply everything but the last op, checkpoint, then one more release
	// so the WAL holds a replayable tail past it.
	for _, op := range ops[:len(ops)-1] {
		if err := op.run(m.Ontology()); err != nil {
			t.Fatalf("op %s: %v", op.name, err)
		}
	}
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
	// Kill the checkpoint itself: recovery and bootstrap both fall back to
	// the previous base and replay the full WAL.
	trial("corrupt-checkpoint", func(tdir string) {
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
