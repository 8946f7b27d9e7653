package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
)

// The WAL and checkpoint readers accept exactly what this build writes.
// Earlier builds wrote removal records (kinds 2-4), a release record after
// every release's batch (kind 5), version-1 checkpoints, compacted
// checkpoints and checkpoints with a span section; each is refused by name,
// and none is truncated, skipped or partly applied.

// fileSizes maps every file of dir to its size.
func fileSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		sizes[e.Name()] = fi.Size()
	}
	return sizes
}

// assertRefused checks that err names want and that dir's files kept the
// sizes in before.
func assertRefused(t *testing.T, label string, err error, want string, dir string, before map[string]int64) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted %s", label, want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: error %q does not name %s", label, err, want)
	}
	if dir == "" {
		return
	}
	after := fileSizes(t, dir)
	for name, size := range before {
		if after[name] != size {
			t.Fatalf("%s: %s is %d bytes, was %d", label, name, after[name], size)
		}
	}
}

// TestChecksummedFrameOfOtherKindRefused writes a CRC-valid frame of each
// kind this build does not write — the retired removal and release kinds and
// a kind no build assigned — at the tail of the final segment, followed by
// an add-all frame. Recovery, Inspect and shipping stop with an error naming
// the kind, the segment keeps its length, and DecodeFrame refuses the same
// bytes: a checksummed frame was written whole, so it is never cut off as a
// torn tail.
func TestChecksummedFrameOfOtherKindRefused(t *testing.T) {
	for _, kind := range []recordKind{recRemove, recRemoveGraph, recClear, recRelease, 9} {
		t.Run(kind.String(), func(t *testing.T) {
			want := fmt.Sprintf("%s record (kind %d)", kind, uint8(kind))
			dir := t.TempDir()
			m, err := Open(dir, Options{Sync: SyncOff, CheckpointEveryBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			o := m.Ontology()
			if err := core.BuildSupersedeGlobalGraph(o); err != nil {
				t.Fatal(err)
			}
			if _, err := o.NewRelease(core.SupersedeReleaseW1()); err != nil {
				t.Fatal(err)
			}
			gen := o.Store().Generation() + 1
			frame := frameOf(binary.AppendUvarint([]byte{byte(kind)}, gen))
			after := appendRecord(nil, &record{gen: gen + 1, quads: []rdf.Quad{rdf.Q("http://ex/after", "http://ex/p", "http://ex/o", "")}})
			segs, err := listSeqFiles(dir, segmentPrefix, segmentSuffix)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(append(append([]byte(nil), frame...), after...)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			before := fileSizes(t, dir)

			_, _, err = m.ShipFrames(gen-1, 4<<20)
			assertRefused(t, "ShipFrames", err, want, dir, before)
			if err := m.Abort(); err != nil {
				t.Fatal(err)
			}
			_, _, err = Inspect(dir)
			assertRefused(t, "Inspect", err, want, dir, before)
			_, err = Open(dir, Options{Sync: SyncOff})
			assertRefused(t, "Open", err, want, dir, before)
			_, _, err = DecodeFrame(frame)
			assertRefused(t, "DecodeFrame", err, want, "", nil)
		})
	}
}

// TestEarlierCheckpointLayoutsRefused rewrites the newest checkpoint of a
// data dir in each layout earlier builds wrote. RestoreCheckpoint, Inspect
// and Open refuse it with an error naming the layout; recovery neither
// falls back to the older checkpoint beside it nor touches the WAL.
func TestEarlierCheckpointLayoutsRefused(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff, CheckpointEveryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	if _, err := o.NewRelease(core.SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	info, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.NewRelease(core.SupersedeReleaseW2()); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := listSeqFiles(dir, checkpointPrefix, checkpointSuffix)
	if err != nil || len(ckpts) < 2 {
		t.Fatalf("listing checkpoints: %v (%d found, want an older base beside the newest)", err, len(ckpts))
	}
	newest := ckpts[len(ckpts)-1].path
	current, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}

	// Split this build's checkpoint into its header fields and the rest:
	// generation, terms and graphs, then the span count 0.
	body := current[len(checkpointMagic) : len(current)-4]
	var header [3]uint64 // epoch, origLen, ndrop
	for i := range header {
		if header[i], body, err = readUvarint(body); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.HasSuffix(body, []byte{0}) {
		t.Fatal("checkpoint does not end in an empty span section")
	}
	layout := func(parts ...[]byte) []byte { return checkpointOf(bytes.Join(parts, nil)) }
	uvarints := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// A release-delta span: from, to, wrapper, source, sequence and four
	// empty IRI lists.
	span := append(uvarints(0, info.Generation), appendString(appendString(nil, "w1"), "D1")...)
	span = append(span, uvarints(1, 0, 0, 0, 0)...)

	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"version-1", "version-1 (BDIWCKP1) checkpoint", layout([]byte("BDIWCKP1"), body)},
		// One more TermID than the table holds, dropped.
		{"compacted", "compacted checkpoint (epoch 1, 1 dropped TermIDs)", layout(checkpointMagic, uvarints(1, header[1]+1, 1, header[1]+1), body)},
		{"spans", "checkpoint with 1 release-delta spans", layout(checkpointMagic, uvarints(header[:]...), body[:len(body)-1], uvarints(1), span)},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := RestoreCheckpoint(c.data)
			assertRefused(t, "RestoreCheckpoint", err, c.want, "", nil)
			if !strings.Contains(err.Error(), "an earlier build wrote this checkpoint") {
				t.Fatalf("RestoreCheckpoint: error %q does not say an earlier build wrote the file", err)
			}
			tdir := copyDir(t, dir)
			if err := os.WriteFile(filepath.Join(tdir, filepath.Base(newest)), c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := fileSizes(t, tdir)
			_, _, err = Inspect(tdir)
			assertRefused(t, "Inspect", err, c.want, tdir, before)
			_, err = Open(tdir, Options{Sync: SyncOff})
			assertRefused(t, "Open", err, c.want, tdir, before)
		})
	}
}
