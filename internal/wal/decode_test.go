package wal

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"bdi/internal/core"
)

// frameOf wraps a payload in a CRC-valid record frame.
func frameOf(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// checkpointOf appends the trailing CRC to a checkpoint body.
func checkpointOf(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// TestDecodeFrameRejectsImpossibleCount feeds DecodeFrame, which replicas
// call on bytes from the primary, CRC-valid frames whose quad count no
// payload could hold. The count must be rejected before it sizes an
// allocation.
func TestDecodeFrameRejectsImpossibleCount(t *testing.T) {
	for _, kind := range []recordKind{recAddAll, recRemove} {
		payload := binary.AppendUvarint([]byte{byte(kind)}, 1) // generation
		payload = binary.AppendUvarint(payload, 1<<62)         // quads
		frame := frameOf(payload)
		if len(frame) != 19 {
			t.Fatalf("frame is %d bytes, want 19", len(frame))
		}
		if _, _, err := DecodeFrame(frame); err == nil {
			t.Errorf("%s frame announcing 2^62 quads in %d bytes decoded", kind, len(frame))
		}
	}
}

// TestRestoreCheckpointRejectsImpossibleCounts feeds RestoreCheckpoint,
// which replicas call on a checkpoint shipped by the primary, CRC-valid
// checkpoints whose term or quad count no body could hold.
func TestRestoreCheckpointRejectsImpossibleCounts(t *testing.T) {
	encode := func(magic []byte, fields ...uint64) []byte {
		b := append([]byte(nil), magic...)
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return checkpointOf(b)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		// generation, nterms
		{"v1 terms", encode(checkpointMagicV1, 1, 1<<62)},
		// epoch, origLen, ndrop, generation, nterms
		{"v2 terms", encode(checkpointMagicV2, 0, 1<<62, 0, 1, 1<<62)},
		// generation, nterms, ngraphs, nquads
		{"v1 quads of a graph", encode(checkpointMagicV1, 1, 0, 1, 1<<62)},
		{"v2 quads of a graph", encode(checkpointMagicV2, 0, 0, 0, 1, 0, 1, 1<<62)},
	} {
		if c.name == "v1 terms" && len(c.data) != 22 {
			t.Fatalf("%s: checkpoint is %d bytes, want 22", c.name, len(c.data))
		}
		if _, err := RestoreCheckpoint(c.data); err == nil {
			t.Errorf("%s: a %d-byte checkpoint announcing 2^62 elements restored", c.name, len(c.data))
		}
	}
}

// FuzzDecodeFrame holds the replica's frame decoder to two rules: no input
// panics it, and a frame it accepts re-encodes to a frame that decodes to
// an equal record. Seeded from testdata/fuzz/FuzzDecodeFrame: the frames a
// SUPERSEDE release journaled in earlier builds (add-all and the legacy
// release record), the removal records those builds journaled (remove,
// remove-graph, clear), truncated and bit-flipped variants, and frames
// announcing impossible counts. Legacy release and removal records are
// decoded but never written, so they have no re-encoding to compare; a
// removal record must instead be refused by Apply, naming its kind.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n < frameHeaderSize || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		switch rec.rec.kind {
		case recRelease:
			if rec.Generation != 0 {
				t.Fatalf("legacy release record publishes generation %d, want 0", rec.Generation)
			}
			return
		case recRemove, recRemoveGraph, recClear:
			if err := rec.Apply(core.NewOntology()); err == nil || !strings.Contains(err.Error(), rec.Kind()) {
				t.Fatalf("applying a %s record returned %v, want a refusal naming it", rec.Kind(), err)
			}
			return
		}
		again := appendRecord(nil, rec.rec)
		rec2, n2, err := DecodeFrame(again)
		if err != nil {
			t.Fatalf("re-encoded %s frame does not decode: %v", rec.Kind(), err)
		}
		if n2 != len(again) {
			t.Fatalf("re-encoded frame: consumed %d of %d bytes", n2, len(again))
		}
		if !reflect.DeepEqual(rec2, rec) {
			t.Fatalf("re-encoded record differs:\n got %+v\nwant %+v", rec2.rec, rec.rec)
		}
	})
}

// FuzzRestoreCheckpoint holds the replica's checkpoint bootstrap to two
// rules: no input panics it, and an accepted checkpoint, checkpointed again,
// restores to the same quads. Seeded from testdata/fuzz/FuzzRestoreCheckpoint:
// real v2 and v1 checkpoints of the running example (with the span sections
// earlier builds wrote, which are read and discarded), truncated and
// bit-flipped variants (CRC fixed up, so the decoder past it is reached),
// and checkpoints announcing impossible counts.
func FuzzRestoreCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := RestoreCheckpoint(b)
		if err != nil {
			return
		}
		sn := o.Store().Snapshot()
		again, err := RestoreCheckpoint(encodeCheckpoint(sn, sn.Dict().Terms()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not restore: %v", err)
		}
		quadsEqual(t, again.Store().Quads(), o.Store().Quads())
	})
}
