package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
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
// call on bytes from the primary, a CRC-valid add-all frame whose quad count
// no payload could hold. The count must be rejected before it sizes an
// allocation.
func TestDecodeFrameRejectsImpossibleCount(t *testing.T) {
	payload := binary.AppendUvarint([]byte{byte(recAddAll)}, 1) // generation
	payload = binary.AppendUvarint(payload, 1<<62)              // quads
	frame := frameOf(payload)
	if len(frame) != 19 {
		t.Fatalf("frame is %d bytes, want 19", len(frame))
	}
	if _, _, err := DecodeFrame(frame); err == nil {
		t.Errorf("add-all frame announcing 2^62 quads in %d bytes decoded", len(frame))
	}
}

// TestRestoreCheckpointRejectsImpossibleCounts feeds RestoreCheckpoint,
// which replicas call on a checkpoint shipped by the primary, CRC-valid
// checkpoints whose term or quad count no body could hold.
func TestRestoreCheckpointRejectsImpossibleCounts(t *testing.T) {
	encode := func(fields ...uint64) []byte {
		b := append([]byte(nil), checkpointMagic...)
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return checkpointOf(b)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		// epoch, origLen, ndrop, generation, nterms
		{"terms", encode(0, 1<<62, 0, 1, 1<<62)},
		// epoch, origLen, ndrop, generation, nterms, ngraphs, nquads
		{"quads of a graph", encode(0, 0, 0, 1, 0, 1, 1<<62)},
	} {
		if _, err := RestoreCheckpoint(c.data); err == nil {
			t.Errorf("%s: a %d-byte checkpoint announcing 2^62 elements restored", c.name, len(c.data))
		}
	}
}

// checksummed reports whether b starts with a whole frame whose CRC
// verifies, so that a decode failure cannot be a torn frame.
func checksummed(b []byte) bool {
	if len(b) < frameHeaderSize {
		return false
	}
	length := binary.LittleEndian.Uint32(b)
	if length == 0 || length > maxRecordSize || uint64(len(b)-frameHeaderSize) < uint64(length) {
		return false
	}
	return crc32.Checksum(b[frameHeaderSize:frameHeaderSize+int(length)], castagnoli) == binary.LittleEndian.Uint32(b[4:])
}

// FuzzDecodeFrame holds the replica's frame decoder to three rules: no input
// panics it, every frame it accepts is an add-all record that re-encodes to
// a frame decoding to an equal record, and a frame whose checksum verifies
// but which it refuses is refused by an error naming the frame's kind, never
// as a torn frame. Seeded from testdata/fuzz/FuzzDecodeFrame: the frames a
// SUPERSEDE release journaled in earlier builds (add-all and the release
// record), the removal records those builds journaled (remove,
// remove-graph, clear), truncated and bit-flipped variants, and frames
// announcing impossible counts. Every seed of a kind other than add-all
// exercises the refusal.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeFrame(b)
		if err != nil {
			if !checksummed(b) {
				return
			}
			kind := recordKind(b[frameHeaderSize])
			if errors.Is(err, errTornFrame) || !strings.Contains(err.Error(), kind.String()+" record") {
				t.Fatalf("a checksummed %s frame was refused with %q, want an error naming its kind", kind, err)
			}
			return
		}
		if n < frameHeaderSize || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if kind := recordKind(b[frameHeaderSize]); kind != recAddAll {
			t.Fatalf("accepted a %s frame", kind)
		}
		again := appendRecord(nil, rec.rec)
		rec2, n2, err := DecodeFrame(again)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
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
// real checkpoints of the running example in this build's layout and in the
// layouts earlier builds wrote (version 1, compacted, with span sections),
// which are refused, truncated and bit-flipped variants (CRC fixed up, so
// the decoder past it is reached), and checkpoints announcing impossible
// counts.
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
