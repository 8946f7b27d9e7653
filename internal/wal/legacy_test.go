package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
)

// Earlier builds journaled every release twice: its add-all batch, then a
// release record carrying the release's delta span, and every checkpoint
// carried the delta log in its span section. This build writes neither but
// must keep reading both. The encoders below write them byte for byte as
// those builds did.

// legacySpan is a delta span as earlier builds journaled it: a release's
// delta and the store-generation interval (From, To] it published.
type legacySpan struct {
	From, To uint64
	Delta    *core.ReleaseDelta
}

// releaseSpan registers r on o and returns the span earlier builds
// journaled for it.
func releaseSpan(t *testing.T, o *core.Ontology, r core.Release) legacySpan {
	t.Helper()
	from := o.Store().Generation()
	res, err := o.NewRelease(r)
	if err != nil {
		t.Fatal(err)
	}
	return legacySpan{From: from, To: o.Store().Generation(), Delta: res.Delta}
}

// appendLegacySpan encodes a delta span as earlier builds wrote it into
// release records and checkpoint span sections.
func appendLegacySpan(dst []byte, s legacySpan) []byte {
	iris := func(dst []byte, list []rdf.IRI) []byte {
		dst = binary.AppendUvarint(dst, uint64(len(list)))
		for _, iri := range list {
			dst = appendString(dst, string(iri))
		}
		return dst
	}
	dst = binary.AppendUvarint(dst, s.From)
	dst = binary.AppendUvarint(dst, s.To)
	d := s.Delta
	dst = appendString(dst, string(d.Wrapper))
	dst = appendString(dst, string(d.Source))
	dst = binary.AppendUvarint(dst, uint64(d.Sequence))
	dst = iris(dst, d.Concepts)
	dst = iris(dst, d.Features)
	dst = iris(dst, d.Attributes)
	dst = binary.AppendUvarint(dst, uint64(len(d.Edges)))
	for _, e := range d.Edges {
		dst = appendString(dst, string(e[0]))
		dst = appendString(dst, string(e[1]))
	}
	return dst
}

// legacyReleaseFrame frames a release record as earlier builds journaled it.
func legacyReleaseFrame(sp legacySpan) []byte {
	return frameOf(appendLegacySpan([]byte{byte(recRelease)}, sp))
}

// withLegacySpans rewrites a checkpoint this build wrote (span count 0, then
// the CRC) with a span section holding spans.
func withLegacySpans(ckpt []byte, spans []legacySpan) []byte {
	body := append([]byte(nil), ckpt[:len(ckpt)-5]...)
	body = binary.AppendUvarint(body, uint64(len(spans)))
	for _, sp := range spans {
		body = appendLegacySpan(body, sp)
	}
	return checkpointOf(body)
}

// retiredFrame frames a removal record as earlier builds journaled it:
// remove carries the removed quads, remove-graph the graph's name, clear
// nothing past its generation.
func retiredFrame(kind recordKind, gen uint64) []byte {
	p := binary.AppendUvarint([]byte{byte(kind)}, gen)
	switch kind {
	case recRemove:
		p = binary.AppendUvarint(p, 1)
		p = appendQuad(p, rdf.Quad{Triple: rdf.T(core.SupMonitor, core.GHasFeature, core.SupMonitorID), Graph: core.GlobalGraphName})
	case recRemoveGraph:
		p = appendString(p, string(core.MappingGraphURI("w1")))
	}
	return frameOf(p)
}

// TestRetiredRecordKindsRefused pins how this build meets a removal record
// an earlier build journaled: a CRC-valid remove, remove-graph or clear
// frame decodes, but recovery, Inspect and a replica's apply each stop with
// an error naming the kind and its generation. The segment is not
// truncated: recovery truncates a torn tail, and taking the frame for one
// would silently drop the log after it.
func TestRetiredRecordKindsRefused(t *testing.T) {
	for _, kind := range []recordKind{recRemove, recRemoveGraph, recClear} {
		t.Run(kind.String(), func(t *testing.T) {
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
			if err := m.Abort(); err != nil {
				t.Fatal(err)
			}
			// The retired record, then an add-all record after it.
			frame := retiredFrame(kind, gen)
			after := appendRecord(nil, &record{kind: recAddAll, gen: gen + 1, quads: []rdf.Quad{rdf.Q("http://ex/after", "http://ex/p", "http://ex/o", "")}})
			segs, err := listSeqFiles(dir, segmentPrefix, segmentSuffix)
			if err != nil {
				t.Fatal(err)
			}
			seg := segs[len(segs)-1].path
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data = append(append(data, frame...), after...)
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}

			named := func(label string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted a %s record", label, kind)
				}
				if msg := err.Error(); !strings.Contains(msg, kind.String()+" record") || !strings.Contains(msg, fmt.Sprint(gen)) {
					t.Fatalf("%s: error %q does not name the %s record at generation %d", label, msg, kind, gen)
				}
				fi, serr := os.Stat(seg)
				if serr != nil {
					t.Fatal(serr)
				}
				if fi.Size() != int64(len(data)) {
					t.Fatalf("%s: segment is %d bytes, was %d; it was truncated", label, fi.Size(), len(data))
				}
			}
			_, _, err = Inspect(dir)
			named("Inspect", err)
			_, err = Open(dir, Options{Sync: SyncOff})
			named("recovery", err)

			// A replica: the frame decodes, Apply refuses it.
			ckpts, err := listSeqFiles(dir, checkpointPrefix, checkpointSuffix)
			if err != nil || len(ckpts) == 0 {
				t.Fatalf("listing checkpoints: %v (%d found)", err, len(ckpts))
			}
			ck, err := os.ReadFile(ckpts[0].path)
			if err != nil {
				t.Fatal(err)
			}
			replica, err := RestoreCheckpoint(ck)
			if err != nil {
				t.Fatal(err)
			}
			rec, n, err := DecodeFrame(frame)
			if err != nil || n != len(frame) {
				t.Fatalf("DecodeFrame = %d bytes, %v; want the whole %d-byte frame", n, err, len(frame))
			}
			if rec.Kind() != kind.String() || rec.Generation != gen {
				t.Fatalf("decoded a %s record at generation %d, want %s at %d", rec.Kind(), rec.Generation, kind, gen)
			}
			genBefore := replica.Store().Generation()
			named("replica apply", rec.Apply(replica))
			if replica.Store().Generation() != genBefore {
				t.Fatal("a refused record moved the replica's generation")
			}
		})
	}
}

// TestLegacyDataDirReadable writes a data dir in the earlier format, with a
// release record after every release's batch and delta spans in its
// checkpoints, and holds this build to reading it: recovery rebuilds the
// same quads under the same TermIDs, and the dir streams to a replica that
// converges byte-identically, skipping the release records and deriving
// each release's delta from its batch instead.
func TestLegacyDataDirReadable(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: SyncOff, CheckpointEveryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	o := m.Ontology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	var spans []legacySpan
	for _, r := range []core.Release{core.SupersedeReleaseW1(), core.SupersedeReleaseW2()} {
		spans = append(spans, releaseSpan(t, o, r))
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tailFrom := o.Store().Generation()
	for _, r := range []core.Release{core.SupersedeReleaseW3(), core.SupersedeReleaseW4()} {
		spans = append(spans, releaseSpan(t, o, r))
	}
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the dir as earlier builds left it.
	legacyFrames := 0
	ckpts, err := listSeqFiles(dir, checkpointPrefix, checkpointSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range ckpts {
		data, err := os.ReadFile(ck.path)
		if err != nil {
			t.Fatal(err)
		}
		var in []legacySpan
		for _, sp := range spans {
			if sp.To <= ck.seq {
				in = append(in, sp)
			}
		}
		if err := os.WriteFile(ck.path, withLegacySpans(data, in), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSeqFiles(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for off := 0; off < len(data); {
			r, n, err := decodeRecord(data[off:])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data[off:off+n]...)
			off += n
			for _, sp := range spans {
				if sp.To == r.gen {
					out = append(out, legacyReleaseFrame(sp)...)
					legacyFrames++
				}
			}
		}
		if err := os.WriteFile(seg.path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if legacyFrames != len(spans) {
		t.Fatalf("wrote %d legacy release records, want %d", legacyFrames, len(spans))
	}

	// Recovery: the same quads under the same TermIDs, every release
	// record skipped.
	recovered, rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertOntologyByteParity(t, o, recovered, "legacy recovery")
	// Recovery replays the tail's 2 batches; their legacy release records
	// are skipped and not counted.
	if rec.TornTail || rec.RecordsReplayed != 2 {
		t.Fatalf("legacy recovery = %+v, want 2 batches replayed and no torn tail", rec)
	}
	if rec.CheckpointGeneration != tailFrom {
		t.Fatalf("legacy recovery loaded the checkpoint at %d, want %d", rec.CheckpointGeneration, tailFrom)
	}

	// A replica applying the raw segment bytes, release records included.
	boot := bootstrapFromDir(t, dir)
	assertOntologyByteParity(t, o, boot, "legacy bootstrap")

	// A replica streaming from a primary that opens the dir: it restores
	// the oldest checkpoint and follows the shipped frames.
	m2, err := Open(dir, Options{Sync: SyncOff, CheckpointEveryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Abort()
	data, err := os.ReadFile(ckpts[0].path)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := RestoreCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	views := map[uint64]*core.View{}
	for {
		from := replica.Store().Generation()
		frames, next, err := m2.ShipFrames(from, 0)
		if err != nil {
			t.Fatal(err)
		}
		if next == from {
			break
		}
		for off := 0; off < len(frames); {
			r, n, err := DecodeFrame(frames[off:])
			if err != nil {
				t.Fatal(err)
			}
			off += n
			if r.Generation != replica.Store().Generation()+1 {
				t.Fatalf("shipped %s record publishes %d, replica at %d", r.Kind(), r.Generation, replica.Store().Generation())
			}
			if err := r.Apply(replica); err != nil {
				t.Fatal(err)
			}
			views[r.Generation] = replica.View()
		}
	}
	assertOntologyByteParity(t, o, replica, "legacy stream")
	// Every release streamed changes what the primary's delta names.
	for _, sp := range spans {
		v, ok := views[sp.To]
		if !ok {
			t.Fatalf("the replica never applied generation %d", sp.To)
		}
		got, ok := v.ChangedSince(sp.From)
		if !ok || !reflect.DeepEqual(got, sp.Delta.Footprint) {
			t.Fatalf("replica ChangedSince(%d) at %d = %+v, %v; want %+v", sp.From, sp.To, got, ok, sp.Delta.Footprint)
		}
	}
}
