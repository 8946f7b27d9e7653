// Package wal is the durability subsystem of the metadata management
// system: an append-only, checksummed write-ahead log whose records are
// exactly the store's atomic insertion batches, and a checkpoint writer that
// serializes a pinned immutable snapshot concurrently with live traffic.
// Recovery loads the latest valid checkpoint, replays the WAL tail through
// the ordinary batch API and truncates torn tails. A release is journaled
// as its add-all batch alone: replaying it makes it one generation of the
// store's log again, from which its footprint is derived.
//
// The ontology only grows, so add-all is the only record this build
// writes. The removal records of earlier builds (remove, remove-graph,
// clear) keep their kind numbers; one that a checkpoint does not already
// cover stops recovery and replica apply with an error naming it, rather
// than being skipped or cut off as a torn tail.
//
// # Consistency model
//
// The store invokes the Manager's commit hook while holding the writer
// mutex and strictly before publishing the batch's snapshot, so the WAL is
// a write-ahead journal in the literal sense: any state a reader (or a
// checkpoint) can observe has already been appended. Records carry the
// generation they publish; replay applies a record if and only if it is the
// next generation, which makes replay idempotent across overlapping
// segments and prefix-correct under torn tails. Fsync policy is the only
// durability knob: with -wal-sync=always every batch is on disk before it
// becomes visible, with batch a background flusher bounds the loss window,
// with off the OS page cache decides.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"bdi/internal/rdf"
)

// recordKind tags a WAL record payload. Values are part of the on-disk
// format and must never be renumbered.
type recordKind uint8

const (
	recAddAll recordKind = iota + 1
	// recRemove, recRemoveGraph and recClear are retired kinds: earlier
	// builds journaled removals with them. They still decode, so replay can
	// refuse them by kind and generation; none is written.
	recRemove
	recRemoveGraph
	recClear
	// recRelease is a legacy kind: earlier builds journaled each release's
	// delta span after its batch. Such records are still decoded (and
	// CRC-checked), publish no generation and are skipped; none is written.
	recRelease
)

func (k recordKind) String() string {
	switch k {
	case recAddAll:
		return "add-all"
	case recRemove:
		return "remove"
	case recRemoveGraph:
		return "remove-graph"
	case recClear:
		return "clear"
	case recRelease:
		return "release"
	default:
		return fmt.Sprintf("record(%d)", uint8(k))
	}
}

// record is one WAL entry. Batch records (add-all and the retired removal
// kinds) carry the generation they publish; a legacy release record
// carries generation 0, so every generation guard skips it.
type record struct {
	kind  recordKind
	gen   uint64
	quads []rdf.Quad
}

// castagnoli is the CRC-32C table used for record and checkpoint checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the per-record frame overhead: a little-endian uint32
// payload length followed by a uint32 CRC-32C of the payload.
const frameHeaderSize = 8

// maxRecordSize bounds a single record payload. A torn or corrupt length
// field would otherwise make recovery attempt an absurd allocation.
const maxRecordSize = 1 << 30

// appendRecord appends the framed encoding of an add-all record to dst.
func appendRecord(dst []byte, r *record) []byte {
	if r.kind != recAddAll {
		panic(fmt.Sprintf("wal: encoding a %s record; only add-all is written", r.kind))
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	payloadStart := len(dst)
	dst = append(dst, byte(r.kind))
	dst = binary.AppendUvarint(dst, r.gen)
	dst = binary.AppendUvarint(dst, uint64(len(r.quads)))
	for _, q := range r.quads {
		dst = appendQuad(dst, q)
	}
	payload := dst[payloadStart:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodeRecord decodes one framed record from the front of b, returning the
// record and the number of bytes consumed. An incomplete frame, a CRC
// mismatch or a malformed payload returns an error: the caller treats the
// position as the end of the valid log (torn tail).
func decodeRecord(b []byte) (*record, int, error) {
	if len(b) < frameHeaderSize {
		return nil, 0, fmt.Errorf("wal: record frame truncated (%d bytes)", len(b))
	}
	length := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if length == 0 || length > maxRecordSize {
		return nil, 0, fmt.Errorf("wal: implausible record length %d", length)
	}
	if uint32(len(b)-frameHeaderSize) < length {
		return nil, 0, fmt.Errorf("wal: record payload truncated (%d of %d bytes)", len(b)-frameHeaderSize, length)
	}
	payload := b[frameHeaderSize : frameHeaderSize+int(length)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, fmt.Errorf("wal: record checksum mismatch")
	}
	r, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return r, frameHeaderSize + int(length), nil
}

func decodePayload(p []byte) (*record, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("wal: empty record payload")
	}
	r := &record{kind: recordKind(p[0])}
	p = p[1:]
	var err error
	switch r.kind {
	case recAddAll, recRemove:
		var n uint64
		if r.gen, p, err = readUvarint(p); err != nil {
			return nil, err
		}
		if n, p, err = readCount(p, minQuadSize); err != nil {
			return nil, err
		}
		r.quads = make([]rdf.Quad, 0, n)
		for i := uint64(0); i < n; i++ {
			var q rdf.Quad
			if q, p, err = decodeQuad(p); err != nil {
				return nil, err
			}
			r.quads = append(r.quads, q)
		}
	case recRemoveGraph:
		if r.gen, p, err = readUvarint(p); err != nil {
			return nil, err
		}
		if _, p, err = readString(p); err != nil { // the graph name
			return nil, err
		}
	case recClear:
		if r.gen, p, err = readUvarint(p); err != nil {
			return nil, err
		}
	case recRelease:
		if p, err = skipSpan(p); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", uint8(r.kind))
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wal: %s record has %d trailing bytes", r.kind, len(p))
	}
	return r, nil
}

func appendQuad(dst []byte, q rdf.Quad) []byte {
	dst = appendString(dst, string(q.Graph))
	dst = rdf.AppendTerm(dst, q.Subject)
	dst = rdf.AppendTerm(dst, q.Predicate)
	return rdf.AppendTerm(dst, q.Object)
}

func decodeQuad(b []byte) (rdf.Quad, []byte, error) {
	var q rdf.Quad
	g, b, err := readString(b)
	if err != nil {
		return q, nil, err
	}
	q.Graph = rdf.IRI(g)
	if q.Subject, b, err = readTerm(b); err != nil {
		return q, nil, err
	}
	if q.Predicate, b, err = readTerm(b); err != nil {
		return q, nil, err
	}
	if q.Object, b, err = readTerm(b); err != nil {
		return q, nil, err
	}
	return q, b, nil
}

// skipSpan consumes one release-delta span in the encoding earlier builds
// wrote into release records and checkpoint span sections: from and to
// generations, wrapper, source, sequence, the concept, feature and attribute
// IRI lists, and the edge list (two IRIs per edge).
func skipSpan(b []byte) ([]byte, error) {
	var err error
	for i := 0; i < 2 && err == nil; i++ { // from, to
		_, b, err = readUvarint(b)
	}
	for i := 0; i < 2 && err == nil; i++ { // wrapper, source
		_, b, err = readString(b)
	}
	if err == nil { // sequence
		_, b, err = readUvarint(b)
	}
	for _, per := range []uint64{1, 1, 1, 2} { // concepts, features, attributes, edges
		var n uint64
		if err == nil {
			n, b, err = readUvarint(b)
		}
		for i := uint64(0); i < n*per && err == nil; i++ {
			_, b, err = readString(b)
		}
	}
	return b, err
}

// appendString / readString delegate to the rdf codec's string primitive so
// the durability files have exactly one definition of the wire format.
func appendString(dst []byte, s string) []byte { return rdf.AppendString(dst, s) }

func readString(b []byte) (string, []byte, error) {
	s, n, err := rdf.DecodeString(b)
	if err != nil {
		return "", nil, err
	}
	return s, b[n:], nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: bad uvarint")
	}
	return v, b[n:], nil
}

// The smallest encodings of the elements a count can announce: a term is a
// kind byte plus one string (a literal has three), a quad a graph string
// plus three terms, a QuadID four uvarints.
const (
	minTermSize   = 2
	minQuadSize   = 1 + 3*minTermSize
	minQuadIDSize = 4
)

// readCount reads an element count and rejects one the remaining bytes
// cannot hold at minSize bytes per element, so a corrupt or hostile count
// never sizes an allocation.
func readCount(b []byte, minSize int) (uint64, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(b)/minSize) {
		return 0, nil, fmt.Errorf("wal: count %d exceeds what %d bytes can hold", n, len(b))
	}
	return n, b, nil
}

func readTerm(b []byte) (rdf.Term, []byte, error) {
	t, n, err := rdf.DecodeTerm(b)
	if err != nil {
		return nil, nil, err
	}
	return t, b[n:], nil
}
