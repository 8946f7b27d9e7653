// Package wal is the durability subsystem of the metadata management
// system: an append-only, checksummed write-ahead log whose records are
// exactly the store's atomic insertion batches, and a checkpoint writer that
// serializes a pinned immutable snapshot concurrently with live traffic.
// Recovery loads the latest valid checkpoint, replays the WAL tail through
// the ordinary batch API and truncates torn tails. A release is journaled
// as its add-all batch alone: replaying it makes it one generation of the
// store's log again, from which its footprint is derived.
//
// The ontology only grows, so add-all is the only record kind, and the
// reader accepts exactly what the writer writes. A frame whose checksum
// verifies was written whole: if it is of another kind, or its payload does
// not decode, recovery, Inspect, shipping and DecodeFrame refuse it with an
// error naming the kind. Only a short frame or a checksum mismatch is a torn
// tail.
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
	"errors"
	"fmt"
	"hash/crc32"

	"bdi/internal/rdf"
)

// recordKind tags a WAL record payload. Values are part of the on-disk
// format and must never be renumbered.
type recordKind uint8

const (
	recAddAll recordKind = iota + 1
	// Kinds 2-5 are retired and must never be reused: earlier builds
	// journaled removals (remove, remove-graph, clear) and each release's
	// delta span (release) with them. This build refuses them by name.
	recRemove
	recRemoveGraph
	recClear
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
		return "unknown"
	}
}

// record is one WAL entry: an add-all batch and the store generation it
// publishes.
type record struct {
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
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	payloadStart := len(dst)
	dst = append(dst, byte(recAddAll))
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

// errTornFrame marks a frame that a crash mid-append can leave: shorter
// than its header announces, with an implausible length or failing its
// checksum. Every other decode error is of a frame whose checksum verified,
// which was written whole and is never cut off as a torn tail.
var errTornFrame = errors.New("torn record frame")

// decodeRecord decodes one framed record from the front of b, returning the
// record and the number of bytes consumed. An incomplete frame or a CRC
// mismatch returns an error wrapping errTornFrame; a checksummed frame that
// is not a well-formed add-all record returns one naming its kind.
func decodeRecord(b []byte) (*record, int, error) {
	if len(b) < frameHeaderSize {
		return nil, 0, fmt.Errorf("wal: %w: %d bytes, shorter than a frame header", errTornFrame, len(b))
	}
	length := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if length == 0 || length > maxRecordSize {
		return nil, 0, fmt.Errorf("wal: %w: implausible length %d", errTornFrame, length)
	}
	if uint32(len(b)-frameHeaderSize) < length {
		return nil, 0, fmt.Errorf("wal: %w: payload truncated (%d of %d bytes)", errTornFrame, len(b)-frameHeaderSize, length)
	}
	payload := b[frameHeaderSize : frameHeaderSize+int(length)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, fmt.Errorf("wal: %w: checksum mismatch", errTornFrame)
	}
	r, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return r, frameHeaderSize + int(length), nil
}

func decodePayload(p []byte) (*record, error) {
	if kind := recordKind(p[0]); kind != recAddAll {
		return nil, fmt.Errorf("wal: %s record (kind %d) has a valid checksum, but this build reads only add-all records", kind, uint8(kind))
	}
	r := &record{}
	if err := r.decodeBatch(p[1:]); err != nil {
		return nil, fmt.Errorf("wal: add-all record has a valid checksum but does not decode: %w", err)
	}
	return r, nil
}

// decodeBatch decodes an add-all payload past its kind byte: the generation,
// the quad count and the quads.
func (r *record) decodeBatch(p []byte) error {
	var n uint64
	var err error
	if r.gen, p, err = readUvarint(p); err != nil {
		return err
	}
	if n, p, err = readCount(p, minQuadSize); err != nil {
		return err
	}
	r.quads = make([]rdf.Quad, 0, n)
	for i := uint64(0); i < n; i++ {
		var q rdf.Quad
		if q, p, err = decodeQuad(p); err != nil {
			return err
		}
		r.quads = append(r.quads, q)
	}
	if len(p) != 0 {
		return fmt.Errorf("wal: %d trailing bytes", len(p))
	}
	return nil
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
