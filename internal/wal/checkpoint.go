package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// Checkpoint file format, version 2 (all integers uvarint unless noted):
//
//	magic    "BDIWCKP2" (8 bytes)
//	epoch    always 0 when written (see below)
//	origLen  always nterms when written
//	ndrop    always 0 when written; then ndrop deltas encoding an ascending
//	         list of dropped TermIDs (first delta is absolute)
//	gen      store generation the snapshot was pinned at
//	nterms   dictionary size (origLen − ndrop); then nterms terms (rdf
//	         codec) in TermID order
//	ngraphs  non-empty graphs; per graph: nquads, then nquads × 4 TermIDs
//	nspans   always 0 when written. Earlier builds wrote the release-delta
//	         log here (the encoding of legacy WAL release records); the
//	         decoder still reads such spans and discards them
//	crc      uint32 LE CRC-32C of everything above
//
// Earlier builds compacted the dictionary at every checkpoint, dropping the
// TermIDs that removals had orphaned and writing the rest densely
// renumbered, with a compaction epoch. The store only grows now, so no
// TermID is ever orphaned and the header is written empty. The decoder
// still validates and skips a dropped-ID list: the terms and TermIDs such a
// checkpoint stores are already the renumbered ones.
//
// Version 1 ("BDIWCKP1") is the same layout without the epoch/origLen/drop
// header; the decoder accepts both, so version-1 data dirs recover
// unchanged (and the next checkpoint rewrites them as v2).
//
// A checkpoint is self-contained: the dictionary table restores every
// TermID at its value with sort keys regenerated from the term values, the
// graph sections are the store's pre-sorted buckets dumped in bulk
// (store.Restore rebuilds every index with plain appends).

var (
	checkpointMagicV1 = []byte("BDIWCKP1")
	checkpointMagicV2 = []byte("BDIWCKP2")
)

// checkpointData is a decoded checkpoint.
type checkpointData struct {
	version    int    // format version (1 or 2)
	generation uint64 // store generation of the pinned snapshot
	dict       *rdf.Dict
	graphs     [][]store.QuadID
	quads      int
}

// checkpointPayload is what the writer serializes: the dictionary table and
// the graph sections of one pinned snapshot.
type checkpointPayload struct {
	generation uint64
	terms      []rdf.Term
	graphs     [][]store.QuadID
}

// snapshotPayload assembles the payload of a pinned snapshot.
func snapshotPayload(sn store.Snapshot, terms []rdf.Term) checkpointPayload {
	return checkpointPayload{
		generation: sn.Generation(),
		terms:      terms,
		graphs:     sn.ExportGraphIDs(),
	}
}

// crcWriter tees writes into a running CRC-32C so the checkpoint can be
// streamed without materializing it.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum = crc32.Update(cw.sum, castagnoli, p[:n])
	return n, err
}

// writeCheckpointTo streams the checkpoint body plus the trailing CRC to w.
// Memory stays O(buffer): sections are encoded into a small scratch slice
// and flushed through a buffered writer, never concatenated (the only
// O(store) transient is the per-graph QuadID dump in the payload, 16 bytes
// per quad).
func writeCheckpointTo(w io.Writer, p checkpointPayload) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw}
	scratch := make([]byte, 0, 1<<12)
	emit := func() error {
		_, err := cw.Write(scratch)
		scratch = scratch[:0]
		return err
	}
	scratch = append(scratch, checkpointMagicV2...)
	scratch = binary.AppendUvarint(scratch, 0) // epoch
	scratch = binary.AppendUvarint(scratch, uint64(len(p.terms)))
	scratch = binary.AppendUvarint(scratch, 0) // ndrop
	scratch = binary.AppendUvarint(scratch, p.generation)
	scratch = binary.AppendUvarint(scratch, uint64(len(p.terms)))
	if err := emit(); err != nil {
		return err
	}
	for _, t := range p.terms {
		scratch = rdf.AppendTerm(scratch, t)
		if len(scratch) >= 1<<15 {
			if err := emit(); err != nil {
				return err
			}
		}
	}
	scratch = binary.AppendUvarint(scratch, uint64(len(p.graphs)))
	for _, ids := range p.graphs {
		scratch = binary.AppendUvarint(scratch, uint64(len(ids)))
		for _, id := range ids {
			scratch = binary.AppendUvarint(scratch, uint64(id.Graph))
			scratch = binary.AppendUvarint(scratch, uint64(id.Subject))
			scratch = binary.AppendUvarint(scratch, uint64(id.Predicate))
			scratch = binary.AppendUvarint(scratch, uint64(id.Object))
			if len(scratch) >= 1<<15 {
				if err := emit(); err != nil {
					return err
				}
			}
		}
	}
	scratch = binary.AppendUvarint(scratch, 0) // nspans
	if err := emit(); err != nil {
		return err
	}
	// The trailing CRC covers everything before it, so it bypasses cw.
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.sum)
	if _, err := bw.Write(tail[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeCheckpoint materializes a checkpoint in memory (tests and
// benchmarks; the file path streams via writeCheckpointTo).
func encodeCheckpoint(sn store.Snapshot, terms []rdf.Term) []byte {
	var buf bytes.Buffer
	if err := writeCheckpointTo(&buf, snapshotPayload(sn, terms)); err != nil {
		panic(fmt.Sprintf("wal: encoding checkpoint to memory: %v", err))
	}
	return buf.Bytes()
}

// decodeCheckpoint parses and verifies a checkpoint file's contents. Both
// format versions are accepted; a v2 header's epoch is ignored and its
// dropped-ID list validated and skipped.
func decodeCheckpoint(data []byte) (*checkpointData, error) {
	if len(data) < len(checkpointMagicV2)+4 {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(data))
	}
	body, sumBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sumBytes) {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	ck := &checkpointData{}
	switch {
	case bytes.HasPrefix(body, checkpointMagicV2):
		ck.version = 2
	case bytes.HasPrefix(body, checkpointMagicV1):
		ck.version = 1
	default:
		return nil, fmt.Errorf("wal: bad checkpoint magic")
	}
	b := body[len(checkpointMagicV2):]
	var err error
	var origLen, ndrop uint64
	if ck.version == 2 {
		if _, b, err = readUvarint(b); err != nil { // epoch
			return nil, err
		}
		if origLen, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		if ndrop, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		if ndrop > origLen {
			return nil, fmt.Errorf("wal: checkpoint drops %d of %d TermIDs", ndrop, origLen)
		}
		prev := rdf.TermID(0)
		for i := uint64(0); i < ndrop; i++ {
			var delta uint64
			if delta, b, err = readUvarint(b); err != nil {
				return nil, err
			}
			if delta == 0 {
				return nil, fmt.Errorf("wal: checkpoint remap not strictly ascending")
			}
			prev += rdf.TermID(delta)
		}
		if uint64(prev) > origLen {
			return nil, fmt.Errorf("wal: checkpoint remap drops TermID %d beyond dictionary size %d", prev, origLen)
		}
	}
	if ck.generation, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	var nterms uint64
	if nterms, b, err = readCount(b, minTermSize); err != nil {
		return nil, err
	}
	if ck.version == 2 && nterms != origLen-ndrop {
		return nil, fmt.Errorf("wal: checkpoint has %d terms, header implies %d", nterms, origLen-ndrop)
	}
	terms := make([]rdf.Term, 0, nterms)
	for i := uint64(0); i < nterms; i++ {
		var t rdf.Term
		if t, b, err = readTerm(b); err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if ck.dict, err = rdf.NewDictFromTerms(terms); err != nil {
		return nil, fmt.Errorf("wal: rebuilding checkpoint dictionary: %w", err)
	}
	var ngraphs uint64
	if ngraphs, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	for g := uint64(0); g < ngraphs; g++ {
		var nquads uint64
		if nquads, b, err = readCount(b, minQuadIDSize); err != nil {
			return nil, err
		}
		ids := make([]store.QuadID, 0, nquads)
		for i := uint64(0); i < nquads; i++ {
			var id store.QuadID
			if id, b, err = readQuadID(b); err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		ck.graphs = append(ck.graphs, ids)
		ck.quads += len(ids)
	}
	var nspans uint64
	if nspans, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nspans; i++ {
		if b, err = skipSpan(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wal: checkpoint has %d trailing bytes", len(b))
	}
	return ck, nil
}

func readQuadID(b []byte) (store.QuadID, []byte, error) {
	var id store.QuadID
	var v uint64
	var err error
	if v, b, err = readUvarint(b); err != nil {
		return id, nil, err
	}
	id.Graph = rdf.TermID(v)
	if v, b, err = readUvarint(b); err != nil {
		return id, nil, err
	}
	id.Subject = rdf.TermID(v)
	if v, b, err = readUvarint(b); err != nil {
		return id, nil, err
	}
	id.Predicate = rdf.TermID(v)
	if v, b, err = readUvarint(b); err != nil {
		return id, nil, err
	}
	id.Object = rdf.TermID(v)
	return id, b, nil
}

// writeCheckpointFile atomically writes a checkpoint payload: stream to a
// temp file, fsync, rename into place, fsync the directory. Returns the file
// size.
func writeCheckpointFile(dir string, p checkpointPayload) (int64, error) {
	tmp, err := os.CreateTemp(dir, "checkpoint-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("wal: creating checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if err := writeCheckpointTo(tmp, p); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("wal: fsyncing checkpoint: %w", err)
	}
	size, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		tmp.Close()
		return 0, fmt.Errorf("wal: sizing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("wal: closing checkpoint: %w", err)
	}
	final := filepath.Join(dir, checkpointName(p.generation))
	if err := os.Rename(tmpName, final); err != nil {
		return 0, fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, fmt.Errorf("wal: fsyncing data dir: %w", err)
	}
	return size, nil
}

// readCheckpointFile loads and decodes one checkpoint file.
func readCheckpointFile(path string) (*checkpointData, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return ck, nil
}
