package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// Checkpoint file format (all integers uvarint unless noted):
//
//	magic    "BDIWCKP2" (8 bytes)
//	epoch    0
//	origLen  nterms
//	ndrop    0
//	gen      store generation the snapshot was pinned at
//	nterms   dictionary size; then nterms terms (rdf codec) in TermID order
//	ngraphs  non-empty graphs; per graph: nquads, then nquads × 4 TermIDs
//	nspans   0
//	crc      uint32 LE CRC-32C of everything above
//
// The epoch, origLen, ndrop and nspans fields are constant. Earlier builds
// wrote other values there: a compaction epoch and the dropped TermIDs of a
// dictionary compacted at every checkpoint, and the release-delta log as a
// span section; before that, a "BDIWCKP1" layout without the compaction
// header. The decoder accepts only the layout above and refuses the others
// by name.
//
// A checkpoint is self-contained: the dictionary table restores every
// TermID at its value with sort keys regenerated from the term values, the
// graph sections are the store's pre-sorted buckets dumped in bulk
// (store.Restore rebuilds every index with plain appends).

var checkpointMagic = []byte("BDIWCKP2")

// errEarlierCheckpoint marks a checkpoint whose checksum verifies but whose
// layout only an earlier build wrote. Recovery stops at it rather than
// passing it over for an older checkpoint, as it does a damaged one.
var errEarlierCheckpoint = errors.New("an earlier build wrote this checkpoint, and this build reads only the layout it writes")

// checkpointData is a decoded checkpoint.
type checkpointData struct {
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
	scratch = append(scratch, checkpointMagic...)
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

// decodeCheckpoint parses and verifies a checkpoint file's contents.
func decodeCheckpoint(data []byte) (*checkpointData, error) {
	if len(data) < len(checkpointMagic)+4 {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(data))
	}
	body, sumBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sumBytes) {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	if bytes.HasPrefix(body, []byte("BDIWCKP1")) {
		return nil, fmt.Errorf("wal: version-1 (BDIWCKP1) checkpoint: %w", errEarlierCheckpoint)
	}
	if !bytes.HasPrefix(body, checkpointMagic) {
		return nil, fmt.Errorf("wal: bad checkpoint magic")
	}
	b := body[len(checkpointMagic):]
	var header [3]uint64 // epoch, origLen, ndrop
	var err error
	for i := range header {
		if header[i], b, err = readUvarint(b); err != nil {
			return nil, err
		}
	}
	if header[0] != 0 || header[2] != 0 {
		return nil, fmt.Errorf("wal: compacted checkpoint (epoch %d, %d dropped TermIDs): %w", header[0], header[2], errEarlierCheckpoint)
	}
	ck := &checkpointData{}
	if ck.generation, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	var nterms uint64
	if nterms, b, err = readCount(b, minTermSize); err != nil {
		return nil, err
	}
	if nterms != header[1] {
		return nil, fmt.Errorf("wal: checkpoint has %d terms, header implies %d", nterms, header[1])
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
	if nspans != 0 {
		return nil, fmt.Errorf("wal: checkpoint with %d release-delta spans: %w", nspans, errEarlierCheckpoint)
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
