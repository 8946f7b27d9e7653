package wal

import (
	"errors"
	"fmt"
	"os"

	"bdi/internal/core"
	"bdi/internal/store"
)

// This file is the shipping side of log-based replication: a primary's
// Manager exposes its on-disk WAL frames and checkpoints to replicas, which
// re-verify every frame's CRC and apply the records through the same
// generation-guarded replay path recovery uses. Appends land in the segment
// file strictly before the batch's snapshot is published (the commit hook
// runs under the writer mutex), so anything a reader of the primary can
// observe is already shippable — replication adds no work to the write path
// beyond the existing hook.

// Shipping errors, mapped to HTTP statuses by the replication layer.
var (
	// ErrShipBehind: the requested resume generation predates the retained
	// WAL window (segments were pruned past a checkpoint). The replica must
	// catch up from a checkpoint first.
	ErrShipBehind = errors.New("wal: resume generation predates the retained WAL window")
	// ErrShipAhead: the requested resume generation is ahead of everything
	// this log ever appended — the replica replicated writes this primary
	// has since lost (e.g. an unsynced tail torn off by a crash). The
	// replica must discard its state and resynchronize from a checkpoint.
	ErrShipAhead = errors.New("wal: resume generation is ahead of this log")
)

// Record is the exported view of one WAL record, decoded from a shipped
// frame: a store insertion batch.
type Record struct {
	// Generation is the store generation the record publishes.
	Generation uint64

	rec *record
}

// Apply replays an add-all record onto o's store through Ontology.AddAll.
// The batch becomes one generation of o's store log, from which
// View.ChangedSince derives a release's footprint exactly as on the
// primary, so o's rewriting caches invalidate incrementally. The store
// must be at exactly Generation-1; callers enforce the guard so skipped
// duplicates and gaps are their decision, not a silent side effect.
func (r Record) Apply(o *core.Ontology) error {
	return replayBatch(r.rec, o.AddAll)
}

// DecodeFrame decodes one framed record from the front of b, re-verifying
// the frame CRC, and returns the record and the number of bytes consumed.
// Replicas call it on shipped bytes; an error means the frame was torn or
// corrupted in flight and the rest of the buffer must be discarded and
// refetched. A frame whose checksum verifies but which is no add-all record
// is refused with an error naming its kind.
func DecodeFrame(b []byte) (Record, int, error) {
	rec, n, err := decodeRecord(b)
	if err != nil {
		return Record{}, 0, err
	}
	return Record{Generation: rec.gen, rec: rec}, n, nil
}

// LastAppendedGeneration returns the highest generation present in the WAL
// or published by the store, whichever is larger (a commit hook may have
// appended the next generation's record just before publication).
func (m *Manager) LastAppendedGeneration() uint64 {
	m.log.mu.Lock()
	gen := m.log.lastGen
	m.log.mu.Unlock()
	if sg := m.st.Generation(); sg > gen {
		gen = sg
	}
	return gen
}

// AppendNotify returns a channel that is closed when the next record lands
// in a segment file. Long-poll tail followers block on it instead of
// spinning; re-arm by calling it again after a wake-up.
func (m *Manager) AppendNotify() <-chan struct{} { return m.log.appendNotify() }

// OldestShippableGeneration returns the generation base of the oldest
// retained WAL segment: every record with a generation strictly greater is
// still shippable. Replicas at or past this bound can stream; older ones
// must catch up from a checkpoint.
func (m *Manager) OldestShippableGeneration() (uint64, error) {
	segs, err := listSeqFiles(m.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return m.st.Generation(), nil
	}
	return segs[0].seq, nil
}

// ShipFrames collects raw WAL frames (length+CRC framing intact, so the
// receiver re-verifies the same checksums) for records a replica at
// generation from still needs: the records with Generation > from. Stops
// after roughly maxBytes (always finishing the current frame). Returns the
// frames and the highest generation included (== from when the replica is
// caught up).
//
// A torn frame at the tail of the final segment is not an error: it is an
// append in flight (a plain file write is not atomic for concurrent
// readers), so shipping simply ends there and the next poll picks it up.
// A torn frame in an earlier segment is real corruption, and a frame whose
// checksum verifies but which does not decode was written whole; both are
// reported.
func (m *Manager) ShipFrames(from uint64, maxBytes int) ([]byte, uint64, error) {
	next := from
	if last := m.LastAppendedGeneration(); from > last {
		return nil, next, fmt.Errorf("%w: log ends at generation %d, resume asked for > %d", ErrShipAhead, last, from)
	}
	segs, err := listSeqFiles(m.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return nil, next, err
	}
	if len(segs) == 0 {
		return nil, next, nil
	}
	if from < segs[0].seq {
		return nil, next, fmt.Errorf("%w: oldest retained segment starts after generation %d, replica resumes at %d", ErrShipBehind, segs[0].seq, from)
	}
	var frames []byte
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].seq <= from {
			continue // fully covered by the replica already
		}
		data, rerr := os.ReadFile(seg.path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				// Pruned between listing and reading. Any records the replica
				// still needed from it are gone; the replica's generation
				// guard will detect the gap and fall back to a checkpoint.
				continue
			}
			return frames, next, fmt.Errorf("wal: reading segment for shipping: %w", rerr)
		}
		off := 0
		for off < len(data) {
			rec, n, derr := decodeRecord(data[off:])
			if derr != nil {
				if i == len(segs)-1 && errors.Is(derr, errTornFrame) {
					return frames, next, nil // in-flight append; ship what we have
				}
				return frames, next, fmt.Errorf("wal: shipping segment %s at offset %d: %w", seg.path, off, derr)
			}
			if rec.gen > from {
				frames = append(frames, data[off:off+n]...)
				if rec.gen > next {
					next = rec.gen
				}
				if len(frames) >= maxBytes {
					return frames, next, nil
				}
			}
			off += n
		}
	}
	return frames, next, nil
}

// LatestCheckpoint returns the path and generation of the newest checkpoint
// file in the data dir. Every durable dir has at least one (a fresh Open
// writes it), so a replica can always bootstrap.
func (m *Manager) LatestCheckpoint() (string, uint64, error) {
	ckpts, err := listSeqFiles(m.dir, checkpointPrefix, checkpointSuffix)
	if err != nil {
		return "", 0, err
	}
	if len(ckpts) == 0 {
		return "", 0, fmt.Errorf("wal: no checkpoint in %s", m.dir)
	}
	last := ckpts[len(ckpts)-1]
	return last.path, last.seq, nil
}

// RestoreCheckpoint rebuilds an ontology from checkpoint bytes (as shipped
// by a primary's replication endpoint): the trailing CRC is verified, the
// dictionary is restored with byte-identical TermIDs and every index bucket
// is rebuilt pre-sorted. The restored store's generation log starts at the
// checkpoint, and a resynchronized replica's caches start empty over it.
// The restored store generation is available via Store().Generation().
func RestoreCheckpoint(data []byte) (*core.Ontology, error) {
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	s, err := store.Restore(ck.dict, ck.generation, ck.graphs)
	if err != nil {
		return nil, fmt.Errorf("wal: restoring shipped checkpoint: %w", err)
	}
	return core.RestoreOntology(s), nil
}
