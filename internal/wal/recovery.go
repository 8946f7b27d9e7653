package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bdi/internal/rdf"
	"bdi/internal/store"
)

// RecoveryInfo reports what recovery found and did.
type RecoveryInfo struct {
	// CheckpointGeneration is the store generation of the checkpoint loaded
	// (0 when the data dir was fresh).
	CheckpointGeneration uint64 `json:"checkpointGeneration"`
	// CheckpointQuads is the number of quads restored from the checkpoint.
	CheckpointQuads int `json:"checkpointQuads"`
	// CheckpointsSkipped counts newer checkpoint files that failed
	// verification and were passed over for an older valid one.
	CheckpointsSkipped int `json:"checkpointsSkipped"`
	// SegmentsScanned is the number of WAL segment files read.
	SegmentsScanned int `json:"segmentsScanned"`
	// RecordsReplayed counts the store insertion batches applied on top of
	// the checkpoint.
	RecordsReplayed int `json:"recordsReplayed"`
	// TornTail reports that the last segment ended in an incomplete or
	// corrupt record, which was truncated away.
	TornTail bool `json:"tornTail"`
	// TruncatedBytes is the size of the discarded torn tail.
	TruncatedBytes int64 `json:"truncatedBytes"`
	// FinalGeneration is the store generation after replay.
	FinalGeneration uint64 `json:"finalGeneration"`
}

// errFreshDir reports a data dir with neither checkpoints nor segments.
var errFreshDir = errors.New("wal: fresh data dir")

// recoverDir rebuilds the store recorded in dir: load the newest checkpoint
// that verifies, replay every WAL record past its generation, truncate torn
// tails. With truncate false the log files are left untouched (read-only
// inspection).
func recoverDir(dir string, truncate bool) (*store.Store, RecoveryInfo, error) {
	var info RecoveryInfo
	ckpts, err := listSeqFiles(dir, checkpointPrefix, checkpointSuffix)
	if err != nil {
		return nil, info, fmt.Errorf("wal: listing checkpoints: %w", err)
	}
	segs, err := listSeqFiles(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return nil, info, fmt.Errorf("wal: listing segments: %w", err)
	}
	if len(ckpts) == 0 {
		if len(segs) == 0 {
			return nil, info, errFreshDir
		}
		return nil, info, fmt.Errorf("wal: %s has WAL segments but no checkpoint; cannot establish a replay base", dir)
	}

	// Load the newest checkpoint that verifies; fall back to older ones (a
	// crash mid-checkpoint leaves the previous one intact, and the WAL is
	// only pruned past verified checkpoints, so older bases replay further).
	// A checkpoint an earlier build wrote is refused, not passed over.
	var ck *checkpointData
	var ckErr error
	for i := len(ckpts) - 1; i >= 0; i-- {
		ck, ckErr = readCheckpointFile(ckpts[i].path)
		if ckErr == nil {
			break
		}
		if errors.Is(ckErr, errEarlierCheckpoint) {
			return nil, info, ckErr
		}
		info.CheckpointsSkipped++
	}
	if ck == nil {
		return nil, info, fmt.Errorf("wal: no valid checkpoint in %s: %w", dir, ckErr)
	}
	s, err := store.Restore(ck.dict, ck.generation, ck.graphs)
	if err != nil {
		return nil, info, fmt.Errorf("wal: restoring checkpoint snapshot: %w", err)
	}
	info.CheckpointGeneration = ck.generation
	info.CheckpointQuads = ck.quads

	// Replay the segments in base order. A segment is skipped wholesale when
	// the next segment's base shows it is fully covered by the checkpoint.
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].seq <= ck.generation {
			continue
		}
		last := i == len(segs)-1
		if err := replaySegment(seg.path, s, last, truncate, &info); err != nil {
			return nil, info, err
		}
	}
	info.FinalGeneration = s.Generation()
	return s, info, nil
}

// replaySegment applies one segment's records onto s. A torn frame (short,
// or failing its checksum) in the final segment is a torn tail: the file is
// truncated at the last good record (when truncate is set) and replay ends.
// A torn frame elsewhere is corruption beyond crash semantics, and a frame
// whose checksum verifies but which is no add-all record was written whole;
// both abort recovery and leave the file as it is.
func replaySegment(path string, s *store.Store, last, truncate bool, info *RecoveryInfo) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: reading segment: %w", err)
	}
	info.SegmentsScanned++
	off := 0
	for off < len(data) {
		r, n, derr := decodeRecord(data[off:])
		if derr != nil {
			if !errors.Is(derr, errTornFrame) {
				return fmt.Errorf("wal: segment %s at offset %d: %w", filepath.Base(path), off, derr)
			}
			if !last {
				return fmt.Errorf("wal: segment %s corrupt at offset %d (not the final segment; refusing to skip history): %v", filepath.Base(path), off, derr)
			}
			info.TornTail = true
			info.TruncatedBytes = int64(len(data) - off)
			if truncate {
				if err := os.Truncate(path, int64(off)); err != nil {
					return fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(path), err)
				}
			}
			return nil
		}
		if err := applyRecord(r, s, info); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// applyRecord replays one record onto s unless the checkpoint (or an earlier
// overlapping segment) already covers its generation.
func applyRecord(r *record, s *store.Store, info *RecoveryInfo) error {
	cur := s.Generation()
	if r.gen <= cur {
		return nil
	}
	if r.gen != cur+1 {
		return fmt.Errorf("wal: generation gap: store at %d, next record publishes %d", cur, r.gen)
	}
	if err := replayBatch(r, s.AddAll); err != nil {
		return err
	}
	if got := s.Generation(); got != r.gen {
		return fmt.Errorf("wal: replaying a record: store generation %d, want %d", got, r.gen)
	}
	info.RecordsReplayed++
	return nil
}

// replayBatch applies one add-all record through addAll (the store's own
// AddAll in recovery, the ontology's on a replica). Insertion replay
// re-interns every term in its original order, so the rebuilt dictionary
// assigns byte-identical TermIDs.
func replayBatch(r *record, addAll func([]rdf.Quad) (int, error)) error {
	added, err := addAll(r.quads)
	if err != nil {
		return fmt.Errorf("wal: replaying add batch: %w", err)
	}
	if added != len(r.quads) {
		return fmt.Errorf("wal: replaying add batch: %d of %d quads were duplicates", len(r.quads)-added, len(r.quads))
	}
	return nil
}

// removeStaleTemp deletes checkpoint temp files left by a crash mid-write.
func removeStaleTemp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "checkpoint-") && strings.HasSuffix(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
