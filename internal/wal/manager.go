package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bdi/internal/core"
	"bdi/internal/store"
)

// Options configures a Manager.
type Options struct {
	// Sync selects the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// CheckpointEveryBytes triggers an automatic background checkpoint after
	// this many WAL bytes have been appended since the last one. 0 uses the
	// default (64 MiB); negative disables automatic checkpoints.
	CheckpointEveryBytes int64
}

const defaultCheckpointEveryBytes = 64 << 20

// Manager owns the durability state of one data directory: it journals
// every store insertion batch into the WAL (hooked in ahead of snapshot
// publication), writes checkpoints of pinned
// snapshots concurrently with live traffic, and performs recovery at Open.
type Manager struct {
	dir  string
	opts Options

	ontology *core.Ontology
	st       *store.Store
	log      *log
	lock     *dirLock

	recovery RecoveryInfo

	// ckptMu serializes checkpoint writers; ckptRunning lets the automatic
	// trigger skip instead of queueing behind a running checkpoint.
	ckptMu      sync.Mutex
	ckptRunning atomic.Bool
	closed      atomic.Bool

	// checkpoint bookkeeping, guarded by statMu.
	statMu          sync.Mutex
	lastCkptGen     uint64
	lastCkptTime    time.Time
	lastCkptBytes   int64
	ckptCount       uint64
	logBytesAtCkpt  uint64
	checkpointError string
}

// Open recovers the ontology persisted in dir (creating the directory and
// an initial checkpoint when it is fresh) and returns a Manager journaling
// every subsequent mutation. The recovered ontology is available via
// Ontology; the commit hook is attached before Open returns, so no write
// can slip past the log.
func Open(dir string, opts Options) (*Manager, error) {
	if opts.Sync == "" {
		opts.Sync = SyncBatch
	}
	if _, err := ParseSyncPolicy(string(opts.Sync)); err != nil {
		return nil, err
	}
	if opts.CheckpointEveryBytes == 0 {
		opts.CheckpointEveryBytes = defaultCheckpointEveryBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating data dir: %w", err)
	}
	// Exclusive advisory lock for the manager's lifetime: a second process
	// appending to the same segments would corrupt the generation sequence
	// beyond recovery.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	removeStaleTemp(dir)

	m := &Manager{dir: dir, opts: opts, lock: lock}
	fresh := false
	s, info, err := recoverDir(dir, true)
	switch {
	case err == nil:
		m.st = s
		m.ontology = core.RestoreOntology(s)
		m.recovery = info
	case errors.Is(err, errFreshDir):
		fresh = true
		m.ontology = core.NewOntology()
		m.st = m.ontology.Store()
	default:
		lock.release()
		return nil, err
	}

	l, err := openLog(dir, m.st.Generation(), opts.Sync)
	if err != nil {
		lock.release()
		return nil, err
	}
	m.log = l
	if err := syncDir(dir); err != nil {
		l.close()
		lock.release()
		return nil, fmt.Errorf("wal: fsyncing data dir: %w", err)
	}

	// A fresh dir gets an immediate checkpoint so recovery never depends on
	// rebuilding the baseline (metamodel) state from code: every data dir
	// always contains a checkpoint to replay from.
	if fresh {
		if _, err := m.Checkpoint(); err != nil {
			l.close()
			lock.release()
			return nil, err
		}
	} else {
		m.statMu.Lock()
		m.lastCkptGen = m.recovery.CheckpointGeneration
		m.statMu.Unlock()
	}

	m.st.SetCommitHook(m.onBatch)
	return m, nil
}

// Inspect performs read-only recovery of a data dir: the log files are not
// truncated, no segment is opened for appends and no hook is attached. It
// returns the recovered ontology and what recovery found.
func Inspect(dir string) (*core.Ontology, RecoveryInfo, error) {
	s, info, err := recoverDir(dir, false)
	if err != nil {
		return nil, info, err
	}
	return core.RestoreOntology(s), info, nil
}

// Ontology returns the recovered (or freshly initialized) ontology the
// manager journals.
func (m *Manager) Ontology() *core.Ontology { return m.ontology }

// Recovery returns what recovery at Open found.
func (m *Manager) Recovery() RecoveryInfo { return m.recovery }

// onBatch is the store commit hook: journal the batch as an add-all record
// before its snapshot is published.
func (m *Manager) onBatch(b store.Batch) error {
	if err := m.log.append(&record{gen: b.Generation, quads: b.Quads}); err != nil {
		return err
	}
	m.maybeAutoCheckpoint()
	return nil
}

// maybeAutoCheckpoint fires a background checkpoint when enough WAL bytes
// accumulated since the last one. It runs on the write path (under the
// store mutex), so the checkpoint itself is handed to a goroutine; the
// single-flight guard keeps concurrent triggers from stacking.
func (m *Manager) maybeAutoCheckpoint() {
	if m.opts.CheckpointEveryBytes <= 0 || m.closed.Load() {
		return
	}
	_, bytes, _ := m.log.counters()
	m.statMu.Lock()
	due := int64(bytes-m.logBytesAtCkpt) >= m.opts.CheckpointEveryBytes
	m.statMu.Unlock()
	if !due || !m.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer m.ckptRunning.Store(false)
		if m.closed.Load() {
			return
		}
		if _, err := m.checkpoint(); err != nil {
			m.statMu.Lock()
			m.checkpointError = err.Error()
			m.statMu.Unlock()
		}
	}()
}

// CheckpointInfo reports one written checkpoint.
type CheckpointInfo struct {
	Generation      uint64        `json:"generation"`
	Quads           int           `json:"quads"`
	Bytes           int64         `json:"bytes"`
	Duration        time.Duration `json:"durationNs"`
	SegmentsPruned  int           `json:"segmentsPruned"`
	CheckpointsKept int           `json:"checkpointsKept"`
}

// Checkpoint serializes a pinned snapshot of the current state to a fresh
// checkpoint file, rotates the WAL and prunes segments and checkpoints the
// new one supersedes. It never blocks readers — the snapshot is immutable —
// and writers only contend on the brief segment swap; they keep appending
// (and fsyncing per policy) while the checkpoint streams out.
func (m *Manager) Checkpoint() (CheckpointInfo, error) {
	return m.checkpoint()
}

func (m *Manager) checkpoint() (CheckpointInfo, error) {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	start := time.Now()

	// Pin the state: snapshot first, then the dictionary table (which then
	// covers every TermID the snapshot references).
	sn := m.st.Snapshot()
	p := snapshotPayload(sn, sn.Dict().Terms())
	size, err := writeCheckpointFile(m.dir, p)
	if err != nil {
		return CheckpointInfo{}, err
	}
	info := CheckpointInfo{
		Generation: sn.Generation(), Quads: sn.Len(), Bytes: size, Duration: time.Since(start),
	}

	// The rotation base is raised inside rotate to the highest generation
	// already appended, so an in-flight commit's record can never be
	// stranded in a segment the recovery skip-rule drops.
	if err := m.log.rotate(m.st.Generation()); err != nil {
		return info, err
	}
	pruned, kept, err := m.prune(sn.Generation())
	if err != nil {
		return info, err
	}
	info.SegmentsPruned = pruned
	info.CheckpointsKept = kept

	_, bytes, _ := m.log.counters()
	m.statMu.Lock()
	m.lastCkptGen = info.Generation
	m.lastCkptTime = time.Now()
	m.lastCkptBytes = size
	m.ckptCount++
	m.logBytesAtCkpt = bytes
	m.checkpointError = ""
	m.statMu.Unlock()
	walCheckpointsTotal.Inc()
	walCheckpointSeconds.Observe(time.Since(start))
	return info, nil
}

// prune deletes all but the two newest checkpoints, then deletes WAL
// segments fully covered by the *oldest retained* checkpoint. Pruning
// against the oldest survivor (not the checkpoint just written) keeps the
// WAL suffix the fallback checkpoint needs: if a crash corrupts the newest
// file, recovery restores the previous one and replays forward. A segment
// is only deleted when the next segment's base shows every record in it is
// at or before that bound.
func (m *Manager) prune(gen uint64) (segmentsPruned, checkpointsKept int, err error) {
	ckpts, err := listSeqFiles(m.dir, checkpointPrefix, checkpointSuffix)
	if err != nil {
		return 0, 0, err
	}
	const keep = 2
	for i := 0; i < len(ckpts)-keep; i++ {
		if err := os.Remove(ckpts[i].path); err != nil {
			return 0, 0, err
		}
	}
	kept := ckpts[max(0, len(ckpts)-keep):]
	checkpointsKept = len(kept)
	bound := gen
	if len(kept) > 0 && kept[0].seq < bound {
		bound = kept[0].seq
	}
	segs, err := listSeqFiles(m.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return 0, checkpointsKept, err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].seq <= bound {
			if err := os.Remove(segs[i].path); err != nil {
				return segmentsPruned, checkpointsKept, err
			}
			segmentsPruned++
		}
	}
	return segmentsPruned, checkpointsKept, syncDir(m.dir)
}

// Sync forces an fsync of the open WAL segment regardless of policy.
func (m *Manager) Sync() error { return m.log.sync() }

// Close writes a final checkpoint, detaches the commit hook and closes the
// log.
// Callers must quiesce writers first (e.g. after http.Server.Shutdown):
// batches published after the final checkpoint's pin are still journaled,
// but ones issued after Close returns would be rejected fail-stop.
func (m *Manager) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	_, ckErr := m.checkpoint()
	m.st.SetCommitHook(nil)
	closeErr := m.log.close()
	lockErr := m.lock.release()
	if ckErr != nil {
		return ckErr
	}
	if closeErr != nil {
		return closeErr
	}
	return lockErr
}

// Abort closes the log files without a final checkpoint or fsync — the
// crash-simulation path used by fault-injection tests. The on-disk state is
// whatever the fsync policy happened to persist.
func (m *Manager) Abort() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	m.st.SetCommitHook(nil)
	closeErr := m.log.close()
	if err := m.lock.release(); err != nil && closeErr == nil {
		closeErr = err
	}
	return closeErr
}

// Stats is a point-in-time summary of the durability subsystem for the
// GET /api/durability endpoint and bdictl.
type Stats struct {
	Dir        string `json:"dir"`
	SyncPolicy string `json:"syncPolicy"`

	RecordsAppended uint64 `json:"recordsAppended"`
	BytesAppended   uint64 `json:"bytesAppended"`
	Fsyncs          uint64 `json:"fsyncs"`

	// LogError reports a latched fail-stop condition: a write or fsync
	// failed, every subsequent mutation is being rejected, and the process
	// should be restarted (recovery replays the intact prefix). Empty in
	// healthy operation.
	LogError string `json:"logError,omitempty"`

	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segmentBytes"`
	Checkpoints  int   `json:"checkpoints"`

	LastCheckpointGeneration uint64 `json:"lastCheckpointGeneration"`
	LastCheckpointUnixMilli  int64  `json:"lastCheckpointUnixMilli,omitempty"`
	LastCheckpointBytes      int64  `json:"lastCheckpointBytes,omitempty"`
	CheckpointsWritten       uint64 `json:"checkpointsWritten"`
	CheckpointError          string `json:"checkpointError,omitempty"`

	StoreGeneration uint64 `json:"storeGeneration"`
	StoreQuads      int    `json:"storeQuads"`

	Recovery RecoveryInfo `json:"recovery"`
}

// Stats summarizes the manager's current state.
func (m *Manager) Stats() Stats {
	records, bytes, fsyncs := m.log.counters()
	st := Stats{
		Dir:             m.dir,
		SyncPolicy:      string(m.opts.Sync),
		RecordsAppended: records,
		BytesAppended:   bytes,
		Fsyncs:          fsyncs,
		StoreGeneration: m.st.Generation(),
		StoreQuads:      m.st.Len(),
		Recovery:        m.recovery,
	}
	if err := m.log.failure(); err != nil {
		st.LogError = err.Error()
	}
	if segs, err := listSeqFiles(m.dir, segmentPrefix, segmentSuffix); err == nil {
		st.Segments = len(segs)
		for _, s := range segs {
			if fi, err := os.Stat(s.path); err == nil {
				st.SegmentBytes += fi.Size()
			}
		}
	}
	if ckpts, err := listSeqFiles(m.dir, checkpointPrefix, checkpointSuffix); err == nil {
		st.Checkpoints = len(ckpts)
	}
	m.statMu.Lock()
	st.LastCheckpointGeneration = m.lastCkptGen
	if !m.lastCkptTime.IsZero() {
		st.LastCheckpointUnixMilli = m.lastCkptTime.UnixMilli()
	}
	st.LastCheckpointBytes = m.lastCkptBytes
	st.CheckpointsWritten = m.ckptCount
	st.CheckpointError = m.checkpointError
	m.statMu.Unlock()
	return st
}
