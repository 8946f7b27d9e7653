package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append: a batch is durable before its
	// snapshot is published. Safest, slowest.
	SyncAlways SyncPolicy = "always"
	// SyncBatch lets appends return after the buffered write and fsyncs from
	// a background flusher every batchInterval: group commit. A crash can
	// lose at most the records of the last interval; the store itself is
	// never inconsistent (recovery truncates the torn tail to a batch
	// boundary). The default.
	SyncBatch SyncPolicy = "batch"
	// SyncOff never fsyncs explicitly; the OS page cache decides. Useful for
	// bulk loads and benchmarks.
	SyncOff SyncPolicy = "off"
)

// batchInterval is the SyncBatch group-commit interval.
const batchInterval = 10 * time.Millisecond

// ParseSyncPolicy validates a -wal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncBatch, SyncOff:
		return SyncPolicy(s), nil
	default:
		return "", fmt.Errorf("wal: unknown sync policy %q (want always, batch or off)", s)
	}
}

const (
	segmentPrefix    = "wal-"
	segmentSuffix    = ".log"
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
)

// segmentName returns the file name of the segment whose records all have
// generations strictly greater than base.
func segmentName(base uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, base, segmentSuffix)
}

func checkpointName(gen uint64) string {
	return fmt.Sprintf("%s%016x%s", checkpointPrefix, gen, checkpointSuffix)
}

// parseSeq extracts the hex sequence number from a segment or checkpoint
// file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSeqFiles returns the matching files of dir sorted by their sequence
// number.
func listSeqFiles(dir, prefix, suffix string) ([]seqFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []seqFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, seqFile{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

type seqFile struct {
	seq  uint64
	path string
}

// segFile is the subset of *os.File the append path uses. Production code
// always opens real files via openSegmentFile; the disk-fault tests
// substitute implementations that fail writes or fsyncs mid-batch.
type segFile interface {
	io.Writer
	Sync() error
	Close() error
}

// openSegmentFile opens a WAL segment for appending. A package variable so
// fault-injection tests can wrap the returned file with failure injectors.
var openSegmentFile = func(path string) (segFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// log is the append side of the WAL: one open segment file, an encode
// buffer, and the fsync policy machinery. It is safe for concurrent use.
type log struct {
	dir    string
	policy SyncPolicy

	mu      sync.Mutex
	f       segFile
	base    uint64        // generation base of the open segment
	lastGen uint64        // highest generation ever appended (any segment)
	notify  chan struct{} // closed and replaced on every append (tail followers)
	buf     []byte        // reusable encode buffer
	dirty   bool          // bytes written since the last fsync
	closed  bool
	stopped chan struct{} // closes when the flusher must stop
	done    chan struct{} // closes when the flusher has stopped

	// failed latches the first write or fsync error. Once set, every
	// subsequent append is rejected: a partial frame on disk followed by
	// more acknowledged records would make recovery silently truncate the
	// later records away, so the log goes fail-stop instead.
	failed error

	// counters, guarded by mu.
	records uint64
	bytes   uint64
	fsyncs  uint64
}

// openLog opens a fresh segment for appends, with records starting after
// generation base.
func openLog(dir string, base uint64, policy SyncPolicy) (*log, error) {
	f, err := openSegmentFile(filepath.Join(dir, segmentName(base)))
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	l := &log{dir: dir, policy: policy, f: f, base: base, notify: make(chan struct{})}
	if policy == SyncBatch {
		l.stopped = make(chan struct{})
		l.done = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// append encodes and writes one record. Under SyncAlways the record is on
// stable storage when append returns; under SyncBatch and SyncOff it has
// been handed to the OS.
func (l *log) append(r *record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.failed != nil {
		return fmt.Errorf("wal: log is fail-stopped after an earlier error: %w", l.failed)
	}
	l.buf = appendRecord(l.buf[:0], r)
	if _, err := l.f.Write(l.buf); err != nil {
		l.failed = err
		return fmt.Errorf("wal: appending the record of generation %d (log now fail-stop): %w", r.gen, err)
	}
	if r.gen > l.lastGen {
		l.lastGen = r.gen
	}
	l.records++
	l.bytes += uint64(len(l.buf))
	walAppendsTotal.Inc()
	walAppendBytesTotal.Add(int64(len(l.buf)))
	l.dirty = true
	if l.policy == SyncAlways {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			l.failed = err
			return fmt.Errorf("wal: fsync (log now fail-stop): %w", err)
		}
		walFsyncSeconds.Observe(time.Since(start))
		walFsyncsTotal.Inc()
		l.fsyncs++
		l.dirty = false
	}
	// Wake tail followers (replication long-polls) only after the record is
	// fully in the segment file, so a woken reader always finds the frame.
	close(l.notify)
	l.notify = make(chan struct{})
	return nil
}

// appendNotify returns a channel that is closed when the next record lands
// in a segment file. Tail followers re-arm by calling it again.
func (l *log) appendNotify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// sync forces an fsync of the open segment regardless of policy.
func (l *log) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *log) syncLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if l.closed || !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		// Latch it: after a failed fsync the kernel may have dropped the
		// dirty pages, so a later "successful" retry would not make the
		// data durable. Every subsequent append is rejected; Stats surfaces
		// the error.
		l.failed = err
		return err
	}
	walFsyncSeconds.Observe(time.Since(start))
	walFsyncsTotal.Inc()
	l.fsyncs++
	l.dirty = false
	return nil
}

// flushLoop is the SyncBatch group-commit flusher.
func (l *log) flushLoop() {
	defer close(l.done)
	t := time.NewTicker(batchInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopped:
			return
		case <-t.C:
			l.mu.Lock()
			_ = l.syncLocked()
			l.mu.Unlock()
		}
	}
}

// rotate closes the open segment (fsyncing it) and opens a fresh one whose
// records start after generation base. Appends block only for the swap.
// The effective base is raised to the highest generation ever appended:
// the caller derives base from the store's published generation, but a
// commit hook may already have appended the next generation's record
// (append happens before publication) — naming the new segment below that
// record's generation would let recovery's segment-skip rule drop a
// committed, possibly fsync-acknowledged batch.
func (l *log) rotate(base uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.lastGen > base {
		base = l.lastGen
	}
	if err := l.syncLocked(); err != nil {
		return fmt.Errorf("wal: fsync before rotation: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing rotated segment: %w", err)
	}
	f, err := openSegmentFile(filepath.Join(l.dir, segmentName(base)))
	if err != nil {
		return fmt.Errorf("wal: opening rotated segment: %w", err)
	}
	l.f = f
	l.base = base
	l.dirty = false
	return nil
}

// close fsyncs and closes the open segment and stops the flusher.
func (l *log) close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	syncErr := l.syncLocked()
	l.closed = true
	closeErr := l.f.Close()
	stopped := l.stopped
	l.mu.Unlock()
	if stopped != nil {
		close(stopped)
		<-l.done
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// counters returns the append counters.
func (l *log) counters() (records, bytes, fsyncs uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records, l.bytes, l.fsyncs
}

// failure returns the latched fail-stop error, or nil.
func (l *log) failure() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// syncDir fsyncs a directory so renames and creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
