package replication

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bdi/internal/core"
	"bdi/internal/wal"
)

// Options configures a Replica. Only Primary is required.
type Options struct {
	// Primary is the base URL of the primary's API (e.g. http://host:8080).
	Primary string
	// ID identifies this replica to the primary's status endpoint. Defaults
	// to the process hostname:pid shape is unnecessary — a random hex tag.
	ID string

	// MaxLag is the staleness gate in generations: when the primary's last
	// observed generation exceeds the replica's applied one by more than
	// this, Stale reports true (reads answer 503). 0 disables the gate —
	// the replica degrades gracefully to stale snapshot reads.
	MaxLag uint64
	// MaxAge is the staleness gate on contact: when the last successful
	// exchange with the primary is older than this, Stale reports true
	// (during a partition the lag bound alone cannot move — the replica no
	// longer knows the primary's generation). 0 disables it.
	MaxAge time.Duration

	// RequestTimeout bounds checkpoint fetches and, added on top of
	// PollWait, every stream request (default 10s).
	RequestTimeout time.Duration
	// PollWait is the server-side long-poll wait requested for tail
	// follows (default 10s).
	PollWait time.Duration
	// BackoffMin/BackoffMax bound the exponential reconnect backoff
	// (defaults 100ms and 5s); each sleep gets up to 50% random jitter.
	BackoffMin, BackoffMax time.Duration

	// Client, when set, issues the HTTP requests (fault-injection tests
	// substitute transports). Per-request timeouts are applied via context
	// regardless.
	Client *http.Client
	// Logf, when set, receives replica life-cycle messages (reconnects,
	// resyncs, quarantined frames). Nil silences them.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	out.Primary = strings.TrimRight(out.Primary, "/")
	if out.ID == "" {
		out.ID = fmt.Sprintf("replica-%08x", rand.Uint32())
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 10 * time.Second
	}
	if out.PollWait <= 0 {
		out.PollWait = defaultPollWait
	}
	if out.BackoffMin <= 0 {
		out.BackoffMin = 100 * time.Millisecond
	}
	if out.BackoffMax <= 0 {
		out.BackoffMax = 5 * time.Second
	}
	if out.Client == nil {
		out.Client = &http.Client{}
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Stats counts what the replica has done since it started.
type Stats struct {
	FramesApplied      uint64 `json:"framesApplied"`
	CheckpointsFetched uint64 `json:"checkpointsFetched"`
	Reconnects         uint64 `json:"reconnects"`
	CorruptFrames      uint64 `json:"corruptFrames"`
	GapResyncs         uint64 `json:"gapResyncs"`
	DivergenceResyncs  uint64 `json:"divergenceResyncs"`
}

// Status is the GET /api/replication document of a replica.
type Status struct {
	Role                 string `json:"role"`
	ID                   string `json:"id"`
	Primary              string `json:"primary"`
	Synced               bool   `json:"synced"`
	Generation           uint64 `json:"generation"`
	PrimaryGeneration    uint64 `json:"primaryGeneration"`
	Lag                  uint64 `json:"lag"`
	LastContactUnixMilli int64  `json:"lastContactUnixMilli,omitempty"`
	Stale                bool   `json:"stale"`
	StaleReason          string `json:"staleReason,omitempty"`
	MaxLag               uint64 `json:"maxLag,omitempty"`
	MaxAgeMillis         int64  `json:"maxAgeMillis,omitempty"`
	Stats                Stats  `json:"stats"`
}

// Replica follows one primary: it bootstraps from a shipped checkpoint,
// applies the WAL frame stream through the generation-guarded replay path,
// and keeps doing so across connection kills, corrupt frames, primary
// restarts and its own fall-behind. Reads (Ontology) always observe a
// consistent snapshot of some primary generation.
type Replica struct {
	opts Options

	// ontology is the replica's current state; swapped atomically on
	// checkpoint (re)synchronization, mutated in place by frame application
	// (store writes publish snapshots atomically, so readers are safe).
	ontology atomic.Pointer[core.Ontology]

	primaryGen  atomic.Uint64 // last generation observed on the primary
	lastContact atomic.Int64  // unix nanos of the last successful exchange

	mu    sync.Mutex // guards stats
	stats Stats

	// baseCtx parents every request context and is cancelled by Close, so
	// a Close during a parked long-poll interrupts the in-flight request
	// instead of waiting out the poll window.
	baseCtx context.Context
	cancel  context.CancelFunc

	done    chan struct{}
	stopped chan struct{}
	closed  atomic.Bool
}

// errNeedCheckpoint tells the sync loop to (re)bootstrap from a checkpoint.
// resyncs, when set, is the Stats counter (GapResyncs or DivergenceResyncs)
// the loop bumps once the bootstrap has swapped the state in: a counted
// resync means the replica no longer serves the abandoned history.
type errNeedCheckpoint struct {
	reason  string
	resyncs *uint64
}

func (e errNeedCheckpoint) Error() string { return e.reason }

// Start begins replicating from opts.Primary in a background goroutine and
// returns immediately: a replica comes up (and serves 503s) even when the
// primary is unreachable, and synchronizes as soon as it can. Close stops
// it.
func Start(opts Options) *Replica {
	r := &Replica{
		opts:    opts.withDefaults(),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	r.baseCtx, r.cancel = context.WithCancel(context.Background())
	go r.run()
	return r
}

// Close stops the sync loop — interrupting any in-flight long-poll — and
// waits for it to exit.
func (r *Replica) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(r.done)
	r.cancel()
	<-r.stopped
	return nil
}

// Ontology returns the replica's current state, or nil before the first
// successful checkpoint bootstrap. The pointer identity changes only on
// checkpoint resynchronization; stream application mutates it in place
// through the store's atomic snapshot publication.
func (r *Replica) Ontology() *core.Ontology { return r.ontology.Load() }

// Generation returns the replica's applied store generation (0 before the
// first bootstrap).
func (r *Replica) Generation() uint64 {
	if o := r.Ontology(); o != nil {
		return o.Store().Generation()
	}
	return 0
}

// Stale reports whether the configured staleness gate is exceeded, with a
// reason. An unsynchronized replica is always stale; with no gates
// configured a synchronized replica never is (stale-but-consistent reads).
func (r *Replica) Stale() (bool, string) {
	o := r.Ontology()
	if o == nil {
		return true, "replica has not completed its initial synchronization"
	}
	if r.opts.MaxLag > 0 {
		if pg, lg := r.primaryGen.Load(), o.Store().Generation(); pg > lg && pg-lg > r.opts.MaxLag {
			return true, fmt.Sprintf("replica is %d generations behind the primary (max %d)", pg-lg, r.opts.MaxLag)
		}
	}
	if r.opts.MaxAge > 0 {
		last := r.lastContact.Load()
		if last == 0 || time.Since(time.Unix(0, last)) > r.opts.MaxAge {
			return true, fmt.Sprintf("no successful contact with the primary for over %s", r.opts.MaxAge)
		}
	}
	return false, ""
}

// Status reports the replica's sync state for GET /api/replication.
func (r *Replica) Status() Status {
	st := Status{
		Role:         "replica",
		ID:           r.opts.ID,
		Primary:      r.opts.Primary,
		Generation:   r.Generation(),
		MaxLag:       r.opts.MaxLag,
		MaxAgeMillis: r.opts.MaxAge.Milliseconds(),
	}
	st.Synced = r.Ontology() != nil
	st.PrimaryGeneration = r.primaryGen.Load()
	if st.PrimaryGeneration > st.Generation {
		st.Lag = st.PrimaryGeneration - st.Generation
	}
	if last := r.lastContact.Load(); last != 0 {
		st.LastContactUnixMilli = time.Unix(0, last).UnixMilli()
	}
	st.Stale, st.StaleReason = r.Stale()
	r.mu.Lock()
	st.Stats = r.stats
	r.mu.Unlock()
	return st
}

// WaitForGeneration blocks until the replica's applied generation reaches
// gen or the timeout elapses.
func (r *Replica) WaitForGeneration(gen uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if r.Generation() >= gen {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication: replica %s stuck at generation %d, want %d (status: %+v)",
				r.opts.ID, r.Generation(), gen, r.Status())
		}
		select {
		case <-r.done:
			return fmt.Errorf("replication: replica %s closed at generation %d, want %d", r.opts.ID, r.Generation(), gen)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// run is the sync loop: bootstrap from a checkpoint, then stream frames,
// reconnecting with exponential backoff plus jitter on any failure and
// falling back to a fresh checkpoint when behind the pruned WAL window,
// when a generation gap appears, or when the primary lost writes.
func (r *Replica) run() {
	defer close(r.stopped)
	backoff := r.opts.BackoffMin
	needCheckpoint := true
	var resyncs *uint64 // counter owed for the resync in progress
	for {
		select {
		case <-r.done:
			return
		default:
		}
		if needCheckpoint {
			if err := r.fetchCheckpoint(); err != nil {
				r.opts.Logf("replication: %s: checkpoint bootstrap failed: %v (retrying in ~%s)", r.opts.ID, err, backoff)
				if !r.sleep(&backoff) {
					return
				}
				continue
			}
			needCheckpoint = false
			if resyncs != nil {
				r.mu.Lock()
				*resyncs++
				r.mu.Unlock()
				resyncs = nil
			}
			backoff = r.opts.BackoffMin
			r.opts.Logf("replication: %s: synchronized from checkpoint at generation %d", r.opts.ID, r.Generation())
		}
		err := r.streamOnce()
		switch e := err.(type) {
		case nil:
			backoff = r.opts.BackoffMin
		case errNeedCheckpoint:
			r.opts.Logf("replication: %s: resynchronizing from checkpoint: %s", r.opts.ID, e.reason)
			needCheckpoint, resyncs = true, e.resyncs
		default:
			r.mu.Lock()
			r.stats.Reconnects++
			r.mu.Unlock()
			r.opts.Logf("replication: %s: stream error: %v (reconnecting in ~%s)", r.opts.ID, err, backoff)
			if !r.sleep(&backoff) {
				return
			}
		}
	}
}

// sleep waits for the current backoff (with up to 50% jitter), doubling it
// toward BackoffMax. Returns false when the replica is closing.
func (r *Replica) sleep(backoff *time.Duration) bool {
	d := *backoff
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	*backoff = min(*backoff*2, r.opts.BackoffMax)
	select {
	case <-r.done:
		return false
	case <-time.After(d):
		return true
	}
}

func (r *Replica) get(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	u := r.opts.Primary + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return r.opts.Client.Do(req)
}

// fetchCheckpoint downloads and restores the primary's newest checkpoint,
// swapping the replica's ontology wholesale. Used for the initial
// bootstrap, for catch-up past a pruned WAL window, and for divergence
// resync after a primary lost writes.
func (r *Replica) fetchCheckpoint() error {
	ctx, cancel := context.WithTimeout(r.baseCtx, r.opts.RequestTimeout)
	defer cancel()
	q := url.Values{"id": {r.opts.ID}}
	resp, err := r.get(ctx, "/api/replication/checkpoint", q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replication: checkpoint fetch: primary answered %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("replication: reading checkpoint body: %w", err)
	}
	o, err := wal.RestoreCheckpoint(data)
	if err != nil {
		// Corrupted in flight (or a torn response): the CRC caught it;
		// retry with backoff.
		r.mu.Lock()
		r.stats.CorruptFrames++
		r.mu.Unlock()
		return fmt.Errorf("replication: shipped checkpoint rejected: %w", err)
	}
	r.mu.Lock()
	r.stats.CheckpointsFetched++
	r.mu.Unlock()
	r.ontology.Store(o)
	r.noteContact(resp)
	return nil
}

// streamOnce issues one long-poll fetch and applies what it returns.
func (r *Replica) streamOnce() error {
	o := r.Ontology()
	from := o.Store().Generation()
	ctx, cancel := context.WithTimeout(r.baseCtx, r.opts.PollWait+r.opts.RequestTimeout)
	defer cancel()
	q := url.Values{
		"from": {strconv.FormatUint(from, 10)},
		"wait": {r.opts.PollWait.String()},
		"id":   {r.opts.ID},
	}
	resp, err := r.get(ctx, "/api/replication/wal", q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		r.noteContact(resp)
		return errNeedCheckpoint{reason: fmt.Sprintf("behind the pruned WAL window (replica at generation %d)", from)}
	case http.StatusConflict:
		// The primary's log ends before our generation: it lost writes we
		// already applied (e.g. an unsynced tail torn off by a crash).
		// Staying on our state would fork history — discard and follow the
		// primary's.
		r.noteContact(resp)
		return errNeedCheckpoint{fmt.Sprintf("diverged: primary's log ends before replica generation %d", from), &r.stats.DivergenceResyncs}
	default:
		return fmt.Errorf("replication: stream fetch: primary answered %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxStreamBytes+(16<<20)))
	if err != nil {
		return fmt.Errorf("replication: reading stream body: %w", err)
	}
	r.noteContact(resp)
	return r.applyFrames(o, body)
}

// applyFrames decodes and applies one shipped chunk, frame by frame. Every
// frame's CRC is re-verified; the first bad frame quarantines the rest of
// the chunk (applied prefix is kept — application is per-record atomic) and
// the next poll refetches from the applied generation. A generation gap
// (records skipped by pruning between listing and reading on the primary)
// forces a checkpoint resync.
func (r *Replica) applyFrames(o *core.Ontology, body []byte) error {
	start := time.Now()
	defer func() { applySeconds.Observe(time.Since(start)) }()
	off := 0
	for off < len(body) {
		rec, n, err := wal.DecodeFrame(body[off:])
		if err != nil {
			r.mu.Lock()
			r.stats.CorruptFrames++
			r.mu.Unlock()
			r.opts.Logf("replication: %s: corrupt frame at chunk offset %d quarantined (%v); refetching", r.opts.ID, off, err)
			return nil // resume from applied generation on the next poll
		}
		off += n
		cur := o.Store().Generation()
		switch {
		case rec.Generation <= cur:
			continue // duplicate of something we already applied
		case rec.Generation != cur+1:
			return errNeedCheckpoint{fmt.Sprintf("generation gap: replica at %d, next shipped record publishes %d", cur, rec.Generation), &r.stats.GapResyncs}
		}
		if err := rec.Apply(o); err != nil {
			// A record that decodes but cannot replay means our state
			// diverged from the primary's history — resync wholesale.
			return errNeedCheckpoint{fmt.Sprintf("replaying the record of generation %d: %v", rec.Generation, err), &r.stats.DivergenceResyncs}
		}
		r.mu.Lock()
		r.stats.FramesApplied++
		r.mu.Unlock()
	}
	return nil
}

// noteContact records a successful exchange and the primary generation it
// reported.
func (r *Replica) noteContact(resp *http.Response) {
	if g := resp.Header.Get(genHeader); g != "" {
		if v, err := strconv.ParseUint(g, 10, 64); err == nil {
			r.primaryGen.Store(v)
		}
	}
	r.lastContact.Store(time.Now().UnixNano())
}
