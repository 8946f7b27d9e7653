// Package replication implements WAL-shipped read replicas for the MDM
// service. A primary streams its write-ahead log frames and checkpoints
// over HTTP; replicas bootstrap from a checkpoint, follow the tail with
// long-polls, and apply every record through the same generation-guarded
// replay path crash recovery uses — so a converged replica is byte-identical
// to the primary: quads, dictionary TermIDs, MatchWithIDs output and query
// rewritings.
//
// # Robustness contract
//
// The wire is assumed hostile. Every shipped frame keeps its WAL CRC and is
// re-verified on arrival; a mismatch quarantines the rest of the chunk and
// refetches from the replica's applied generation. Connections are retried
// with exponential backoff plus jitter, resuming from the applied
// generation. A replica that falls behind the primary's pruned WAL window
// catches up from the newest checkpoint; a replica that is ahead of the
// primary (the primary crashed and lost an unsynced WAL tail) discards its
// state and resynchronizes the same way. Staleness — the replica's applied
// generation versus the primary's last observed one, and the time since the
// last successful contact — is tracked continuously; an optional gate flips
// the replica's read API to 503 when a bound is exceeded, and otherwise the
// replica degrades gracefully to stale-but-consistent snapshot reads.
package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"bdi/internal/wal"
)

// Wire constants shared by primary and replica.
const (
	// genHeader carries the primary's last appended generation on every
	// replication response; replicas derive their staleness bound from it.
	genHeader = "X-Bdi-Generation"
	// nextHeader carries the highest generation included in a /wal response
	// body (equal to the request's from when the replica is caught up).
	nextHeader = "X-Bdi-Next-From"

	// defaultPollWait bounds how long the primary parks a tail long-poll
	// with no new records before answering empty.
	defaultPollWait = 10 * time.Second
	maxPollWait     = 60 * time.Second
	// maxStreamBytes bounds one /wal response body (the frame that crosses
	// it is finished). The replica bounds its read with the same constant.
	maxStreamBytes = 4 << 20
)

// Primary serves a durable ontology's WAL and checkpoints to replicas and
// tracks which replicas have been seen. It is safe for concurrent use.
type Primary struct {
	manager *wal.Manager

	mu    sync.Mutex
	peers map[string]*peer
}

type peer struct {
	id         string
	addr       string
	generation uint64
	lastSeen   time.Time
}

// NewPrimary returns a Primary shipping the WAL and checkpoints of m.
func NewPrimary(m *wal.Manager) *Primary {
	return &Primary{manager: m, peers: map[string]*peer{}}
}

// PeerStatus is one replica as last seen by the primary.
type PeerStatus struct {
	ID                string `json:"id"`
	Addr              string `json:"addr"`
	Generation        uint64 `json:"generation"`
	Lag               uint64 `json:"lag"`
	LastSeenUnixMilli int64  `json:"lastSeenUnixMilli"`
}

// PrimaryStatus is the GET /api/replication document of a primary.
type PrimaryStatus struct {
	Role                     string       `json:"role"`
	Generation               uint64       `json:"generation"`
	OldestWALGeneration      uint64       `json:"oldestWalGeneration"`
	LastCheckpointGeneration uint64       `json:"lastCheckpointGeneration"`
	Replicas                 []PeerStatus `json:"replicas"`
}

// Status reports the primary's shipping window and known replicas.
func (p *Primary) Status() PrimaryStatus {
	gen := p.manager.LastAppendedGeneration()
	st := PrimaryStatus{Role: "primary", Generation: gen}
	if oldest, err := p.manager.OldestShippableGeneration(); err == nil {
		st.OldestWALGeneration = oldest
	}
	if _, ckGen, err := p.manager.LatestCheckpoint(); err == nil {
		st.LastCheckpointGeneration = ckGen
	}
	p.mu.Lock()
	for _, pe := range p.peers {
		ps := PeerStatus{
			ID:                pe.id,
			Addr:              pe.addr,
			Generation:        pe.generation,
			LastSeenUnixMilli: pe.lastSeen.UnixMilli(),
		}
		if gen > pe.generation {
			ps.Lag = gen - pe.generation
		}
		st.Replicas = append(st.Replicas, ps)
	}
	p.mu.Unlock()
	sort.Slice(st.Replicas, func(i, j int) bool { return st.Replicas[i].ID < st.Replicas[j].ID })
	return st
}

// notePeer records a replica contact for the status document.
func (p *Primary) notePeer(r *http.Request, gen uint64) {
	id := r.URL.Query().Get("id")
	if id == "" {
		id = r.RemoteAddr
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pe := p.peers[id]
	if pe == nil {
		pe = &peer{id: id}
		p.peers[id] = pe
	}
	pe.addr = r.RemoteAddr
	pe.generation = gen
	pe.lastSeen = time.Now()
	// Drop peers not seen for an hour so the map stays bounded.
	for key, old := range p.peers {
		if time.Since(old.lastSeen) > time.Hour {
			delete(p.peers, key)
		}
	}
}

// Handler returns a standalone handler exposing the replication endpoints:
//
//	GET /api/replication            status: generation, WAL window, replicas
//	GET /api/replication/wal        long-poll WAL frame stream (from, wait, max, id, gen)
//	GET /api/replication/checkpoint newest checkpoint file for catch-up
//
// mdm.Server mounts the same three handlers on its own mux.
func (p *Primary) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/replication", p.HandleStatus)
	mux.HandleFunc("GET /api/replication/wal", p.HandleWAL)
	mux.HandleFunc("GET /api/replication/checkpoint", p.HandleCheckpoint)
	return mux
}

// HandleStatus serves GET /api/replication.
func (p *Primary) HandleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, p.Status())
}

// HandleCheckpoint serves the newest checkpoint file. The body is the raw
// checkpoint (magic + trailing CRC intact), so the replica verifies the
// same checksum the recovery path would.
func (p *Primary) HandleCheckpoint(w http.ResponseWriter, r *http.Request) {
	path, gen, err := p.manager.LatestCheckpoint()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set(genHeader, strconv.FormatUint(p.manager.LastAppendedGeneration(), 10))
	w.Header().Set(nextHeader, strconv.FormatUint(gen, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// HandleWAL serves the frame stream: every WAL frame past ?from=, raw, with
// CRCs intact. With no new frames it parks up to ?wait= (long-poll) on the
// log's append notification, so a tail follower sees a record within one
// round trip of its commit. Responses:
//
//	200  raw frames (possibly empty after a full wait)
//	410  replica is behind the pruned WAL window — catch up from a checkpoint
//	409  replica is ahead of this log — primary lost writes; full resync
func (p *Primary) HandleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("replication: bad from parameter: %w", err))
		return
	}
	wait := defaultPollWait
	if s := q.Get("wait"); s != "" {
		if d, perr := time.ParseDuration(s); perr == nil && d >= 0 {
			wait = min(d, maxPollWait)
		}
	}
	p.notePeer(r, from)

	deadline := time.Now().Add(wait)
	for {
		frames, next, err := p.manager.ShipFrames(from, maxStreamBytes)
		switch {
		case errors.Is(err, wal.ErrShipBehind):
			writeJSONError(w, http.StatusGone, err)
			return
		case errors.Is(err, wal.ErrShipAhead):
			writeJSONError(w, http.StatusConflict, err)
			return
		case err != nil:
			writeJSONError(w, http.StatusInternalServerError, err)
			return
		}
		if len(frames) > 0 || !time.Now().Before(deadline) {
			w.Header().Set(genHeader, strconv.FormatUint(p.manager.LastAppendedGeneration(), 10))
			w.Header().Set(nextHeader, strconv.FormatUint(next, 10))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(frames)))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(frames)
			return
		}
		// Arm the notification, then re-check: a record appended between
		// ShipFrames and AppendNotify would otherwise be missed until the
		// one after it.
		notify := p.manager.AppendNotify()
		if p.manager.LastAppendedGeneration() > from {
			continue
		}
		select {
		case <-notify:
		case <-time.After(time.Until(deadline)):
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
