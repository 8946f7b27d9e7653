package mdm

import (
	"fmt"
	"net/http"

	"bdi"
	"bdi/internal/core"
	"bdi/internal/replication"
	"bdi/internal/wrapper"
)

// This file wires the replication layer into the MDM API.
//
// A primary server calls EnableReplication to ship its WAL and checkpoints;
// a replica server (NewReplicaServer) serves the same read API against the
// state a replication.Replica maintains, rejecting every write with 403 and
// answering 503 while unsynchronized or beyond the staleness bound.

// NewReplicaServer returns a read-only MDM backend over a replica's
// replicated state. The registry is the replica's own (wrappers execute
// locally; the ontology they are resolved against is replicated), so
// queries are answerable on the replica exactly as on the primary. Until
// the replica's first successful synchronization the API answers 503.
func NewReplicaServer(rep *replication.Replica, reg *wrapper.Registry) *Server {
	return &Server{registry: reg, replica: rep}
}

// EnableReplication makes this (primary) server ship its WAL and
// checkpoints: mounts GET /api/replication{,/wal,/checkpoint} on the API
// handler. The primary must wrap the same WAL manager passed to
// EnableDurability.
func (s *Server) EnableReplication(p *replication.Primary) { s.primary = p }

// handleReplicaStatus serves GET /api/replication on a replica. Never
// staleness-gated: the status document is how operators find out WHY the
// replica is stale.
func (s *Server) handleReplicaStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.replica.Status())
}

// rejectWrite answers every mutating endpoint on a replica.
func (s *Server) rejectWrite(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusForbidden,
		fmt.Errorf("this server is a read replica of %s: writes must go to the primary", s.replica.Status().Primary))
}

// gated wraps a read handler with the replica admission check; on a primary
// it is the identity. Registered handlers never see an unsynchronized or
// over-stale replica.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	if s.replica == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.replicaReady(w) {
			return
		}
		h(w, r)
	}
}

// replicaReady enforces the staleness gate (503 with the reason) and
// refreshes the server's view of the replicated state.
func (s *Server) replicaReady(w http.ResponseWriter) bool {
	if stale, reason := s.replica.Stale(); stale {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("replica unavailable: %s", reason))
		return false
	}
	s.refreshReplicaView(s.replica.Ontology)
	return true
}

// refreshReplicaView adopts the replica's current ontology, as returned by
// current. Stream application mutates the ontology in place (reads keep
// working through the store's atomic snapshots, and the rewriting cache
// revalidates itself against the replicated delta log), but a checkpoint
// resynchronization swaps the whole ontology object — then a System is built
// around the new one and published with one compare-and-swap. The System is
// loaded before the ontology, so a published System only ever replaces one
// built from an ontology read earlier: concurrent refreshes never move the
// server back to an older ontology. A refresh that loses the swap retries
// against the winner's System.
func (s *Server) refreshReplicaView(current func() *core.Ontology) {
	for {
		v := s.sys.Load()
		o := current()
		if o == nil || (v != nil && v.Ontology == o) {
			return
		}
		if s.sys.CompareAndSwap(v, bdi.NewSystemWith(o, s.registry)) {
			return
		}
	}
}
