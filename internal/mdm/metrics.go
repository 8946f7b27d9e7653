package mdm

import (
	"fmt"
	"net/http"

	"bdi/internal/core"
	"bdi/internal/obs"
)

// This file is the server's scrape surface: GET /metrics renders the
// process-global obs registry (hot-path counters and histograms owned by the
// instrumented packages) followed by per-server series the handler mirrors
// from existing statistics at scrape time — admission pools, outcome
// counters, rewrite-cache stats, store snapshot state, the WAL manager and
// the replication role. GET /api/queries/trace lists the slowest retained
// request traces; GET /api/queries/trace/{id} returns one span tree. Like
// /api/queries/stats, none of these endpoints are governed or
// staleness-gated: observability must keep working under overload and on a
// stale replica.

// Process-wide request metrics, bumped by the lifecycle middleware.
var (
	requestsTotal = obs.NewCounter("bdi_query_requests_total",
		"Requests entering the lifecycle middleware (admitted or shed).")
	queryDurationSeconds = obs.NewHistogram("bdi_query_duration_seconds",
		"End-to-end handler latency of governed requests.")
	queueWaitSeconds = obs.NewHistogram("bdi_governor_queue_wait_seconds",
		"Time from arrival to pool admission (or shed).")
	slowQueriesTotal = obs.NewCounter("bdi_query_slow_total",
		"Requests slower than the configured slow-query threshold.")
)

// handleMetrics serves GET /metrics in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
	t := obs.NewTextWriter(w)
	s.writeGovernorMetrics(t)
	s.writeCacheMetrics(t)
	s.writeStoreMetrics(t)
	s.writeWALMetrics(t)
	s.writeReplicationMetrics(t)
}

func (s *Server) writeGovernorMetrics(t *obs.TextWriter) {
	outcomes := map[string]uint64{
		"completed":        s.outcomes.completed.Load(),
		"deadlineExceeded": s.outcomes.deadlineExceeded.Load(),
		"budgetExceeded":   s.outcomes.budgetExceeded.Load(),
		"clientCancelled":  s.outcomes.clientCancelled.Load(),
		"failed":           s.outcomes.failed.Load(),
	}
	for _, o := range []string{"completed", "deadlineExceeded", "budgetExceeded", "clientCancelled", "failed"} {
		t.Counter("bdi_query_outcomes_total", "Governed requests by final outcome.",
			obs.Labels{"outcome": o}, int64(outcomes[o]))
	}
	if s.governor == nil {
		return
	}
	pools := map[string]PoolStats{
		PoolRead:  s.governor.read.stats(),
		PoolWrite: s.governor.write.stats(),
		PoolAdmin: s.governor.admin.stats(),
	}
	for _, name := range []string{PoolRead, PoolWrite, PoolAdmin} {
		st := pools[name]
		l := obs.Labels{"pool": name}
		t.Counter("bdi_governor_admitted_total", "Requests admitted per pool.", l, int64(st.Admitted))
	}
	for _, name := range []string{PoolRead, PoolWrite, PoolAdmin} {
		t.Counter("bdi_governor_shed_total", "Requests shed per pool (full or timed-out queue).",
			obs.Labels{"pool": name}, int64(pools[name].Shed))
	}
	for _, name := range []string{PoolRead, PoolWrite, PoolAdmin} {
		t.Gauge("bdi_governor_inflight_requests", "Requests currently holding a pool slot.",
			obs.Labels{"pool": name}, int64(pools[name].InFlight))
	}
	for _, name := range []string{PoolRead, PoolWrite, PoolAdmin} {
		t.Gauge("bdi_governor_queue_depth_requests", "Requests currently queued per pool.",
			obs.Labels{"pool": name}, int64(pools[name].QueueDepth))
	}
	for _, name := range []string{PoolRead, PoolWrite, PoolAdmin} {
		t.Gauge("bdi_governor_pool_size_requests", "Concurrency bound per pool (0: ungoverned).",
			obs.Labels{"pool": name}, int64(pools[name].Size))
	}
}

func (s *Server) writeCacheMetrics(t *obs.TextWriter) {
	v := s.sys.Load()
	if v == nil {
		return
	}
	st := v.CacheStats()
	t.Counter("bdi_rewrite_cache_hits_total", "Rewrite-cache hits.", nil, int64(st.Hits))
	t.Counter("bdi_rewrite_cache_misses_total", "Rewrite-cache misses.", nil, int64(st.Misses))
	t.Counter("bdi_rewrite_cache_unit_hits_total", "Intra-concept unit cache hits.", nil, int64(st.UnitHits))
	t.Counter("bdi_rewrite_cache_unit_misses_total", "Intra-concept unit cache misses (rebuilds).", nil, int64(st.UnitMisses))
	t.Counter("bdi_rewrite_cache_entries_retained_total", "Cached rewritings that survived releases.", nil, int64(st.EntriesRetained))
	t.Counter("bdi_rewrite_cache_entries_invalidated_total", "Cached rewritings retired by releases.", nil, int64(st.EntriesInvalidated))
	t.Counter("bdi_rewrite_cache_units_retained_total", "Cached units that survived releases.", nil, int64(st.UnitsRetained))
	t.Counter("bdi_rewrite_cache_units_invalidated_total", "Cached units retired by releases.", nil, int64(st.UnitsInvalidated))
	t.Counter("bdi_rewrite_cache_full_flushes_total", "Wholesale cache flushes: a generation since the cache's was no release (a G edit or another batch).", nil, int64(st.FullFlushes))
	t.Counter("bdi_rewrite_cache_evictions_total", "Capacity evictions.", nil, int64(st.Evictions))
	t.Gauge("bdi_rewrite_cache_entries", "Memoized rewritings currently cached.", nil, int64(st.Entries))
	t.Gauge("bdi_rewrite_cache_unit_entries", "Intra-concept units currently cached.", nil, int64(st.Units))
	t.Gauge("bdi_rewrite_cache_kept_dict_entries", "Values (dictionary entries) the cached rewritings' kept value dictionaries hold.", nil, int64(st.KeptValues))
}

func (s *Server) writeStoreMetrics(t *obs.TextWriter) {
	var o *core.Ontology
	if v := s.sys.Load(); v != nil {
		o = v.Ontology
	} else if s.replica != nil {
		o = s.replica.Ontology()
	}
	if o == nil {
		return
	}
	st := o.Store()
	t.Gauge("bdi_store_size_quads", "Quads in the current store snapshot.", nil, int64(st.Len()))
	t.Gauge("bdi_store_snapshot_generations", "Generation of the current store snapshot.", nil, int64(st.Generation()))
}

func (s *Server) writeWALMetrics(t *obs.TextWriter) {
	if s.durability == nil {
		return
	}
	st := s.durability.Stats()
	failed := int64(0)
	if st.LogError != "" {
		failed = 1
	}
	t.Gauge("bdi_wal_failstop_state", "1 when the WAL has latched fail-stop (writes rejected).", nil, failed)
	t.Gauge("bdi_wal_segments_entries", "Live WAL segment files.", nil, int64(st.Segments))
	t.Gauge("bdi_wal_segment_bytes", "Bytes across live WAL segments.", nil, st.SegmentBytes)
	t.Gauge("bdi_wal_last_checkpoint_generations", "Store generation of the last checkpoint.", nil, int64(st.LastCheckpointGeneration))
}

func (s *Server) writeReplicationMetrics(t *obs.TextWriter) {
	switch {
	case s.replica != nil:
		st := s.replica.Status()
		t.Counter("bdi_replication_frames_applied_total", "WAL frames applied by this replica.", nil, int64(st.Stats.FramesApplied))
		t.Counter("bdi_replication_checkpoints_fetched_total", "Checkpoint (re)synchronizations.", nil, int64(st.Stats.CheckpointsFetched))
		t.Counter("bdi_replication_reconnects_total", "Stream reconnects.", nil, int64(st.Stats.Reconnects))
		t.Counter("bdi_replication_corrupt_frames_total", "Frames dropped on CRC mismatch.", nil, int64(st.Stats.CorruptFrames))
		t.Counter("bdi_replication_gap_resyncs_total", "Resyncs after falling behind the pruned WAL.", nil, int64(st.Stats.GapResyncs))
		t.Counter("bdi_replication_divergence_resyncs_total", "Resyncs after primary divergence.", nil, int64(st.Stats.DivergenceResyncs))
		t.Gauge("bdi_replication_lag_generations", "Primary generation minus applied generation.", nil, int64(st.Lag))
		t.Gauge("bdi_replication_applied_generations", "Last generation applied locally.", nil, int64(st.Generation))
		synced := int64(0)
		if st.Synced {
			synced = 1
		}
		t.Gauge("bdi_replication_synced_state", "1 once the replica has synchronized.", nil, synced)
		stale := int64(0)
		if st.Stale {
			stale = 1
		}
		t.Gauge("bdi_replication_stale_state", "1 while the replica is beyond its staleness bound.", nil, stale)
	case s.primary != nil:
		st := s.primary.Status()
		t.Gauge("bdi_replication_shipped_generations", "Last generation appended to the shippable WAL.", nil, int64(st.Generation))
		t.Gauge("bdi_replication_peers_entries", "Replicas seen by this primary.", nil, int64(len(st.Replicas)))
		for _, p := range st.Replicas {
			t.Gauge("bdi_replication_peer_lag_generations", "Shipping lag per known replica.",
				obs.Labels{"replica": p.ID}, int64(p.Lag))
		}
	}
}

// TraceListResponse is the body of GET /api/queries/trace: the retained
// slowest traces, slowest first, as full span trees.
type TraceListResponse struct {
	Retention int                 `json:"retention"`
	Traces    []obs.TraceSnapshot `json:"traces"`
}

// handleTraceList serves GET /api/queries/trace.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TraceListResponse{
		Retention: obs.DefaultTraceRetention,
		Traces:    s.tracer().Slowest(),
	})
}

// handleTraceByID serves GET /api/queries/trace/{id}.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.tracer().Get(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("trace %q is not retained (only the %d slowest traces are kept)", id, obs.DefaultTraceRetention))
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot())
}
