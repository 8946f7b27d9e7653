// Package mdm implements the backend of the Metadata Management System
// described in §6.1 of the paper: a JSON-over-HTTP API through which the
// data steward manages the BDI ontology (registering data sources and
// releases) and data analysts pose ontology-mediated queries. The paper's
// implementation used a Node.JS frontend and Jersey/Jena in the backend; this
// package provides the equivalent backend functionality with net/http.
//
// # Concurrency
//
// No read request takes a lock a release holds. The server's view is a
// bdi.System — the ontology, the wrapper registry, and the rewriting cache
// and resolver built around them — published behind an atomic pointer;
// every read handler and metrics writer loads it once and holds nothing
// while it rewrites, fetches from wrappers or writes its reply. Analyst queries
// therefore run in parallel with each other and with release registration,
// even while a wrapper fetch waits on a slow source. The layers below take no
// lock a release holds either, so a release parked in the WAL's fsync holds
// up no reader. Consistency comes from those layers: the quad store serves
// reads from immutable, generation-tagged snapshots; NewRelease publishes a
// release as one atomic store batch; the ontology's view (core.View) reads
// one generation, memoizes its lookups and is installed with a
// compare-and-swap; a rewrite pins one view and makes every lookup on it,
// and the rewriting cache validates itself on that view, deriving what the
// releases since its own generation changed from the store's generation log
// and retiring only the cached rewritings whose concept/feature footprint
// they touch (GET /api/queries/cache reports the counters); and
// /api/ontology/stats, /concepts and /sources each read one pinned
// snapshot, so every reply describes one generation.
//
// The one lock left is the System's releaseMu, taken only by POST
// /api/releases through System.RegisterRelease. It makes a release and its
// optional sample-data wrapper one step: the wrapper is registered, by name
// and by IRI, before NewRelease publishes the release, so no reader rewrites
// to a walk whose wrapper is missing, and a release Algorithm 1 rejects puts
// the registry back exactly as it was. A replica's checkpoint resync
// publishes a new System with one compare-and-swap (refreshReplicaView).
package mdm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"bdi"
	"bdi/internal/core"
	"bdi/internal/evolution"
	"bdi/internal/obs"
	"bdi/internal/relational"
	"bdi/internal/replication"
	"bdi/internal/rewriting"
	"bdi/internal/wal"
	"bdi/internal/wrapper"
)

// Server is the MDM backend. It is safe for concurrent use.
type Server struct {
	// sys is the view every request works against, loaded once per
	// request; nil on a replica until its first synchronization.
	sys atomic.Pointer[bdi.System]
	// registry holds the wrappers every System of this server executes.
	registry *wrapper.Registry

	// durability, when set, is the WAL manager journaling the ontology (see
	// EnableDurability). The manager hooks the store directly; the server
	// only exposes its stats and checkpoint trigger.
	durability *wal.Manager

	// primary, when set, ships this server's WAL and checkpoints to
	// replicas (see EnableReplication). replica, when set, makes this a
	// read-only server over replicated state (see NewReplicaServer);
	// exactly one of the two is ever non-nil.
	primary *replication.Primary
	replica *replication.Replica

	// Request lifecycle control (see governor.go): admission pools,
	// per-query deadline/budget policy, outcome counters and the
	// slow-query log. Zero values disable governing entirely.
	lifecycle LifecycleConfig
	governor  *Governor
	outcomes  queryOutcomes
	slow      slowLog

	// Per-role slow-trace ring (see metrics.go): the N slowest request
	// traces, retrievable by ID. Lazily built so every construction path
	// (primary, replica, test literals) gets one.
	traceOnce sync.Once
	traceRing *obs.Tracer
}

// tracer returns the server's slow-trace ring.
func (s *Server) tracer() *obs.Tracer {
	s.traceOnce.Do(func() { s.traceRing = obs.NewTracer(obs.DefaultTraceRetention) })
	return s.traceRing
}

// NewServer returns an MDM backend over the given ontology and registry.
// Query endpoints are served through a rewriting cache that invalidates
// itself on every ontology release. A primary publishes one System for its
// lifetime; a replica a new one whenever a checkpoint resync replaces its
// ontology object.
func NewServer(o *core.Ontology, reg *wrapper.Registry) *Server {
	s := &Server{registry: reg}
	s.sys.Store(bdi.NewSystemWith(o, reg))
	return s
}

// EnableDurability exposes a WAL manager's stats and checkpoint trigger
// through the API (GET /api/durability, POST /api/durability/checkpoint).
// The manager must be the one journaling this server's ontology.
func (s *Server) EnableDurability(m *wal.Manager) { s.durability = m }

// Handler returns the HTTP handler exposing the MDM REST API:
//
//	GET  /api/ontology/stats        ontology statistics
//	GET  /api/ontology/concepts     concepts of G with their features
//	GET  /api/ontology/sources      data sources, wrappers and attributes of S
//	GET  /api/ontology/graph        full TriG dump of T
//	POST /api/releases              register a release (Algorithm 1)
//	POST /api/queries/rewrite       rewrite an OMQ (SPARQL in, walks out)
//	POST /api/queries/answer        rewrite and execute an OMQ
//	GET  /api/queries/cache         rewriting-cache effectiveness counters
//	GET  /api/queries/stats         admission pools, outcomes, slow-query log
//	GET  /api/durability            WAL/checkpoint/recovery statistics
//	POST /api/durability/checkpoint trigger a checkpoint (bdictl checkpoint)
//	GET  /api/changes/catalog       the change taxonomy (Tables 3-5)
//	GET  /api/replication           replication status (primary or replica role)
//	GET  /api/queries/trace         the slowest retained request traces
//	GET  /api/queries/trace/{id}    one request's span tree by trace ID
//	GET  /metrics                   Prometheus text exposition of all subsystems
//	GET  /api/health                liveness probe (legacy alias of /healthz)
//	GET  /healthz                   liveness probe
//	GET  /readyz                    readiness probe (WAL healthy, replica in sync)
//
// A primary with EnableReplication additionally serves the WAL stream and
// checkpoint endpoints under /api/replication/. On a replica server every
// read endpoint is staleness-gated (503 beyond the configured bound) and the
// mutating endpoints answer 403. The whole handler is wrapped in panic
// recovery: a panicking request logs its stack and answers 500 instead of
// killing the connection silently.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// read: admission through the read pool, then the replica staleness
	// gate, then the handler — with the per-query deadline/budget attached
	// between admission and execution (see lifecycled).
	read := func(h http.HandlerFunc) http.HandlerFunc { return s.lifecycled(PoolRead, s.gated(h)) }
	// /api/health is a legacy alias of /healthz: both paths are registered
	// from the same handler value so they cannot drift apart (pinned by
	// TestHealthLegacyAlias).
	healthz := http.HandlerFunc(s.handleHealthz)
	for _, path := range []string{"GET /healthz", "GET /api/health"} {
		mux.Handle(path, healthz)
	}
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/queries/trace", s.handleTraceList)
	mux.HandleFunc("GET /api/queries/trace/{id}", s.handleTraceByID)
	mux.HandleFunc("GET /api/ontology/stats", read(s.handleStats))
	mux.HandleFunc("GET /api/ontology/concepts", read(s.handleConcepts))
	mux.HandleFunc("GET /api/ontology/sources", read(s.handleSources))
	mux.HandleFunc("GET /api/ontology/graph", read(s.handleGraphDump))
	mux.HandleFunc("POST /api/queries/rewrite", read(s.handleRewrite))
	mux.HandleFunc("POST /api/queries/answer", read(s.handleAnswer))
	mux.HandleFunc("GET /api/queries/cache", s.gated(s.handleCacheStats))
	mux.HandleFunc("GET /api/queries/stats", s.handleQueryStats)
	mux.HandleFunc("GET /api/durability", s.handleDurabilityStats)
	mux.HandleFunc("GET /api/changes/catalog", s.handleChangeCatalog)
	mux.HandleFunc("GET /api/changes/applicability", s.handleApplicability)
	if s.replica != nil {
		mux.HandleFunc("POST /api/releases", s.rejectWrite)
		mux.HandleFunc("POST /api/durability/checkpoint", s.rejectWrite)
		mux.HandleFunc("GET /api/replication", s.handleReplicaStatus)
	} else {
		mux.HandleFunc("POST /api/releases", s.lifecycled(PoolWrite, s.handleRelease))
		mux.HandleFunc("POST /api/durability/checkpoint", s.lifecycled(PoolAdmin, s.handleCheckpoint))
		if s.primary != nil {
			mux.HandleFunc("GET /api/replication", s.primary.HandleStatus)
			mux.HandleFunc("GET /api/replication/wal", s.primary.HandleWAL)
			mux.HandleFunc("GET /api/replication/checkpoint", s.primary.HandleCheckpoint)
		}
	}
	return Recover(mux)
}

// ChangeView is one row of the change taxonomy (Tables 3-5).
type ChangeView struct {
	Kind    string `json:"kind"`
	Level   string `json:"level"`
	Handler string `json:"handler"`
	Action  string `json:"action"`
}

func (s *Server) handleChangeCatalog(w http.ResponseWriter, r *http.Request) {
	var out []ChangeView
	for _, c := range evolution.Catalog() {
		out = append(out, ChangeView{
			Kind:    string(c.Kind),
			Level:   c.Level.String(),
			Handler: c.Handler.String(),
			Action:  c.Action,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleApplicability(w http.ResponseWriter, r *http.Request) {
	rep := evolution.Applicability(evolution.Table6Profiles())
	type row struct {
		API       string  `json:"api"`
		Partially float64 `json:"partiallyAccommodated"`
		Fully     float64 `json:"fullyAccommodated"`
	}
	resp := struct {
		APIs               []row   `json:"apis"`
		AggregatePartially float64 `json:"aggregatePartially"`
		AggregateFully     float64 `json:"aggregateFully"`
		AggregateTotal     float64 `json:"aggregateTotal"`
	}{
		AggregatePartially: rep.AggregatePartially,
		AggregateFully:     rep.AggregateFully,
		AggregateTotal:     rep.AggregateTotal,
	}
	for _, p := range rep.Profiles {
		resp.APIs = append(resp.APIs, row{API: p.Name, Partially: p.PartiallyAccommodated(), Fully: p.FullyAccommodated()})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Load().Ontology.Stats())
}

// ConceptView describes one concept of G for the UI.
type ConceptView struct {
	Concept     string   `json:"concept"`
	Features    []string `json:"features"`
	Identifiers []string `json:"identifiers"`
}

// handleConcepts reads the concepts, their features and their identifiers
// from one view, so the reply describes one generation.
func (s *Server) handleConcepts(w http.ResponseWriter, r *http.Request) {
	v := s.sys.Load().Ontology.View()
	var out []ConceptView
	for _, c := range v.Concepts() {
		cv := ConceptView{Concept: string(c)}
		for _, f := range v.FeaturesOf(c) {
			cv.Features = append(cv.Features, string(f))
		}
		for _, f := range v.IdentifiersOf(c) {
			cv.Identifiers = append(cv.Identifiers, string(f))
		}
		out = append(out, cv)
	}
	writeJSON(w, http.StatusOK, out)
}

// SourceView describes one data source of S for the UI.
type SourceView struct {
	Source   string              `json:"source"`
	Wrappers map[string][]string `json:"wrappers"`
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	var out []SourceView
	for _, ds := range s.sys.Load().Ontology.Sources() {
		sv := SourceView{Source: string(ds.Source), Wrappers: map[string][]string{}}
		for _, wr := range ds.Wrappers {
			var attrs []string
			for _, a := range wr.Attributes {
				attrs = append(attrs, core.AttributeName(a))
			}
			sv.Wrappers[core.WrapperLocalName(wr.Wrapper)] = attrs
		}
		out = append(out, sv)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGraphDump(w http.ResponseWriter, r *http.Request) {
	o := s.sys.Load().Ontology
	w.Header().Set("Content-Type", "application/trig")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, o.Store().DumpTriG(o.Prefixes()))
}

// ReleaseRequest is the JSON body of POST /api/releases.
type ReleaseRequest = bdi.ReleaseRequest

// ReleaseResponse is the JSON answer of POST /api/releases.
type ReleaseResponse struct {
	NewSource          bool       `json:"newSource"`
	TriplesAdded       int        `json:"triplesAdded"`
	SourceTriplesAdded int        `json:"sourceTriplesAdded"`
	NewAttributes      int        `json:"newAttributes"`
	ReusedAttributes   int        `json:"reusedAttributes"`
	Delta              *DeltaView `json:"delta,omitempty"`
}

// DeltaView is the JSON rendering of a core.ReleaseDelta: the invalidation
// footprint the release published, i.e. which cached rewritings it can
// retire.
type DeltaView struct {
	Wrapper    string      `json:"wrapper"`
	Source     string      `json:"source"`
	Sequence   int         `json:"sequence"`
	Concepts   []string    `json:"concepts"`
	Features   []string    `json:"features"`
	Attributes []string    `json:"attributes"`
	Edges      [][2]string `json:"edges"`
}

func deltaView(d *core.ReleaseDelta) *DeltaView {
	if d == nil {
		return nil
	}
	v := &DeltaView{
		Wrapper:  string(d.Wrapper),
		Source:   string(d.Source),
		Sequence: d.Sequence,
	}
	for _, c := range d.Concepts {
		v.Concepts = append(v.Concepts, string(c))
	}
	for _, f := range d.Features {
		v.Features = append(v.Features, string(f))
	}
	for _, a := range d.Attributes {
		v.Attributes = append(v.Attributes, string(a))
	}
	for _, e := range d.Edges {
		v.Edges = append(v.Edges, [2]string{string(e[0]), string(e[1])})
	}
	return v
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	release, samples := req.Release()
	res, err := s.sys.Load().RegisterRelease(release, samples)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, ReleaseResponse{
		NewSource:          res.NewSource,
		TriplesAdded:       res.TriplesAdded,
		SourceTriplesAdded: res.SourceTriplesAdded,
		NewAttributes:      len(res.NewAttributes),
		ReusedAttributes:   len(res.ReusedAttributes),
		Delta:              deltaView(res.Delta),
	})
}

// QueryRequest is the JSON body of the query endpoints.
type QueryRequest struct {
	SPARQL string `json:"sparql"`
	// Limit > 0 caps the number of distinct answer rows; the executor stops
	// (and cancels outstanding walks) once that many rows exist. Only the
	// answer endpoint consults it.
	Limit int `json:"limit,omitempty"`
}

// RewriteResponse describes the rewriting outcome. The body of POST
// /api/queries/rewrite is the result's kept rendering of it.
type RewriteResponse = rewriting.View

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	_, omq, ok := parseQuery(w, r)
	if !ok {
		return
	}
	res, err := s.sys.Load().Rewrite(r.Context(), omq)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	writeBody(w, http.StatusOK, res.ViewJSON(), []byte("\n"))
}

// parseQuery decodes a query request and parses its SPARQL OMQ, answering
// the request itself when either fails.
func parseQuery(w http.ResponseWriter, r *http.Request) (QueryRequest, *rewriting.OMQ, bool) {
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return req, nil, false
	}
	noteQuery(r, req.SPARQL)
	omq, err := rewriting.ParseOMQ(req.SPARQL)
	if err != nil {
		writeQueryError(w, r, err)
		return req, nil, false
	}
	return req, omq, true
}

// CacheStatsResponse reports rewriting-cache effectiveness, including the
// delta-driven invalidation behaviour: how many memoized results survived
// releases versus were retired, and — per concept — how many invalidations
// each concept's releases caused.
type CacheStatsResponse = rewriting.CacheStats

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Load().CacheStats())
}

func (s *Server) handleDurabilityStats(w http.ResponseWriter, r *http.Request) {
	if s.durability == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("durability is not enabled (start the server with -data-dir)"))
		return
	}
	writeJSON(w, http.StatusOK, s.durability.Stats())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.durability == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("durability is not enabled (start the server with -data-dir)"))
		return
	}
	// No server lock: the checkpoint pins an immutable snapshot, so queries
	// and releases proceed while it streams out.
	info, err := s.durability.Checkpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// AnswerResponse is the body of POST /api/queries/answer: the rewriting plus
// the executed result. The handler writes it from the ID-domain answer.
type AnswerResponse struct {
	RewriteResponse
	Columns []string         `json:"columns"`
	Rows    []map[string]any `json:"rows"`
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	req, omq, ok := parseQuery(w, r)
	if !ok {
		return
	}
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("limit must not be negative, got %d", req.Limit))
		return
	}
	// No lock: a release landing meanwhile only adds to the ontology, the
	// rewriting result is immutable, and every wrapper a walk names was
	// registered before its release was published.
	answer, res, err := s.sys.Load().Answer(r.Context(), omq, req.Limit)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	tail, err := answerTail(answer)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// An AnswerResponse: the kept view, reopened at its closing brace.
	view := res.ViewJSON()
	writeBody(w, http.StatusOK, view[:len(view)-1], tail)
}

// answerTail renders the members of an AnswerResponse that follow its view
// as json.Encoder does, with the rows encoded from the answer's ValueIDs (the
// engine hands them over in canonical order).
func answerTail(answer *relational.IDRelation) ([]byte, error) {
	columns, err := json.Marshal(answer.Schema.Names())
	if err != nil {
		return nil, err
	}
	tail := append(append([]byte(`,"columns":`), columns...), `,"rows":`...)
	tail, err = answer.AppendJSON(tail)
	return append(tail, "}\n"...), err
}

// maxRequestBody bounds the JSON body of every POST endpoint. A release's
// sample tuples are sample data, and an OMQ is a few hundred bytes.
const maxRequestBody = 1 << 20

// decodeBody decodes the request's JSON body into v, answering the request
// itself when that fails: 413 for a body over maxRequestBody, 400 for a
// malformed body or one followed by a second JSON value. Both are JSON error
// bodies.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	err := dec.Decode(v)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("request body holds more than one JSON value")
		}
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err)
	return false
}

// writeJSON writes v as json.Encoder does, but builds the body first: a value
// JSON cannot encode answers 500 with an error, not the status and no body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, status, body.Bytes())
}

// writeBody writes the concatenation of parts as the body.
func writeBody(w http.ResponseWriter, status int, parts ...[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	for _, p := range parts {
		_, _ = w.Write(p) // a failed write means the client is gone; nothing is left to tell it
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
