// Command mdm-server runs the Metadata Management System backend (§6.1): a
// JSON REST API through which data stewards register releases and analysts
// pose ontology-mediated queries.
//
//	mdm-server -addr :8080                 start with an empty ontology
//	mdm-server -addr :8080 -demo           start preloaded with the SUPERSEDE example
//	mdm-server -demo -evolved              also register the evolved D1 schema (w4)
//	mdm-server -data-dir ./data            durable metadata: WAL + checkpoints + crash recovery
//	mdm-server -data-dir ./data -wal-sync=always
//	mdm-server -replica-of http://primary:8080 -addr :8081
//	                                       read replica following a durable primary
//	mdm-server -query-timeout 2s -max-rows 1000000 -read-pool 8
//	                                       per-query deadlines/budgets + overload shedding
//	mdm-server -debug-addr 127.0.0.1:6060  opt-in pprof listener (loopback only)
//	mdm-server -log-format json            structured JSON logs (default: text)
//
// A durable primary (-data-dir) automatically ships its WAL and checkpoints
// under GET /api/replication/. A replica (-replica-of) bootstraps from the
// primary's newest checkpoint, follows the WAL tail with long-polls and
// serves the read API from its own replicated state; writes answer 403.
// -max-lag and -max-staleness bound how stale a replica may serve (0 = no
// bound: stale-but-consistent reads); beyond a bound the read API answers
// 503 and GET /readyz reports not ready. With -demo a replica registers
// only the executable demo wrappers — the ontology itself is replicated.
//
// With -data-dir the server recovers the ontology persisted in the
// directory at boot (latest checkpoint + WAL replay, truncating torn
// tails), journals every mutation, and writes a final checkpoint on
// SIGTERM/SIGINT before exiting. -wal-sync selects the fsync policy:
//
//	always   fsync every mutation batch before it becomes visible (safest)
//	batch    group commit: background fsync every ~10ms (default)
//	off      leave flushing to the OS page cache (bulk loads, benchmarks)
//
// Observability: GET /metrics serves the Prometheus text exposition on both
// roles, GET /api/queries/trace lists the slowest retained request traces
// and GET /api/queries/trace/{id} fetches one span tree. -debug-addr starts
// an opt-in net/http/pprof listener on a separate server; it is off by
// default and refuses to bind non-loopback addresses.
//
// See internal/mdm for the endpoint list (GET /api/durability reports WAL,
// checkpoint and recovery statistics).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bdi/internal/core"
	"bdi/internal/lifecycle"
	"bdi/internal/mdm"
	"bdi/internal/replication"
	"bdi/internal/wal"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.Bool("demo", false, "preload the SUPERSEDE running example")
	evolved := flag.Bool("evolved", false, "with -demo, also register the evolved D1 schema version")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + checkpoints); empty = in-memory only")
	walSync := flag.String("wal-sync", "batch", "WAL fsync policy: always | batch | off")
	replicaOf := flag.String("replica-of", "", "primary base URL to replicate from (read-only replica mode)")
	replicaID := flag.String("replica-id", "", "replica identity reported to the primary (default: generated)")
	maxLag := flag.Uint64("max-lag", 0, "replica: max generations behind the primary before reads answer 503 (0 = unbounded)")
	maxStaleness := flag.Duration("max-staleness", 0, "replica: max time without primary contact before reads answer 503 (0 = unbounded)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline; exceeded queries answer 504 (0 = none; clients may only lower it with X-Timeout-Ms)")
	maxRows := flag.Int64("max-rows", 0, "per-query row budget across all operators; exceeded queries answer 413 (0 = unbounded)")
	maxBytes := flag.Int64("max-bytes", 0, "per-query byte budget (estimated row data); exceeded queries answer 413 (0 = unbounded)")
	readPool := flag.Int("read-pool", 0, "max concurrent read/query requests; excess queues then sheds with 429 (0 = no admission control)")
	writePool := flag.Int("write-pool", 1, "with -read-pool, max concurrent release registrations")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "with -read-pool, max time a request waits for a pool slot before 429")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this and expose them on GET /api/queries/stats (0 = disabled)")
	debugAddr := flag.String("debug-addr", "", "opt-in net/http/pprof listener address; loopback only (empty = disabled)")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	flag.Parse()

	if err := setupLogging(*logFormat); err != nil {
		fatal("mdm-server: %v", err)
	}
	startDebugServer(*debugAddr)

	lifecycleCfg := mdm.LifecycleConfig{
		QueryTimeout:       *queryTimeout,
		Budget:             lifecycle.Budget{MaxRows: *maxRows, MaxBytes: *maxBytes},
		SlowQueryThreshold: *slowQuery,
	}
	governorCfg := governorConfig(*readPool, *writePool, *queueTimeout)

	if *replicaOf != "" {
		if *dataDir != "" {
			fatal("mdm-server: -replica-of and -data-dir are mutually exclusive (a replica's state comes from the primary)")
		}
		runReplica(*addr, *replicaOf, *replicaID, *maxLag, *maxStaleness, *demo, *evolved, lifecycleCfg, governorCfg)
		return
	}

	var (
		ontology *core.Ontology
		registry = wrapper.NewRegistry()
		manager  *wal.Manager
	)
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fatal("mdm-server: %v", err)
		}
		manager, err = wal.Open(*dataDir, wal.Options{Sync: policy})
		if err != nil {
			fatal("mdm-server: opening data dir: %v", err)
		}
		ontology = manager.Ontology()
		rec := manager.Recovery()
		slog.Info("mdm-server: recovered data dir",
			"dir", *dataDir,
			"checkpoint_generation", rec.CheckpointGeneration,
			"checkpoint_quads", rec.CheckpointQuads,
			"records_replayed", rec.RecordsReplayed,
			"torn_tail", rec.TornTail)
	} else {
		ontology = core.NewOntology()
	}

	if *demo {
		if err := seedDemo(ontology, registry, *evolved); err != nil {
			fatal("mdm-server: seeding demo ontology: %v", err)
		}
	}
	warnUnresolvedWrappers(ontology, registry)

	server := mdm.NewServer(ontology, registry)
	if manager != nil {
		server.EnableDurability(manager)
		server.EnableReplication(replication.NewPrimary(manager))
	}
	server.ConfigureLifecycle(lifecycleCfg)
	if governorCfg != nil {
		server.ConfigureGovernor(*governorCfg)
	}
	httpServer := newHTTPServer(*addr, logging(server.Handler()))

	// SIGTERM/SIGINT: stop accepting traffic, drain in-flight requests,
	// then write a final checkpoint and rotate the WAL cleanly so the next
	// boot replays nothing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		slog.Info("mdm-server: MDM backend listening",
			"addr", *addr, "demo", *demo, "evolved", *evolved, "data_dir", *dataDir, "wal_sync", *walSync)
		errc <- httpServer.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal("mdm-server: %v", err)
		}
	case <-ctx.Done():
		slog.Info("mdm-server: shutting down, draining requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			slog.Warn("mdm-server: shutdown", "error", err)
		}
	}
	if manager != nil {
		slog.Info("mdm-server: writing final checkpoint")
		if err := manager.Close(); err != nil {
			fatal("mdm-server: final checkpoint: %v", err)
		}
		slog.Info("mdm-server: data dir is clean", "dir", *dataDir)
	}
}

// setupLogging installs the process-wide slog handler. Logs go to stderr in
// either human-readable text (default) or one-JSON-object-per-line form.
func setupLogging(format string) error {
	var h slog.Handler
	switch format {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("invalid -log-format %q (want text or json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// fatal logs at error level and exits non-zero — the slog replacement for
// log.Fatalf.
func fatal(format string, args ...any) {
	slog.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

// startDebugServer starts the opt-in pprof listener on its own http.Server
// and mux (never the API server's). It is disabled by default and refuses
// non-loopback addresses: profiling endpoints expose heap contents and must
// not ride on a public interface. An empty host (":6060") is rewritten to
// loopback rather than binding every interface.
func startDebugServer(addr string) {
	if addr == "" {
		return
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		fatal("mdm-server: invalid -debug-addr %q: %v", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	if !isLoopbackHost(host) {
		fatal("mdm-server: -debug-addr %q is not a loopback address; pprof must never listen publicly (use 127.0.0.1:%s)", addr, port)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	debug := &http.Server{Addr: net.JoinHostPort(host, port), Handler: mux}
	go func() {
		slog.Info("mdm-server: pprof debug listener up", "addr", debug.Addr)
		if err := debug.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			slog.Warn("mdm-server: pprof debug listener failed", "error", err)
		}
	}()
}

// isLoopbackHost reports whether host names the loopback interface, either
// literally or as an address.
func isLoopbackHost(host string) bool {
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// newHTTPServer returns an http.Server with the full timeout set: header
// and body read bounds against slowloris-style clients, an idle bound for
// keep-alive connections, and a write timeout that stays safely above the
// 60s ceiling of the replication WAL long-poll (a parked tail follow must
// not be cut off mid-poll).
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// governorConfig builds the admission-pool configuration from the flags;
// nil when admission control is disabled (-read-pool 0).
func governorConfig(readPool, writePool int, queueTimeout time.Duration) *mdm.GovernorConfig {
	if readPool <= 0 {
		return nil
	}
	cfg := mdm.DefaultGovernorConfig(readPool)
	cfg.Read.QueueTimeout = queueTimeout
	if writePool > 0 {
		cfg.Write.Size = writePool
	}
	return &cfg
}

// runReplica runs the read-only replica mode: a replication follower plus
// the MDM read API over its replicated state.
func runReplica(addr, primary, id string, maxLag uint64, maxStaleness time.Duration, demo, evolved bool, lifecycleCfg mdm.LifecycleConfig, governorCfg *mdm.GovernorConfig) {
	registry := wrapper.NewRegistry()
	if demo {
		// Executable wrappers only: the ontology (including wrapper
		// registrations) is replicated from the primary, and a replica must
		// never write its own.
		registerDemoWrappers(registry, evolved)
	}
	rep := replication.Start(replication.Options{
		Primary: primary,
		ID:      id,
		MaxLag:  maxLag,
		MaxAge:  maxStaleness,
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...), "component", "replication")
		},
	})
	server := mdm.NewReplicaServer(rep, registry)
	server.ConfigureLifecycle(lifecycleCfg)
	if governorCfg != nil {
		server.ConfigureGovernor(*governorCfg)
	}
	httpServer := newHTTPServer(addr, logging(server.Handler()))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		slog.Info("mdm-server: MDM replica listening",
			"addr", addr, "primary", primary, "max_lag", maxLag, "max_staleness", maxStaleness)
		errc <- httpServer.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal("mdm-server: %v", err)
		}
	case <-ctx.Done():
		slog.Info("mdm-server: shutting down, draining requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			slog.Warn("mdm-server: shutdown", "error", err)
		}
	}
	_ = rep.Close()
}

// registerDemoWrappers registers the executable SUPERSEDE demo wrappers
// without touching the ontology.
func registerDemoWrappers(registry *wrapper.Registry, evolved bool) {
	src := workload.SupersedeTable1Registry(evolved)
	for _, name := range src.Names() {
		if w, ok := src.Get(name); ok {
			registry.Register(w)
			registry.Alias(string(core.WrapperURI(name)), name)
		}
	}
}

// seedDemo loads the SUPERSEDE running example into the (possibly
// recovered) ontology. The in-memory executable wrappers are always
// rebuilt; ontology-side registrations are applied per release, skipping
// ones a durable data dir already holds — so a dir seeded without
// -evolved gains exactly the missing w4 release on the next -evolved run.
func seedDemo(o *core.Ontology, registry *wrapper.Registry, evolved bool) error {
	registerDemoWrappers(registry, evolved)
	if len(o.View().Concepts()) == 0 {
		if err := core.BuildSupersedeGlobalGraph(o); err != nil {
			return err
		}
	}
	registered := map[string]bool{}
	for _, w := range o.Wrappers() {
		registered[core.WrapperLocalName(w)] = true
	}
	for _, r := range core.SupersedeReleases(evolved) {
		if registered[r.Wrapper.Name] {
			continue
		}
		if _, err := o.NewRelease(r); err != nil {
			return err
		}
	}
	return nil
}

// warnUnresolvedWrappers flags ontology wrappers — typically recovered from
// a data dir — that have no executable wrapper in this process (e.g. a dir
// seeded with -demo -evolved reopened without -evolved, or API-registered
// wrappers whose sample data is process-local). Queries routed to them
// fail at wrapper resolution until one is registered.
func warnUnresolvedWrappers(o *core.Ontology, registry *wrapper.Registry) {
	for _, w := range o.Wrappers() {
		name := core.WrapperLocalName(w)
		if _, ok := registry.Get(string(w)); ok {
			continue
		}
		if _, ok := registry.Get(name); ok {
			continue
		}
		slog.Warn("mdm-server: ontology wrapper has no executable wrapper in this process; "+
			"queries routed to it will fail until one is registered (POST /api/releases with sampleTuples, or matching -demo flags)",
			"wrapper", name)
	}
}

func logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		slog.Info("http", "method", r.Method, "path", r.URL.Path, "duration", time.Since(start).Round(time.Microsecond))
	})
}
