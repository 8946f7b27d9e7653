package replication

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/rewriting"
	"bdi/internal/store"
	"bdi/internal/wal"
)

// The replication fault-injection suite: a primary under a scripted workload
// ships its WAL through a hostile TCP proxy — connections killed at random
// offsets, stream bytes bit-flipped, the primary and the replica each killed
// and restarted mid-stream — and the replica must still converge to a state
// byte-identical to the primary: quads, dictionary TermIDs, MatchWithIDs
// output and query rewritings.

// ---------------------------------------------------------------------------
// Scripted workload (mirrors the crash-recovery suite's shape, but ops may
// publish any number of generations — replication does not count them).

type op struct {
	name string
	run  func(o *core.Ontology) error
}

func replConcept(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://ex/repl/Side%d", i)) }
func replFeature(i int, kind string) rdf.IRI {
	return rdf.IRI(fmt.Sprintf("http://ex/repl/side%d_%s", i, kind))
}

func replConceptOp(i int) op {
	return op{
		name: fmt.Sprintf("concept-%d", i),
		run: func(o *core.Ontology) error {
			quads := []rdf.Quad{
				{Triple: rdf.T(replConcept(i), rdf.RDFType, core.GConcept), Graph: core.GlobalGraphName},
				{Triple: rdf.T(replFeature(i, "id"), rdf.RDFType, core.GFeature), Graph: core.GlobalGraphName},
				{Triple: rdf.T(replFeature(i, "value"), rdf.RDFType, core.GFeature), Graph: core.GlobalGraphName},
				{Triple: rdf.T(replConcept(i), core.GHasFeature, replFeature(i, "id")), Graph: core.GlobalGraphName},
				{Triple: rdf.T(replConcept(i), core.GHasFeature, replFeature(i, "value")), Graph: core.GlobalGraphName},
			}
			_, err := o.Store().AddAll(quads)
			return err
		},
	}
}

func replReleaseOp(i, seq int) op {
	name := fmt.Sprintf("w_repl_side%d_%d", i, seq)
	return op{
		name: "release-" + name,
		run: func(o *core.Ontology) error {
			g := rdf.NewGraph("")
			g.Add(
				rdf.T(replConcept(i), core.GHasFeature, replFeature(i, "id")),
				rdf.T(replConcept(i), core.GHasFeature, replFeature(i, "value")),
			)
			_, err := o.NewRelease(core.Release{
				Wrapper: core.WrapperSpec{
					Name:            name,
					Source:          fmt.Sprintf("D_repl_side%d_%d", i, seq),
					IDAttributes:    []string{"id"},
					NonIDAttributes: []string{"value"},
				},
				Subgraph: g,
				F:        map[string]rdf.IRI{"id": replFeature(i, "id"), "value": replFeature(i, "value")},
			})
			return err
		},
	}
}

// buildOps assembles the workload: the SUPERSEDE scenario (so rewriting
// parity is meaningful), side concepts with releases, and Global-graph
// edits followed by one more release. G edits are the mutations no release
// delta explains, so caches flush fully and an interval across them is not
// covered, on the primary and on the replica alike.
func buildOps(rng *rand.Rand) []op {
	ops := []op{{name: "global-graph", run: core.BuildSupersedeGlobalGraph}}
	for _, r := range []func() core.Release{
		core.SupersedeReleaseW1, core.SupersedeReleaseW2, core.SupersedeReleaseW3, core.SupersedeReleaseW4,
	} {
		release := r()
		ops = append(ops, op{
			name: "release-" + release.Wrapper.Name,
			run:  func(o *core.Ontology) error { _, err := o.NewRelease(release); return err },
		})
	}
	nSides := 2 + rng.Intn(3)
	for i := 0; i < nSides; i++ {
		ops = append(ops, replConceptOp(i))
	}
	seq := 0
	for i := 0; i < nSides*2; i++ {
		seq++
		ops = append(ops, replReleaseOp(rng.Intn(nSides), seq))
	}
	extra := replConcept(nSides)
	ops = append(ops,
		op{name: "g-edit-concept", run: func(o *core.Ontology) error { return o.AddConcept(extra) }},
		op{name: "g-edit-feature", run: func(o *core.Ontology) error {
			return o.AddFeatureTo(extra, replFeature(nSides, "value"), rdf.XSDString)
		}},
		op{name: "g-edit-relate", run: func(o *core.Ontology) error {
			return o.Relate(replConcept(0), rdf.IRI("http://ex/repl/linksTo"), extra)
		}},
	)
	seq++
	ops = append(ops, replReleaseOp(0, seq))
	return ops
}

func applyOps(t *testing.T, o *core.Ontology, ops []op) {
	t.Helper()
	for _, operation := range ops {
		if err := operation.run(o); err != nil {
			t.Fatalf("op %s: %v", operation.name, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Parity assertions.

func demoOMQ() *rewriting.OMQ {
	return rewriting.NewOMQ(
		[]rdf.IRI{core.SupApplicationID, core.SupLagRatio},
		rdf.T(core.SupSoftwareApplication, core.GHasFeature, core.SupApplicationID),
		rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
		rdf.T(core.SupMonitor, core.SupGeneratesQoS, core.SupInfoMonitor),
		rdf.T(core.SupInfoMonitor, core.GHasFeature, core.SupLagRatio),
	)
}

func rewriteFingerprint(o *core.Ontology) string {
	res, err := rewriting.NewRewriter(o).Rewrite(demoOMQ())
	if err != nil {
		return "error: " + err.Error()
	}
	return strings.Join(res.UCQ.Signatures(), "|") + "\n" + res.UCQ.String()
}

// assertConverged proves the replica is byte-identical to the primary:
// same generation, same quads in the same order, the same dictionary table
// (hence identical TermIDs), identical MatchWithIDs output on probe patterns,
// and identical query rewritings.
func assertConverged(t *testing.T, primary, replica *core.Ontology, label string) {
	t.Helper()
	psn, rsn := primary.Store().Snapshot(), replica.Store().Snapshot()
	if psn.Generation() != rsn.Generation() {
		t.Fatalf("%s: replica generation %d, primary %d", label, rsn.Generation(), psn.Generation())
	}
	pq, rq := psn.Quads(), rsn.Quads()
	if len(pq) != len(rq) {
		t.Fatalf("%s: replica has %d quads, primary %d", label, len(rq), len(pq))
	}
	for i := range pq {
		if pq[i].String() != rq[i].String() {
			t.Fatalf("%s: quad %d = %s, primary has %s", label, i, rq[i], pq[i])
		}
	}
	pt, rt := psn.Dict().Terms(), rsn.Dict().Terms()
	if len(pt) != len(rt) {
		t.Fatalf("%s: replica dict has %d terms, primary %d", label, len(rt), len(pt))
	}
	for i := range pt {
		if !pt[i].Equal(rt[i]) {
			t.Fatalf("%s: dict term %d = %v, primary has %v", label, i+1, rt[i], pt[i])
		}
	}
	probes := []store.Pattern{
		{},
		store.WildcardGraph(nil, rdf.RDFType, nil),
		store.InGraph(core.SourceGraphName, nil, nil, nil),
		store.WildcardGraph(nil, rdf.OWLSameAs, nil),
	}
	for pi, p := range probes {
		pm, rm := psn.MatchWithIDs(p), rsn.MatchWithIDs(p)
		if len(pm) != len(rm) {
			t.Fatalf("%s: probe %d returned %d matches on the replica, %d on the primary", label, pi, len(rm), len(pm))
		}
		for i := range pm {
			if pm[i].ID != rm[i].ID {
				t.Fatalf("%s: probe %d match %d ID = %+v on the replica, %+v on the primary", label, pi, i, rm[i].ID, pm[i].ID)
			}
		}
	}
	if pf, rf := rewriteFingerprint(primary), rewriteFingerprint(replica); pf != rf {
		t.Fatalf("%s: rewriting diverged:\nreplica: %s\nprimary: %s", label, rf, pf)
	}
}

func waitConverged(t *testing.T, rep *Replica, primary *core.Ontology, label string) {
	t.Helper()
	if err := rep.WaitForGeneration(primary.Store().Generation(), 30*time.Second); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertConverged(t, primary, rep.Ontology(), label)
}

// ---------------------------------------------------------------------------
// faultProxy: a TCP proxy between replica and primary that injects
// wire-level faults — killed connections, bit-flipped bytes, blackholes —
// while keeping a stable frontend address across primary restarts.

type faultProxy struct {
	ln net.Listener

	mu        sync.Mutex
	target    string
	blackhole bool
	killAfter int64 // >0: close the connection after this many primary->replica bytes
	flipAt    int64 // >=0: XOR one primary->replica byte at this stream offset
	conns     map[net.Conn]struct{}
}

func newFaultProxy(t *testing.T, target string) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{ln: ln, target: target, flipAt: -1, conns: map[net.Conn]struct{}{}}
	go p.acceptLoop()
	t.Cleanup(p.Close)
	return p
}

func (p *faultProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *faultProxy) setTarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
	p.dropConns()
}

// setFaults configures the fault mode for connections accepted from now on
// (each connection snapshots the config at accept time).
func (p *faultProxy) setFaults(blackhole bool, killAfter, flipAt int64) {
	p.mu.Lock()
	p.blackhole, p.killAfter, p.flipAt = blackhole, killAfter, flipAt
	p.mu.Unlock()
}

func (p *faultProxy) heal() {
	p.setFaults(false, 0, -1)
	p.dropConns()
}

// dropConns severs every live connection (keep-alive streams included).
func (p *faultProxy) dropConns() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *faultProxy) Close() {
	p.ln.Close()
	p.dropConns()
}

func (p *faultProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *faultProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *faultProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		blackhole, target := p.blackhole, p.target
		kill, flip := p.killAfter, p.flipAt
		p.mu.Unlock()
		if blackhole {
			c.Close()
			continue
		}
		go p.handle(c, target, kill, flip)
	}
}

func (p *faultProxy) handle(client net.Conn, target string, kill, flip int64) {
	backend, err := net.Dial("tcp", target)
	if err != nil {
		client.Close()
		return
	}
	p.track(client)
	p.track(backend)
	defer func() {
		client.Close()
		backend.Close()
		p.untrack(client)
		p.untrack(backend)
	}()
	go func() {
		_, _ = io.Copy(backend, client) // replica -> primary passes clean
		backend.Close()
		client.Close()
	}()
	// primary -> replica with fault injection.
	buf := make([]byte, 4096)
	var off int64
	for {
		n, rerr := backend.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if flip >= 0 && flip >= off && flip < off+int64(n) {
				chunk[flip-off] ^= 0x5a
			}
			if kill > 0 && off+int64(n) >= kill {
				_, _ = client.Write(chunk[:kill-off])
				return // killed mid-stream
			}
			if _, werr := client.Write(chunk); werr != nil {
				return
			}
			off += int64(n)
		}
		if rerr != nil {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// The suites.

func fastOptions(primary, id string) Options {
	return Options{
		Primary:        primary,
		ID:             id,
		PollWait:       50 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
	}
}

// TestReplicationFaultInjectionParity is the headline suite: across three
// seeds, a replica follows a primary through a hostile wire (killed
// connections, bit flips, blackholes), a primary kill/restart and a replica
// kill/restart, and must converge byte-identically once the wire heals.
func TestReplicationFaultInjectionParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := buildOps(rng)
			third := len(ops) / 3

			dir := t.TempDir()
			m, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			primarySrv := httptest.NewServer(NewPrimary(m).Handler())
			proxy := newFaultProxy(t, primarySrv.Listener.Addr().String())
			rep := Start(fastOptions(proxy.URL(), fmt.Sprintf("fault-%d", seed)))
			defer func() { rep.Close() }()

			// Phase 1: healthy wire.
			applyOps(t, m.Ontology(), ops[:third])
			waitConverged(t, rep, m.Ontology(), "healthy phase")

			// Phase 2: hostile wire while the workload continues. Each op
			// rolls new faults; connections are severed so they apply to the
			// streams actually in flight.
			for _, operation := range ops[third : 2*third] {
				switch rng.Intn(3) {
				case 0:
					proxy.setFaults(false, 64+rng.Int63n(4096), -1)
				case 1:
					proxy.setFaults(false, 0, rng.Int63n(2048))
				default:
					proxy.setFaults(true, 0, -1)
				}
				proxy.dropConns()
				if err := operation.run(m.Ontology()); err != nil {
					t.Fatalf("op %s: %v", operation.name, err)
				}
				time.Sleep(time.Duration(1+rng.Intn(10)) * time.Millisecond)
			}
			// A mid-run checkpoint on one seed exercises rotation and
			// shipping across segment boundaries.
			if seed == 2 {
				if _, err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}

			// Primary kill/restart mid-stream: SyncAlways means nothing is
			// lost; the replica resumes from its applied generation.
			primarySrv.Close()
			if err := m.Abort(); err != nil {
				t.Fatal(err)
			}
			m, err = wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatalf("primary restart: %v", err)
			}
			primarySrv = httptest.NewServer(NewPrimary(m).Handler())
			defer primarySrv.Close()
			proxy.setTarget(primarySrv.Listener.Addr().String())

			// Replica kill/restart: the new instance bootstraps from a
			// shipped checkpoint and catches up. The first instance must have
			// actually weathered the hostile wire — severed streams surface as
			// reconnects, flipped bytes as corrupt frames or failed requests.
			hostile := rep.Status().Stats
			t.Logf("seed %d: replica stats after hostile phase: %+v", seed, hostile)
			if hostile.Reconnects+hostile.CorruptFrames == 0 {
				t.Errorf("hostile phase left no trace on the replica: %+v", hostile)
			}
			if err := rep.Close(); err != nil {
				t.Fatal(err)
			}
			rep = Start(fastOptions(proxy.URL(), fmt.Sprintf("fault-%d", seed)))

			// Phase 3: heal and finish the workload.
			proxy.heal()
			applyOps(t, m.Ontology(), ops[2*third:])
			waitConverged(t, rep, m.Ontology(), "healed phase")

			st := rep.Status()
			if st.Stats.CheckpointsFetched < 1 {
				t.Errorf("restarted replica fetched %d checkpoints, want >= 1", st.Stats.CheckpointsFetched)
			}
			if stale, reason := rep.Stale(); stale {
				t.Errorf("converged replica reports stale: %s", reason)
			}
			t.Logf("seed %d: replica stats after convergence: %+v", seed, st.Stats)
			if err := m.Abort(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplicaCheckpointCatchUpAfterPrune proves a replica that falls behind
// the primary's pruned WAL window (a partition outlasting two checkpoints)
// catches up from a shipped checkpoint instead of failing.
func TestReplicaCheckpointCatchUpAfterPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := buildOps(rng)
	half := len(ops) / 2

	dir := t.TempDir()
	m, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	primarySrv := httptest.NewServer(NewPrimary(m).Handler())
	defer primarySrv.Close()
	proxy := newFaultProxy(t, primarySrv.Listener.Addr().String())
	rep := Start(fastOptions(proxy.URL(), "catchup"))
	defer rep.Close()

	applyOps(t, m.Ontology(), ops[:half])
	waitConverged(t, rep, m.Ontology(), "before partition")
	behindGen := rep.Generation()

	// Partition the replica, then advance the primary past two checkpoints
	// so the WAL window the replica would resume from is pruned away.
	proxy.setFaults(true, 0, -1)
	proxy.dropConns()
	applyOps(t, m.Ontology(), ops[half:])
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, m.Ontology(), []op{replReleaseOp(0, 100)})
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldest, err := m.OldestShippableGeneration()
	if err != nil {
		t.Fatal(err)
	}
	if oldest <= behindGen {
		t.Fatalf("pruning did not pass the replica: oldest shippable %d, replica at %d", oldest, behindGen)
	}

	proxy.heal()
	if err := rep.WaitForGeneration(m.Ontology().Store().Generation(), 30*time.Second); err != nil {
		t.Fatalf("after catch-up: %v", err)
	}
	// The catch-up checkpoint carries the primary's dictionary table as it
	// is, so the replica is byte-identical to the live primary, and so is a
	// read-only recovery of the primary's dir, dictionary TermIDs included.
	assertConverged(t, m.Ontology(), rep.Ontology(), "after catch-up")
	recovered, _, err := wal.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertConverged(t, recovered, rep.Ontology(), "replica vs recovery")
	if st := rep.Status(); st.Stats.CheckpointsFetched < 2 {
		t.Errorf("replica fetched %d checkpoints, want >= 2 (bootstrap + catch-up)", st.Stats.CheckpointsFetched)
	}
}

// TestReplicaAheadResync proves a replica that replicated writes the primary
// later lost (an unsynced WAL tail torn off by a primary crash) detects the
// divergence (409), discards its state and follows the primary's new
// history.
func TestReplicaAheadResync(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := buildOps(rng)

	dir := t.TempDir()
	m, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	primarySrv := httptest.NewServer(NewPrimary(m).Handler())
	proxy := newFaultProxy(t, primarySrv.Listener.Addr().String())
	rep := Start(fastOptions(proxy.URL(), "ahead"))
	defer rep.Close()

	applyOps(t, m.Ontology(), ops)
	waitConverged(t, rep, m.Ontology(), "before primary crash")
	aheadGen := rep.Generation()

	// Crash the primary and tear off its whole unsynced WAL: the restarted
	// primary recovers an older generation than the replica holds.
	primarySrv.Close()
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d found)", err, len(segs))
	}
	for _, seg := range segs {
		if err := os.Truncate(seg, 0); err != nil {
			t.Fatal(err)
		}
	}
	m, err = wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatalf("primary restart: %v", err)
	}
	defer m.Abort()
	if got := m.Ontology().Store().Generation(); got >= aheadGen {
		t.Fatalf("truncation did not lose the tail: primary recovered generation %d, replica at %d", got, aheadGen)
	}
	primarySrv = httptest.NewServer(NewPrimary(m).Handler())
	defer primarySrv.Close()
	proxy.setTarget(primarySrv.Listener.Addr().String())

	// The replica must notice it is ahead and resync wholesale.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := rep.Status(); st.Stats.DivergenceResyncs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never detected the divergence: %+v", rep.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New history on the restarted primary; the replica follows it.
	applyOps(t, m.Ontology(), []op{{name: "new-history", run: core.BuildSupersedeGlobalGraph}})
	waitConverged(t, rep, m.Ontology(), "after divergence resync")
}

// corruptingProxy forwards requests to a backend handler and, while armed,
// flips one byte in the middle of WAL stream response bodies — a
// deterministic stand-in for in-flight bit rot that must be caught by the
// replica's CRC re-verification, not applied.
type corruptingProxy struct {
	backend   http.Handler
	remaining atomic.Int64 // WAL responses still to corrupt
}

func (c *corruptingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	c.backend.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if strings.HasSuffix(r.URL.Path, "/wal") && rec.Code == http.StatusOK && len(body) > 12 {
		if c.remaining.Load() > 0 {
			c.remaining.Add(-1)
			body[len(body)/2] ^= 0x5a
		}
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// TestReplicaCorruptFrameQuarantine proves a bit-flipped shipped frame is
// caught by CRC re-verification on the replica: the poisoned chunk is
// quarantined (nothing from it applied), the replica refetches, and once the
// wire delivers clean bytes it converges byte-identically.
func TestReplicaCorruptFrameQuarantine(t *testing.T) {
	dir := t.TempDir()
	m, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	proxy := &corruptingProxy{backend: NewPrimary(m).Handler()}
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	rep := Start(fastOptions(srv.URL, "crc"))
	defer rep.Close()

	rng := rand.New(rand.NewSource(5))
	ops := buildOps(rng)
	half := len(ops) / 2
	applyOps(t, m.Ontology(), ops[:half])
	waitConverged(t, rep, m.Ontology(), "before corruption")

	proxy.remaining.Store(2)
	applyOps(t, m.Ontology(), ops[half:])
	waitConverged(t, rep, m.Ontology(), "after corruption healed")
	if st := rep.Status(); st.Stats.CorruptFrames < 1 {
		t.Errorf("replica applied a poisoned chunk without noticing: %+v", st.Stats)
	}
}

// TestStalenessGate unit-tests the Stale decision: unsynchronized replicas
// are always stale; MaxLag gates on generations behind the primary; MaxAge
// gates on time since the last successful contact; with no gates a
// synchronized replica serves stale-but-consistent reads forever.
func TestStalenessGate(t *testing.T) {
	bare := func(opts Options) *Replica {
		return &Replica{opts: opts.withDefaults()}
	}
	synced := func(opts Options) *Replica {
		r := bare(opts)
		r.ontology.Store(core.NewOntology())
		r.lastContact.Store(time.Now().UnixNano())
		return r
	}

	r := bare(Options{Primary: "http://x"})
	if stale, reason := r.Stale(); !stale || !strings.Contains(reason, "initial synchronization") {
		t.Errorf("unsynchronized replica: stale=%v reason=%q", stale, reason)
	}

	r = synced(Options{Primary: "http://x", MaxLag: 2})
	base := r.Ontology().Store().Generation()
	r.primaryGen.Store(base + 3)
	if stale, reason := r.Stale(); !stale || !strings.Contains(reason, "generations behind") {
		t.Errorf("lag 3 with MaxLag 2: stale=%v reason=%q", stale, reason)
	}
	r.primaryGen.Store(base + 2)
	if stale, _ := r.Stale(); stale {
		t.Error("lag equal to MaxLag must not be stale")
	}

	r = synced(Options{Primary: "http://x", MaxAge: time.Minute})
	if stale, _ := r.Stale(); stale {
		t.Error("fresh contact within MaxAge must not be stale")
	}
	r.lastContact.Store(time.Now().Add(-2 * time.Minute).UnixNano())
	if stale, reason := r.Stale(); !stale || !strings.Contains(reason, "no successful contact") {
		t.Errorf("2m silence with MaxAge 1m: stale=%v reason=%q", stale, reason)
	}

	// No gates configured: degraded but serving.
	r = synced(Options{Primary: "http://x"})
	r.primaryGen.Store(r.Ontology().Store().Generation() + 1000)
	r.lastContact.Store(time.Now().Add(-24 * time.Hour).UnixNano())
	if stale, _ := r.Stale(); stale {
		t.Error("ungated replica must serve stale-but-consistent reads")
	}
}
