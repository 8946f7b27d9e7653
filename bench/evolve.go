package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bdi/internal/core"
	"bdi/internal/mdm"
	"bdi/internal/replication"
	"bdi/internal/rewriting"
	"bdi/internal/wal"
	"bdi/internal/wrapper"
)

// The evolve workload is the paper's headline scenario and the only one
// with writes beside reads. A durable primary holds evolveChains chains at
// version 1. One client posts a fixed trace of releases: versions 2 to
// evolveVersions of every chain source (the same source name, so Algorithm
// 1 reuses its attributes), each followed by an unrelated release on a side
// concept no query touches. The other client cycles the chain queries, a
// set that fits the rewriting cache, until the trace ends. The trace has a
// fixed length and not a fixed duration so that every run ends in the same
// store: release latency grows with the ontology, and a faster program must
// not be made to run further up that slope.

// traceOp is one release of the trace with what Algorithm 1 must report.
type traceOp struct {
	req     mdm.ReleaseRequest
	body    []byte
	related bool
}

// evolveState is what set-up hands to the run.
type evolveState struct {
	chains  chainSet
	side    chainSet
	rows    [][][][]float64 // the sample tuples of every chain source
	queries []query
	trace   []traceOp
	acked   []string // wrappers whose release was acknowledged
}

func newTraceOp(req mdm.ReleaseRequest, related bool) (traceOp, error) {
	body, err := json.Marshal(req)
	return traceOp{req: req, body: body, related: related}, err
}

// checkRelease verifies a reply of POST /api/releases against what
// Algorithm 1 must do with the release: a related release finds its source
// and every attribute registered, an unrelated one finds neither.
func (op *traceOp) checkRelease(status int, reply []byte) error {
	if status != 201 {
		return fmt.Errorf("release %s: status %d: %.200s", op.req.Wrapper, status, reply)
	}
	var got mdm.ReleaseResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("release %s: %w", op.req.Wrapper, err)
	}
	attrs := len(op.req.IDAttributes) + len(op.req.NonIDAttributes)
	wantNew, wantReused := attrs, 0
	if op.related {
		wantNew, wantReused = 0, attrs
	}
	if got.NewSource == op.related || got.NewAttributes != wantNew || got.ReusedAttributes != wantReused || got.TriplesAdded == 0 {
		return fmt.Errorf("release %s: newSource=%v new=%d reused=%d triples=%d, want newSource=%v new=%d reused=%d",
			op.req.Wrapper, got.NewSource, got.NewAttributes, got.ReusedAttributes, got.TriplesAdded, !op.related, wantNew, wantReused)
	}
	return nil
}

// buildEvolve opens a fresh data directory, designs G on the recovered
// ontology, releases version 1 of every chain source over HTTP, checkpoints
// and generates the trace.
func buildEvolve(sc scale, rng *rand.Rand) (*system, *evolveState, error) {
	ns := namespace(rng)
	st := &evolveState{
		chains: chainSet{ns: ns, tag: "e", chains: sc.evolveChains, concepts: chainConcepts, values: 1},
		side:   chainSet{ns: ns, tag: "side", chains: sc.evolveSide, concepts: 1, values: 1},
	}
	st.rows = st.chains.sampleRows(sampleTuples, rng)

	dir, err := tempDataDir()
	if err != nil {
		return nil, nil, err
	}
	manager, err := wal.Open(dir, wal.Options{Sync: syncPolicy})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, nil, err
	}
	o, reg := manager.Ontology(), wrapper.NewRegistry()
	sys, err := newSystem(o, reg, manager, dir)
	if err != nil {
		_ = manager.Abort()
		_ = os.RemoveAll(dir)
		return nil, nil, err
	}
	fail := func(err error) (*system, *evolveState, error) {
		sys.discard()
		return nil, nil, err
	}
	if err := st.chains.design(o); err != nil {
		return fail(err)
	}
	if err := st.side.design(o); err != nil {
		return fail(err)
	}
	p := &poster{sys: sys}
	for k := range st.chains.chains {
		for i := range st.chains.concepts {
			op, err := newTraceOp(st.chains.release(k, i, 0, 1, st.rows[k][i]), false)
			if err != nil {
				return fail(err)
			}
			status, reply, _, err := p.post(releasePath, op.body)
			if err == nil {
				err = op.checkRelease(status, reply)
			}
			if err != nil {
				return fail(err)
			}
			st.acked = append(st.acked, op.req.Wrapper)
		}
	}
	if _, err := manager.Checkpoint(); err != nil {
		return fail(err)
	}

	rewriter, resolver := rewriting.NewRewriter(o), wrapper.NewQualifiedResolver(reg)
	for k := range st.chains.chains {
		q, err := newQuery(st.chains.query(k, 1, rng))
		if err != nil {
			return fail(err)
		}
		if err := q.expectAnswer(rewriter, resolver); err != nil {
			return fail(err)
		}
		if q.walks != 1 || q.rows != sampleTuples {
			return fail(fmt.Errorf("%s: chain %d at version 1 has %d walks and %d rows, want 1 and %d", wlEvolve, k, q.walks, q.rows, sampleTuples))
		}
		st.queries = append(st.queries, q)
	}

	for version := 2; version <= evolveVersions; version++ {
		for _, k := range rng.Perm(st.chains.chains) {
			for i := range st.chains.concepts {
				related, err := newTraceOp(st.chains.release(k, i, 0, version, st.rows[k][i]), true)
				if err != nil {
					return fail(err)
				}
				n := len(st.trace)/2 + 1
				unrelated, err := newTraceOp(st.side.release(n%st.side.chains, 0, n, 1, nil), false)
				if err != nil {
					return fail(err)
				}
				st.trace = append(st.trace, related, unrelated)
			}
		}
	}
	return sys, st, nil
}

// readerSample is one answer of the reading client with how far the trace
// had got when it was asked.
type readerSample struct {
	latency  time.Duration
	released int
}

func runEvolve(opt options) (*result, error) {
	tl := &tally{}
	wantWalks := pow(evolveVersions, chainConcepts)

	// answer posts one chain query and checks it; the walk count may only
	// grow, and every answer has the same rows whatever was released.
	seenWalks := map[*query]int{}
	answer := func(p *poster, q *query, full bool) (time.Duration, int, error) {
		status, reply, d, err := p.post(answerPath, q.body)
		if err != nil {
			return d, 0, err
		}
		walks, err := q.checkAnswer(status, reply, full)
		if err == nil && (walks < seenWalks[q] || walks > wantWalks) {
			err = fmt.Errorf("answer: %d walks after %d, and never more than %d", walks, seenWalks[q], wantWalks)
		}
		if err == nil {
			seenWalks[q] = walks
		}
		return d, walks, err
	}
	warm := func(sys *system, st *evolveState) {
		clear(seenWalks)
		p := &poster{sys: sys}
		for i := range max(len(st.queries), opt.scale.warmup) {
			_, _, err := answer(p, &st.queries[i%len(st.queries)], true)
			tl.check(err)
		}
	}
	sys, st, setupSeconds, err := setUp(opt, func(rng *rand.Rand) (*system, *evolveState, error) { return buildEvolve(opt.scale, rng) }, warm)
	if err != nil {
		return nil, err
	}
	defer func() { sys.discard() }()

	before, err := sys.readCounters()
	if err != nil {
		return nil, err
	}
	quadsBefore := sys.ontology.Store().Len()
	sampler := startMemSampler()

	// The timed window: the writer replays the trace, the reader asks
	// until the writer is done.
	var released atomic.Int64
	var releaseLat []time.Duration
	var reads []readerSample
	var walksSeen int
	var wg sync.WaitGroup
	start := time.Now()
	var writerElapsed time.Duration
	wg.Add(2)
	go func() {
		defer wg.Done()
		p := &poster{sys: sys}
		for i := range st.trace {
			op := &st.trace[i]
			status, reply, d, err := p.post(releasePath, op.body)
			if err == nil {
				err = op.checkRelease(status, reply)
			}
			tl.check(err)
			if err == nil {
				releaseLat = append(releaseLat, d)
				st.acked = append(st.acked, op.req.Wrapper)
			}
			released.Add(1)
		}
		writerElapsed = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		p := &poster{sys: sys}
		for i := 0; int(released.Load()) < len(st.trace); i++ {
			at := int(released.Load())
			d, walks, err := answer(p, &st.queries[i%len(st.queries)], i%fullCheckEvery == 0)
			tl.check(err)
			if err == nil {
				reads = append(reads, readerSample{d, at})
				walksSeen += walks
			}
		}
	}()
	wg.Wait()
	readerElapsed := time.Since(start)
	retainedMB, heapPeak := sampler.finish()
	after, err := sys.readCounters()
	if err != nil {
		return nil, err
	}

	m := measures{
		"request_p50_ms": percentile(releaseLat, 0.50),
		"request_p95_ms": percentile(releaseLat, 0.95),
		"request_rps":    float64(len(releaseLat)) / writerElapsed.Seconds(),
		"setup_s":        setupSeconds,
		"mem_mb":         retainedMB,
	}

	// With the writer idle every chain must report the generator's walk
	// count. The first pass checks that (and refills the cache), the second
	// times the same queries for the lock-wait ratio.
	p := &poster{sys: sys}
	var idle []time.Duration
	for pass := range 2 {
		for i := range st.queries {
			d, walks, err := answer(p, &st.queries[i], true)
			if err == nil && walks != wantWalks {
				err = fmt.Errorf("answer: chain %d ends with %d walks, want %d", i, walks, wantWalks)
			}
			tl.check(err)
			if pass == 1 {
				idle = append(idle, d)
			}
		}
	}

	var spans *spanAgg
	if opt.trace {
		releases := float64(len(releaseLat))
		windowLayers(m, before, after, releases+float64(len(reads)), heapPeak)
		answerLayers(m, before, after, float64(len(reads)))
		var readLat, lateLat []time.Duration
		for _, r := range reads {
			readLat = append(readLat, r.latency)
			if r.released >= len(st.trace)*9/10 {
				lateLat = append(lateLat, r.latency)
			}
		}
		walBytes := float64(after.wal.BytesAppended - before.wal.BytesAppended)
		m["mdm.request_p99_ms"] = percentile(releaseLat, 0.99)
		m["mdm.answer_p50_ms"] = percentile(readLat, 0.50)
		m["mdm.answer_p95_ms"] = percentile(readLat, 0.95)
		m["mdm.answer_rps"] = float64(len(reads)) / readerElapsed.Seconds()
		m["mdm.lock_wait_ratio"] = ratio(percentile(lateLat, 0.50), percentile(idle, 0.50))
		m["rewriting.walks_per_query"] = ratio(float64(walksSeen), float64(len(reads)))
		m["store.addall_ms_per_release"] = ratio(1000*delta(before, after, "bdi_store_addall_seconds_sum"), releases)
		m["store.quads_per_release"] = ratio(delta(before, after, "bdi_store_addall_quads_total"), releases)
		m["wal.fsyncs_per_release"] = ratio(float64(after.wal.Fsyncs-before.wal.Fsyncs), releases)
		m["wal.fsync_ms_total"] = 1000 * delta(before, after, "bdi_wal_fsync_seconds_sum")
		m["wal.bytes_per_release"] = ratio(walBytes, releases)
		m["wal.bytes_per_quad"] = ratio(walBytes, float64(sys.ontology.Store().Len()-quadsBefore))

		if err := replicaCatchUp(m, sys); err != nil {
			return nil, err
		}
		for i := range st.queries {
			st.queries[i].walks = wantWalks
		}
		w := readWorkload{name: wlEvolve, path: answerPath, hits: true, check: (*query).checkAnswer}
		if spans, err = tracedReads(m, sys, w, sampleOf(st.queries, opt.scale.sample, opt.seed), tl); err != nil {
			return nil, err
		}
	}

	reps := 1
	if opt.trace {
		reps = opt.scale.durabilityRep
	}
	if err := reopen(m, sys, st, reps, tl); err != nil {
		return nil, err
	}

	if !opt.trace {
		return finish(opt, tl, len(releaseLat), m, endToEndSpecs, nil), nil
	}
	if err := twins(m, st); err != nil {
		return nil, err
	}
	return finish(opt, tl, len(releaseLat), m, perLayerSpecs, spans.report(wlEvolve)), nil
}

// replicaCatchUp starts a fresh replica against the finished primary and
// times how long it takes to reach the primary's generation: a checkpoint
// bootstrap plus the whole WAL tail of the trace.
func replicaCatchUp(m measures, sys *system) error {
	target := sys.ontology.Store().Generation()
	start := time.Now()
	rep := replication.Start(replication.Options{Primary: sys.url})
	err := rep.WaitForGeneration(target, time.Minute)
	m["replication.catchup_ms"] = ms(time.Since(start))
	m["replication.catchup_frames"] = float64(rep.Status().Stats.FramesApplied)
	_ = rep.Close()
	if err != nil {
		return fmt.Errorf("replica catch-up: %w", err)
	}
	return nil
}

// reopen stops the server and recovers the data directory as the run left
// it (the set-up checkpoint plus the whole WAL tail), then checkpoints the
// final store and recovers once more. After every recovery the store must
// have the quads, the generation and every acknowledged wrapper of the
// store that was closed.
func reopen(m measures, sys *system, st *evolveState, reps int, tl *tally) error {
	sys.stopServer()
	if err := sys.manager.Sync(); err != nil {
		return err
	}
	store := sys.ontology.Store()
	quads, generation := store.Len(), store.Generation()
	if err := sys.manager.Abort(); err != nil {
		return err
	}
	sys.manager = nil

	recoverOnce := func() (*wal.Manager, time.Duration, error) {
		start := time.Now()
		manager, err := wal.Open(sys.dataDir, wal.Options{Sync: syncPolicy})
		took := time.Since(start)
		if err != nil {
			return nil, took, err
		}
		got := manager.Ontology()
		present := map[string]bool{}
		for _, w := range got.Wrappers() {
			present[core.WrapperLocalName(w)] = true
		}
		err = nil
		if got.Store().Len() != quads || got.Store().Generation() != generation {
			err = fmt.Errorf("recovery: %d quads at generation %d, closed with %d at %d", got.Store().Len(), got.Store().Generation(), quads, generation)
		}
		for _, w := range st.acked {
			if err == nil && !present[w] {
				err = fmt.Errorf("recovery: acknowledged wrapper %s is missing", w)
			}
		}
		tl.check(err)
		return manager, took, nil
	}

	var recovery []float64
	var records int
	for range reps {
		manager, took, err := recoverOnce()
		if err != nil {
			return err
		}
		recovery = append(recovery, ms(took))
		records = manager.Recovery().RecordsReplayed
		if err := manager.Abort(); err != nil {
			return err
		}
	}
	manager, _, err := recoverOnce()
	if err != nil {
		return err
	}
	var checkpoint []float64
	var info wal.CheckpointInfo
	for range reps {
		start := time.Now()
		if info, err = manager.Checkpoint(); err != nil {
			_ = manager.Abort()
			return err
		}
		checkpoint = append(checkpoint, ms(time.Since(start)))
	}
	if err := manager.Abort(); err != nil {
		return err
	}
	manager, took, err := recoverOnce()
	if err != nil {
		return err
	}
	if err := manager.Abort(); err != nil {
		return err
	}
	m["wal.recovery_ms"] = median(recovery)
	m["wal.recovery_records"] = float64(records)
	m["wal.checkpoint_ms"] = median(checkpoint)
	m["wal.checkpoint_mb"] = float64(info.Bytes) / (1 << 20)
	m["wal.checkpoint_bytes_per_quad"] = ratio(float64(info.Bytes), float64(info.Quads))
	m["wal.recovery_after_checkpoint_ms"] = ms(took)
	return nil
}

// twins replays the set-up and the trace through Ontology.NewRelease with
// no server: once on a plain ontology, which times Algorithm 1 and the
// store alone, and once on a journaled one, whose extra time is the WAL's.
func twins(m measures, st *evolveState) error {
	replay := func(o *core.Ontology) (results []*core.ReleaseResult, took []float64, err error) {
		if err := st.chains.design(o); err != nil {
			return nil, nil, err
		}
		if err := st.side.design(o); err != nil {
			return nil, nil, err
		}
		for k := range st.chains.chains {
			for i := range st.chains.concepts {
				if _, err := o.NewRelease(toRelease(st.chains.release(k, i, 0, 1, st.rows[k][i]))); err != nil {
					return nil, nil, err
				}
			}
		}
		for i := range st.trace {
			release := toRelease(st.trace[i].req)
			start := time.Now()
			res, err := o.NewRelease(release)
			took = append(took, us(time.Since(start)))
			if err != nil {
				return nil, nil, err
			}
			results = append(results, res)
		}
		return results, took, nil
	}

	results, plain, err := replay(core.NewOntology())
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	dir, err := tempDataDir()
	if err != nil {
		return err
	}
	manager, err := wal.Open(dir, wal.Options{Sync: syncPolicy})
	if err != nil {
		return err
	}
	_, journaled, err := replay(manager.Ontology())
	_ = manager.Abort()
	_ = os.RemoveAll(dir)
	if err != nil {
		return fmt.Errorf("journaled twin: %w", err)
	}

	var triples, fresh, reused float64
	for _, r := range results {
		triples += float64(r.TriplesAdded)
		fresh += float64(len(r.NewAttributes))
		reused += float64(len(r.ReusedAttributes))
	}
	decile := max(len(plain)/10, 1)
	m["core.new_release_us"] = median(plain)
	m["core.new_release_growth"] = ratio(median(plain[len(plain)-decile:]), median(plain[:decile]))
	m["core.triples_per_release"] = ratio(triples, float64(len(results)))
	m["core.attr_reuse_ratio"] = ratio(reused, reused+fresh)
	m["wal.append_us_per_release"] = median(journaled) - median(plain)
	return nil
}
