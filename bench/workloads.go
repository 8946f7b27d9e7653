package main

import (
	"fmt"
	"math/rand"
	"time"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/rewriting"
	"bdi/internal/source"
	"bdi/internal/workload"
	"bdi/internal/wrapper"
)

// scale holds every size of the four workloads. The full scale is the one
// BENCHMARK.json was calibrated with; tiny exists for smoke_test.go.
type scale struct {
	window time.Duration // timed window of the read workloads; 0 takes -seconds

	apps          int // answer-rows: applications (10 events each, one answer row per event)
	walkConcepts  int // answer-walks: C of BuildWorstCase
	walkWrappers  int // answer-walks: W of BuildWorstCase
	missChains    int // rewrite-miss: chains of 3 concepts, 2 wrappers each, 3 OMQs per chain
	evolveChains  int // evolve: chains of 3 concepts, released at versions 1 to evolveVersions
	evolveSide    int // evolve: side concepts the unrelated releases land on
	warmup        int // least number of warm-up requests
	sample        int // requests in a traced pass
	sampleRows    int // the same on answer-rows, whose requests are large
	setups        int // set-ups per end-to-end run, of which the median is reported
	durabilityRep int // repetitions of recovery and of checkpoint on evolve
}

var scales = map[string]scale{
	"full": {
		apps: 200, walkConcepts: 5, walkWrappers: 3, missChains: 128,
		evolveChains: 96, evolveSide: 32,
		warmup: 50, sample: 200, sampleRows: 50, setups: 3, durabilityRep: 3,
	},
	"tiny": {
		window: 150 * time.Millisecond,
		apps:   10, walkConcepts: 3, walkWrappers: 2, missChains: 4,
		evolveChains: 3, evolveSide: 2,
		warmup: 4, sample: 6, sampleRows: 3, setups: 1, durabilityRep: 1,
	},
}

const (
	chainConcepts  = 3 // C of the generated chains
	missWrappers   = 2 // W on rewrite-miss: 2^3 walks per OMQ
	evolveVersions = 4 // evolve ends with 4^3 walks per chain
	sampleTuples   = 3 // rows per executable generated wrapper
	fullCheckEvery = 16
)

// readWorkload is a workload whose timed window is one kind of query
// request against a store that does not change.
type readWorkload struct {
	name string
	path string
	// hits says that the workload's requests are served from the rewriting
	// cache, so a traced pass warms its own cache first.
	hits bool
	// sample is the number of requests in a traced pass.
	sample func(sc scale) int
	setup  func(sc scale, rng *rand.Rand) (*system, []query, error)
	check  func(q *query, status int, reply []byte, full bool) (int, error)
}

const (
	answerPath  = "/api/queries/answer"
	rewritePath = "/api/queries/rewrite"
	releasePath = "/api/releases"
)

func smallSample(sc scale) int { return sc.sampleRows }
func fullSample(sc scale) int  { return sc.sample }

var readWorkloads = map[string]readWorkload{
	wlAnswerRows:  {wlAnswerRows, answerPath, true, smallSample, setupAnswerRows, (*query).checkAnswer},
	wlAnswerWalks: {wlAnswerWalks, answerPath, true, fullSample, setupAnswerWalks, (*query).checkAnswer},
	wlRewriteMiss: {wlRewriteMiss, rewritePath, false, fullSample, setupRewriteMiss, (*query).checkRewrite},
}

// setupAnswerRows is the SUPERSEDE running example at volume: the paper's
// ontology with the evolved wrapper w4, the JSON wrappers w1-w4 of the
// simulated ecosystem over documents generated once, and the exemplary
// query (applicationId, lagRatio).
func setupAnswerRows(sc scale, rng *rand.Rand) (*system, []query, error) {
	o, err := core.BuildSupersedeOntology(true)
	if err != nil {
		return nil, nil, err
	}
	gen := source.NewGenerator(sc.apps, rng.Int63())
	eco := source.NewEcosystem(gen)
	eco.VoD.RegisterStatic("v1", "events", gen.VoDDocumentsV1())
	eco.VoD.RegisterStatic("v2", "events", gen.VoDDocumentsV2())
	eco.Feedback.RegisterStatic("v1", "feedback", gen.FeedbackDocuments())
	eco.Registry.RegisterStatic("v1", "apps", gen.AppLinkDocuments())
	reg := eco.WrapperRegistry(true)
	for _, name := range reg.Names() {
		reg.Alias(string(core.WrapperURI(name)), name)
	}
	text := sparqlText(
		[]rdf.IRI{core.SupApplicationID, core.SupLagRatio},
		[]rdf.Triple{
			rdf.T(core.SupSoftwareApplication, core.GHasFeature, core.SupApplicationID),
			rdf.T(core.SupSoftwareApplication, core.SupHasMonitor, core.SupMonitor),
			rdf.T(core.SupMonitor, core.SupGeneratesQoS, core.SupInfoMonitor),
			rdf.T(core.SupInfoMonitor, core.GHasFeature, core.SupLagRatio),
		}, rng)
	return answerSystem(o, reg, []string{text})
}

// setupAnswerWalks is the Figure 8 worst case: every combination of one
// wrapper per concept is a covering and minimal walk, and each wrapper
// holds three rows.
func setupAnswerWalks(sc scale, rng *rand.Rand) (*system, []query, error) {
	wc, err := workload.BuildWorstCase(sc.walkConcepts, sc.walkWrappers)
	if err != nil {
		return nil, nil, err
	}
	sys, queries, err := answerSystem(wc.Ontology, wc.Registry, []string{sparqlText(wc.Query.Pi, wc.Query.Phi.Triples, rng)})
	if err == nil && queries[0].walks != wc.ExpectedWalks() {
		sys.discard()
		return nil, nil, fmt.Errorf("%s: oracle rewrites to %d walks, W^C is %d", wlAnswerWalks, queries[0].walks, wc.ExpectedWalks())
	}
	return sys, queries, err
}

// answerSystem starts a server and asks the oracle for every query's
// answer.
func answerSystem(o *core.Ontology, reg *wrapper.Registry, texts []string) (*system, []query, error) {
	rewriter, resolver := rewriting.NewRewriter(o), wrapper.NewQualifiedResolver(reg)
	queries := make([]query, len(texts))
	for i, text := range texts {
		q, err := newQuery(text)
		if err != nil {
			return nil, nil, err
		}
		if err := q.expectAnswer(rewriter, resolver); err != nil {
			return nil, nil, err
		}
		queries[i] = q
	}
	sys, err := newSystem(o, reg, nil, "")
	return sys, queries, err
}

// missMasks are the value-feature selections of the OMQs of a rewrite-miss
// chain. Each gives every concept of the chain another intra-concept unit,
// so missChains*3 OMQs (384) overflow the cache's 256 entries and
// missChains*3*3 units (1152) its 1024.
var missMasks = []uint{1, 2, 3}

// setupRewriteMiss bulk-loads missChains disjoint chains with two wrappers
// per concept and builds three OMQs per chain. Their order is a seeded
// permutation that the clients then visit cyclically, which defeats LRU.
func setupRewriteMiss(sc scale, rng *rand.Rand) (*system, []query, error) {
	cs := chainSet{ns: namespace(rng), tag: "m", chains: sc.missChains, concepts: chainConcepts, values: 2}
	o := core.NewOntology()
	if err := cs.design(o); err != nil {
		return nil, nil, err
	}
	for k := range cs.chains {
		for i := range cs.concepts {
			for w := range missWrappers {
				if _, err := o.NewRelease(toRelease(cs.release(k, i, w, 1, nil))); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	rewriter := rewriting.NewRewriter(o)
	var queries []query
	for _, mask := range missMasks {
		for k := range cs.chains {
			q, err := newQuery(cs.query(k, mask, rng))
			if err != nil {
				return nil, nil, err
			}
			if err := q.expectRewrite(rewriter); err != nil {
				return nil, nil, err
			}
			if want := pow(missWrappers, chainConcepts); q.walks != want {
				return nil, nil, fmt.Errorf("%s: oracle rewrites chain %d to %d walks, W^C is %d", wlRewriteMiss, k, q.walks, want)
			}
			queries = append(queries, q)
		}
	}
	// The permutation keeps each round of masks together: between two
	// visits of an OMQ lie all the others, and between two uses of a unit
	// all the other units.
	for r := range missMasks {
		round := queries[r*cs.chains : (r+1)*cs.chains]
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
	}
	sys, err := newSystem(o, wrapper.NewRegistry(), nil, "")
	return sys, queries, err
}

// namespace is the seeded IRI namespace of a generated ontology.
func namespace(rng *rand.Rand) string {
	return fmt.Sprintf("http://bench.bdi.example/%08x/", rng.Uint32())
}

func pow(b, e int) int {
	n := 1
	for range e {
		n *= b
	}
	return n
}
