package rewriting

import (
	"container/list"
	"context"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"

	"bdi/internal/core"
	"bdi/internal/lifecycle"
	"bdi/internal/obs"
	"bdi/internal/rdf"
	"bdi/internal/relational"
)

// Hot-path rewriting metrics. The histogram's count doubles as the rewrite
// counter; unit builds are the expensive Algorithm 4 recomputations a cache
// miss (or release invalidation) forces.
var (
	rewriteDurationSeconds = obs.NewHistogram("bdi_rewrite_duration_seconds",
		"Latency of cached OMQ rewrites (hits and incremental rebuilds).")
	unitBuildSeconds = obs.NewHistogram("bdi_rewrite_unit_build_seconds",
		"Latency of intra-concept unit builds (Algorithm 4) on unit-cache misses.")
)

// Default capacity bounds of the cache. Both layers are LRU: when a bound
// is exceeded the least recently used entry is dropped and its memory —
// including the walks of large worst-case results — becomes collectable
// immediately. Entries never pin store.Snapshot values, so a full cache
// adds no stale store generations to the live heap.
const (
	DefaultMaxEntries = 256
	DefaultMaxUnits   = 1024
)

// keptValuesMax bounds the values a cache's results keep in their value
// dictionaries. At ~200 bytes a value they pin at most ~50 MB: a result of
// 2^17 values, 50 times the scaled running example's, keeps them all.
const keptValuesMax = 1 << 18

// Cache memoizes rewriting results and, underneath them, per-concept
// intra-concept units (Algorithm 4 output), both tagged with invalidation
// footprints. The paper notes (§6.4) that rewritings only depend on the
// ontology, so they stay valid until the data steward registers a new
// release; release-based evolution (Algorithm 1) additionally bounds *what*
// a release can change, which this cache exploits:
//
//   - When the store generation moves, the cache asks the ontology for the
//     ReleaseDeltas covering the interval. If every mutation is explained by
//     releases, only entries and units whose footprint intersects a delta
//     are retired — queries over untouched concepts keep their results and
//     cost a pure cache hit even though the ontology evolved.
//   - A query whose entry was retired (or was never cached) is rebuilt
//     incrementally: retained intra-concept units are reused and only the
//     missing units plus the inter-concept joins (Algorithm 5) and the
//     coverage filter are recomputed.
//   - A mutation interval not explained by releases (Global-graph edits,
//     administrative removals, direct store writes) flushes everything —
//     the pre-delta behaviour.
//
// Results handed out by the cache are shared and must be treated as
// immutable. The cache is safe for concurrent use; a rewrite that races
// with a store mutation is retried so that every returned result is
// computed against exactly one store generation.
//
// The cache owns what its results keep: Answer charges each entry the values
// its result's dictionary holds, and past keptValuesMax drops the least
// recently used entries' dictionaries. A removed entry's charge goes with it.
type Cache struct {
	rewriter   *Rewriter
	maxEntries int
	maxUnits   int

	mu sync.Mutex
	// generation is the store generation every live entry and unit is
	// validated against. Tracked as a number, not a pinned Snapshot, so an
	// idle cache keeps no store generation alive.
	generation uint64
	entries    map[string]*cacheEntry
	entryLRU   *list.List // of *cacheEntry, front = most recently used
	units      map[string]*unitEntry
	unitLRU    *list.List // of *unitEntry

	stats CacheStats
}

// cacheEntry is one memoized rewriting result.
type cacheEntry struct {
	key       string
	res       *Result
	footprint core.Footprint
	elem      *list.Element
	kept      int // values res's dictionary held when Answer last charged it
}

// unitEntry is one memoized intra-concept unit.
type unitEntry struct {
	key       string
	concept   rdf.IRI
	walks     PartialWalks
	footprint core.Footprint
	elem      *list.Element
}

// CacheStats reports cache effectiveness and delta-invalidation behaviour.
// It is also the body of the mdm server's GET /api/queries/cache.
type CacheStats struct {
	// Hits and Misses count whole-result lookups; Entries is the live count.
	Hits    int `json:"hits"`
	Misses  int `json:"misses"`
	Entries int `json:"entries"`
	// UnitHits and UnitMisses count intra-concept unit lookups during
	// incremental rebuilds; Units is the live count.
	UnitHits   int `json:"unitHits"`
	UnitMisses int `json:"unitMisses"`
	Units      int `json:"units"`
	// EntriesRetained / EntriesInvalidated count what delta validation kept
	// and retired; likewise for units.
	EntriesRetained    int `json:"entriesRetained"`
	EntriesInvalidated int `json:"entriesInvalidated"`
	UnitsRetained      int `json:"unitsRetained"`
	UnitsInvalidated   int `json:"unitsInvalidated"`
	// FullFlushes counts validations that dropped everything because the
	// mutation interval was not explained by release deltas.
	FullFlushes int `json:"fullFlushes"`
	// Evictions counts LRU drops (entries and units).
	Evictions int `json:"evictions"`
	// Retries counts rewrites re-run because the store mutated mid-rewrite.
	Retries int `json:"retries"`
	// InvalidatedByConcept counts, per concept IRI, how many entries and
	// units a release delta retired because the delta touched that concept.
	InvalidatedByConcept map[string]int `json:"invalidatedByConcept,omitempty"`
	// KeptValues sums the entries' charges for their kept dictionaries.
	KeptValues int `json:"keptValues,omitempty"`
}

// NewCache returns a caching front-end for the rewriter with default
// capacity bounds.
func NewCache(r *Rewriter) *Cache {
	return &Cache{
		rewriter:   r,
		maxEntries: DefaultMaxEntries,
		maxUnits:   DefaultMaxUnits,
		entries:    map[string]*cacheEntry{},
		entryLRU:   list.New(),
		units:      map[string]*unitEntry{},
		unitLRU:    list.New(),
	}
}

// SetLimits bounds the number of memoized results and intra-concept units
// (values < 1 are clamped to 1). Shrinking evicts LRU-first immediately.
func (c *Cache) SetLimits(maxEntries, maxUnits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxEntries = max(1, maxEntries)
	c.maxUnits = max(1, maxUnits)
	c.evictLocked()
}

// Rewrite is RewriteContext without cancellation.
func (c *Cache) Rewrite(omq *OMQ) (*Result, error) {
	return c.RewriteContext(context.Background(), omq)
}

// RewriteContext returns the rewriting result for the OMQ, served from cache
// when the entry's footprint survived every release since it was computed,
// and otherwise rebuilt incrementally from surviving intra-concept units.
// The cancellation contract extends the retry-on-race contract: a build
// aborted by ctx (or a budget) returns the cancellation error without
// caching a result and without retrying — and it can never poison the
// cache, because results are only memoized when the build completed without
// error at an unchanged generation, and intra-concept units are memoized
// individually only after each completes (a unit computed before the
// cancellation point is a complete, generation-consistent result that later
// rewrites may reuse).
func (c *Cache) RewriteContext(ctx context.Context, omq *OMQ) (*Result, error) {
	res, _, err := c.rewrite(ctx, omq)
	return res, err
}

// Answer rewrites the OMQ as RewriteContext does and executes the result
// (Rewriter.ExecuteResultIDs). A still cached result's entry then becomes the
// most recently used and is charged what its result keeps; the least recently
// used lose their dictionaries while the charges exceed keptValuesMax.
func (c *Cache) Answer(ctx context.Context, omq *OMQ, resolver relational.WrapperResolver, limit int) (*relational.IDRelation, *Result, error) {
	res, e, err := c.rewrite(ctx, omq)
	if err != nil {
		return nil, nil, err
	}
	answer, err := c.rewriter.ExecuteResultIDs(ctx, res, resolver, limit)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || e == nil || c.entries[e.key] != e {
		return answer, res, err
	}
	n := res.union.TrimKept(keptValuesMax)
	c.stats.KeptValues += n - e.kept
	e.kept = n
	c.entryLRU.MoveToFront(e.elem)
	for el := c.entryLRU.Back(); c.stats.KeptValues > keptValuesMax; el = el.Prev() {
		t := el.Value.(*cacheEntry)
		t.res.union.TrimKept(0)
		c.stats.KeptValues -= t.kept
		t.kept = 0
	}
	return answer, res, nil
}

// rewrite is RewriteContext that also returns the result's entry, or nil.
func (c *Cache) rewrite(ctx context.Context, omq *OMQ) (*Result, *cacheEntry, error) {
	ctx, span := obs.StartSpan(ctx, "rewrite")
	start := time.Now()
	defer func() {
		rewriteDurationSeconds.Observe(time.Since(start))
		span.End()
	}()
	key := canonicalKey(omq)
	store := c.rewriter.Ontology.Store()
	missCounted := false
	for {
		// A cancelled rewrite must not burn retries: bail out before
		// re-pinning (mutation races re-enter here, so this is also the
		// "never retry after cancellation" guarantee).
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sn := store.Snapshot()
		gen := sn.Generation()
		c.mu.Lock()
		c.revalidateLocked(gen)
		if e, ok := c.entries[key]; ok {
			// A hit validated at a generation >= gen is a consistent answer
			// for the store's current state.
			c.entryLRU.MoveToFront(e.elem)
			c.stats.Hits++
			c.mu.Unlock()
			span.SetAttr("cache", "hit")
			return e.res, e, nil
		}
		if c.generation != gen {
			// The pinned snapshot is already behind the cache: a build
			// against it could neither use nor fill units and would fail the
			// post-build snapshot check anyway. Re-pin instead.
			c.mu.Unlock()
			continue
		}
		if !missCounted {
			// Count one miss per logical rewrite, not per mutation-race
			// retry (Retries tracks those).
			c.stats.Misses++
			missCounted = true
			span.SetAttr("cache", "miss")
		}
		c.mu.Unlock()

		res, fp, err := c.buildResult(ctx, gen, omq)
		if err != nil && ctx.Err() != nil {
			// Cancelled mid-build: nothing was cached for this result (units
			// already memoized are complete and consistent) and no retry
			// follows.
			return nil, nil, err
		}
		if store.Snapshot() != sn {
			// The store mutated mid-rewrite: the walks (or the error) may mix
			// two generations. Retry against the new snapshot — releases are
			// steward actions, so in practice one retry settles it.
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		var e *cacheEntry
		c.mu.Lock()
		if c.generation == gen {
			if _, exists := c.entries[key]; !exists {
				e = &cacheEntry{key: key, res: res, footprint: fp}
				e.elem = c.entryLRU.PushFront(e)
				c.entries[key] = e
				c.evictLocked()
			}
		}
		c.mu.Unlock()
		return res, e, nil
	}
}

// buildResult computes the rewriting result for one store generation,
// reusing memoized intra-concept units validated at that generation and
// memoizing the ones it had to compute. ctx is checked between units and
// inside the assembly loops; a unit is only memoized once fully computed,
// so cancellation can never cache partial state.
func (c *Cache) buildResult(ctx context.Context, gen uint64, omq *OMQ) (*Result, core.Footprint, error) {
	o := c.rewriter.Ontology
	wf, err := WellFormedQuery(o, omq)
	if err != nil {
		return nil, core.Footprint{}, err
	}
	expanded, err := QueryExpansion(o, wf)
	if err != nil {
		return nil, core.Footprint{}, err
	}
	fp := queryFootprint(expanded)

	track := lifecycle.TrackerFrom(ctx)
	partials := make([]PartialWalks, len(expanded.Concepts))
	for i, concept := range expanded.Concepts {
		if err := lifecycle.Check(ctx, track); err != nil {
			return nil, fp, err
		}
		features := featuresRequestedFor(expanded.Query, concept)
		ukey := unitKey(concept, features)
		c.mu.Lock()
		if u, ok := c.units[ukey]; ok && c.generation == gen {
			c.unitLRU.MoveToFront(u.elem)
			c.stats.UnitHits++
			partials[i] = u.walks
			c.mu.Unlock()
			continue
		}
		c.stats.UnitMisses++
		c.mu.Unlock()

		_, uspan := obs.StartSpan(ctx, "rewrite.unit")
		uspan.SetAttr("concept", string(concept))
		ustart := time.Now()
		pw, err := IntraConceptUnit(o, concept, features)
		unitBuildSeconds.Observe(time.Since(ustart))
		uspan.End()
		if err != nil {
			return nil, fp, err
		}
		partials[i] = pw
		c.mu.Lock()
		if c.generation == gen {
			if _, exists := c.units[ukey]; !exists {
				u := &unitEntry{key: ukey, concept: concept, walks: pw, footprint: unitFootprint(concept, features)}
				u.elem = c.unitLRU.PushFront(u)
				c.units[ukey] = u
				c.evictLocked()
			}
		}
		c.mu.Unlock()
	}

	actx, aspan := obs.StartSpan(ctx, "rewrite.assemble")
	res, err := c.rewriter.assemble(actx, wf, expanded, partials)
	aspan.End()
	if err != nil {
		return nil, fp, err
	}
	return res, fp, nil
}

// revalidateLocked brings the cache up to the given store generation,
// retiring exactly the entries and units whose footprint a release since
// c.generation touches — or everything when the interval is not explained
// by releases.
func (c *Cache) revalidateLocked(gen uint64) {
	// gen < c.generation means the caller pinned its snapshot before another
	// thread already validated the cache against a newer generation. Store
	// generations are monotonic, so the cache is the fresher view — never
	// regress it (the caller's hit is then served at c.generation, which
	// matches the store's current state; its miss path re-pins and retries).
	if gen <= c.generation {
		return
	}
	deltas, covered := c.rewriter.Ontology.DeltasBetween(c.generation, gen)
	if !covered {
		// An empty cache (e.g. the very first validation) flushes nothing.
		if len(c.entries) > 0 || len(c.units) > 0 {
			c.stats.EntriesInvalidated += len(c.entries)
			c.stats.UnitsInvalidated += len(c.units)
			c.stats.FullFlushes++
			c.stats.KeptValues = 0
			c.entries = map[string]*cacheEntry{}
			c.entryLRU.Init()
			c.units = map[string]*unitEntry{}
			c.unitLRU.Init()
		}
		c.generation = gen
		return
	}
	for key, e := range c.entries {
		if e.footprint.IntersectsAny(deltas) {
			c.countInvalidationLocked(e.footprint, deltas)
			c.entryLRU.Remove(e.elem)
			delete(c.entries, key)
			c.stats.KeptValues -= e.kept
			c.stats.EntriesInvalidated++
		} else {
			c.stats.EntriesRetained++
		}
	}
	for key, u := range c.units {
		if u.footprint.IntersectsAny(deltas) {
			c.countInvalidationLocked(u.footprint, deltas)
			c.unitLRU.Remove(u.elem)
			delete(c.units, key)
			c.stats.UnitsInvalidated++
		} else {
			c.stats.UnitsRetained++
		}
	}
	c.generation = gen
}

func (c *Cache) countInvalidationLocked(fp core.Footprint, deltas []*core.ReleaseDelta) {
	for _, concept := range fp.TouchedConcepts(deltas) {
		if c.stats.InvalidatedByConcept == nil {
			c.stats.InvalidatedByConcept = map[string]int{}
		}
		c.stats.InvalidatedByConcept[string(concept)]++
	}
}

// evictLocked drops least-recently-used entries and units over capacity.
func (c *Cache) evictLocked() {
	for len(c.entries) > c.maxEntries {
		e := c.entryLRU.Remove(c.entryLRU.Back()).(*cacheEntry)
		delete(c.entries, e.key)
		c.stats.KeptValues -= e.kept
		c.stats.Evictions++
	}
	for len(c.units) > c.maxUnits {
		u := c.unitLRU.Remove(c.unitLRU.Back()).(*unitEntry)
		delete(c.units, u.key)
		c.stats.Evictions++
	}
}

// Stats returns a copy of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.Entries = len(c.entries)
	out.Units = len(c.units)
	out.InvalidatedByConcept = maps.Clone(c.stats.InvalidatedByConcept)
	return out
}

// canonicalKey builds an order-insensitive textual key for an OMQ.
func canonicalKey(omq *OMQ) string {
	pi := make([]string, len(omq.Pi))
	for i, p := range omq.Pi {
		pi[i] = string(p)
	}
	sort.Strings(pi)
	triples := make([]string, len(omq.Phi.Triples))
	for i, t := range omq.Phi.Triples {
		triples[i] = t.String()
	}
	sort.Strings(triples)
	return strings.Join(pi, "|") + "\x00" + strings.Join(triples, "|")
}

// unitKey identifies an intra-concept unit: the concept plus its requested
// features (already sorted by featuresRequestedFor).
func unitKey(concept rdf.IRI, features []rdf.IRI) string {
	var b strings.Builder
	b.WriteString(string(concept))
	for _, f := range features {
		b.WriteByte(0)
		b.WriteString(string(f))
	}
	return b.String()
}
