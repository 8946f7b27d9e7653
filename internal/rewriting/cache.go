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
//   - When the store generation moves, the cache asks the view it pinned
//     what changed since its own generation (core.View.ChangedSince). If
//     every generation in between is a release, only entries and units
//     whose footprint intersects the releases' are retired — queries over
//     untouched concepts keep their results and cost a pure cache hit even
//     though the ontology evolved.
//   - A query whose entry was retired (or was never cached) is rebuilt
//     incrementally: retained intra-concept units are reused and only the
//     missing units plus the inter-concept joins (Algorithm 5) and the
//     coverage filter are recomputed.
//   - A mutation interval not explained by releases (Global-graph edits,
//     direct store writes of another shape) flushes everything — the
//     pre-delta behaviour.
//
// Results handed out by the cache are shared and must be treated as
// immutable. The cache is safe for concurrent use. A lookup pins the
// ontology's current core.View and brings the cache to its generation; a
// miss is built once, entirely on that view, so every returned result is a
// rewrite of exactly one store generation even while releases land. Units and
// the entry are memoized only while the cache is still at that generation.
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
// and otherwise rebuilt incrementally from surviving intra-concept units, on
// one view of the ontology. A build aborted by ctx (or a budget) returns the
// cancellation error without caching a result, and it can never poison the
// cache: results are only memoized when the build completed without error,
// and intra-concept units individually only after each completes (a unit
// computed before the cancellation point is a complete result of its
// generation that later rewrites may reuse).
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
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	key := canonicalKey(omq)
	c.mu.Lock()
	// Pinned under c.mu, the view is never behind the cache: views only move
	// forward, and only a rewrite holding c.mu moves the cache, to its view.
	v := c.rewriter.Ontology.View()
	gen := v.Generation()
	c.revalidateLocked(v)
	if e, ok := c.entries[key]; ok {
		c.entryLRU.MoveToFront(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		span.SetAttr("cache", "hit")
		return e.res, e, nil
	}
	c.stats.Misses++
	c.mu.Unlock()
	span.SetAttr("cache", "miss")

	res, err := rewriteOn(ctx, v, omq, PolicyOptions{}, func(v *core.View, concept rdf.IRI, features []rdf.IRI) (PartialWalks, error) {
		return c.unit(ctx, v, concept, features)
	})
	if err != nil {
		return nil, nil, err
	}
	var e *cacheEntry
	c.mu.Lock()
	if c.generation == gen {
		if _, exists := c.entries[key]; !exists {
			e = &cacheEntry{key: key, res: res, footprint: queryFootprint(res.Expanded)}
			e.elem = c.entryLRU.PushFront(e)
			c.entries[key] = e
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	return res, e, nil
}

// unit returns one concept's intra-concept unit on the view: the memoized
// unit while the cache is still at the view's generation, else a fresh build,
// memoized on the same condition. A unit is only memoized once fully
// computed, so cancellation can never cache partial state.
func (c *Cache) unit(ctx context.Context, v *core.View, concept rdf.IRI, features []rdf.IRI) (PartialWalks, error) {
	gen := v.Generation()
	ukey := unitKey(concept, features)
	c.mu.Lock()
	if u, ok := c.units[ukey]; ok && c.generation == gen {
		c.unitLRU.MoveToFront(u.elem)
		c.stats.UnitHits++
		c.mu.Unlock()
		return u.walks, nil
	}
	c.stats.UnitMisses++
	c.mu.Unlock()

	_, uspan := obs.StartSpan(ctx, "rewrite.unit")
	uspan.SetAttr("concept", string(concept))
	ustart := time.Now()
	pw, err := IntraConceptUnit(v, concept, features)
	unitBuildSeconds.Observe(time.Since(ustart))
	uspan.End()
	if err != nil {
		return PartialWalks{}, err
	}
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
	return pw, nil
}

// revalidateLocked brings the cache up to the generation of v, retiring
// exactly the entries and units whose footprint a release since
// c.generation touches — or everything when the interval is not explained
// by releases. An empty cache derives nothing.
func (c *Cache) revalidateLocked(v *core.View) {
	// A view pinned under c.mu is never behind the cache: gen < c.generation
	// does not happen.
	from := c.generation
	if v.Generation() <= from {
		return
	}
	c.generation = v.Generation()
	if len(c.entries) == 0 && len(c.units) == 0 {
		return
	}
	changed, covered := v.ChangedSince(from)
	if !covered {
		c.stats.EntriesInvalidated += len(c.entries)
		c.stats.UnitsInvalidated += len(c.units)
		c.stats.FullFlushes++
		c.stats.KeptValues = 0
		c.entries = map[string]*cacheEntry{}
		c.entryLRU.Init()
		c.units = map[string]*unitEntry{}
		c.unitLRU.Init()
		return
	}
	for key, e := range c.entries {
		if e.footprint.Intersects(changed) {
			c.countInvalidationLocked(e.footprint, changed)
			c.entryLRU.Remove(e.elem)
			delete(c.entries, key)
			c.stats.KeptValues -= e.kept
			c.stats.EntriesInvalidated++
		} else {
			c.stats.EntriesRetained++
		}
	}
	for key, u := range c.units {
		if u.footprint.Intersects(changed) {
			c.countInvalidationLocked(u.footprint, changed)
			c.unitLRU.Remove(u.elem)
			delete(c.units, key)
			c.stats.UnitsInvalidated++
		} else {
			c.stats.UnitsRetained++
		}
	}
}

// countInvalidationLocked counts a retired footprint once for each of its
// concepts the changed elements hold.
func (c *Cache) countInvalidationLocked(fp, changed core.Footprint) {
	for _, concept := range fp.Concepts {
		if !changed.Touches(concept) {
			continue
		}
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
