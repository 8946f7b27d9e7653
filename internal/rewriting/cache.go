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
	"bdi/internal/relational"
)

// rewriteDurationSeconds is the hot-path rewriting metric; its count doubles
// as the rewrite counter.
var rewriteDurationSeconds = obs.NewHistogram("bdi_rewrite_duration_seconds",
	"Latency of cached OMQ rewrites (hits and rebuilds).")

// defaultMaxEntries is the capacity bound of a cache. The cache is LRU: when
// the bound is exceeded the least recently used entry is dropped and its
// memory — including the walks of large worst-case results — becomes
// collectable immediately. Entries never pin store.Snapshot values, so a full
// cache adds no stale store generations to the live heap.
const defaultMaxEntries = 256

// keptValuesMax bounds the values a cache's results keep in their value
// dictionaries. At ~200 bytes a value they pin at most ~50 MB: a result of
// 2^17 values, 50 times the scaled running example's, keeps them all.
const keptValuesMax = 1 << 18

// Cache memoizes whole rewriting results, each tagged with an invalidation
// footprint. The paper notes (§6.4) that rewritings only depend on the
// ontology, so they stay valid until the data steward registers a new
// release; release-based evolution (Algorithm 1) additionally bounds *what*
// a release can change, which this cache exploits:
//
//   - When the store generation moves, the cache asks the view it pinned
//     what changed since its own generation (core.View.ChangedSince). If
//     every generation in between is a release, only entries whose
//     footprint intersects the releases' are retired — queries over
//     untouched concepts keep their results and cost a pure cache hit even
//     though the ontology evolved.
//   - A query whose entry was retired (or was never cached) is rebuilt by
//     running Algorithms 2-5 on the pinned view.
//   - A mutation interval not explained by releases (Global-graph edits,
//     direct store writes of another shape) flushes everything — the
//     pre-delta behaviour.
//
// Results handed out by the cache are shared and must be treated as
// immutable. The cache is safe for concurrent use. A lookup pins the
// ontology's current core.View and brings the cache to its generation; a
// miss is built once, entirely on that view, so every returned result is a
// rewrite of exactly one store generation even while releases land. The
// entry is memoized only while the cache is still at that generation.
//
// The cache owns what its results keep: Answer charges each entry the values
// its result's dictionary holds, and past keptValuesMax drops the least
// recently used entries' dictionaries. A removed entry's charge goes with it.
type Cache struct {
	ontology   *core.Ontology
	maxEntries int

	mu sync.Mutex
	// generation is the store generation every live entry is validated
	// against. Tracked as a number, not a pinned Snapshot, so an idle cache
	// keeps no store generation alive.
	generation uint64
	entries    map[string]*cacheEntry
	entryLRU   *list.List // of *cacheEntry, front = most recently used

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

// CacheStats reports cache effectiveness and delta-invalidation behaviour.
// It is also the body of the mdm server's GET /api/queries/cache.
type CacheStats struct {
	// Hits and Misses count whole-result lookups; Entries is the live count.
	Hits    int `json:"hits"`
	Misses  int `json:"misses"`
	Entries int `json:"entries"`
	// UnitHits and UnitMisses are bench-pins: they always read 0 and are
	// not served, but the frozen bench/ module still reads them as fields
	// (rewriting.unit_hit_ratio). ROADMAP item 1(d) deletes them with that
	// metric.
	UnitHits   int `json:"-"`
	UnitMisses int `json:"-"`
	// EntriesRetained / EntriesInvalidated count what delta validation kept
	// and retired.
	EntriesRetained    int `json:"entriesRetained"`
	EntriesInvalidated int `json:"entriesInvalidated"`
	// FullFlushes counts validations that dropped everything because the
	// mutation interval was not explained by release deltas.
	FullFlushes int `json:"fullFlushes"`
	// Evictions counts LRU drops.
	Evictions int `json:"evictions"`
	// InvalidatedByConcept counts, per concept IRI, how many entries a
	// release delta retired because the delta touched that concept.
	InvalidatedByConcept map[string]int `json:"invalidatedByConcept,omitempty"`
	// KeptValues sums the entries' charges for their kept dictionaries.
	KeptValues int `json:"keptValues,omitempty"`
}

// NewCache returns a rewriting cache over the rewriter's ontology, holding
// up to defaultMaxEntries results.
func NewCache(r *Rewriter) *Cache {
	return &Cache{
		ontology:   r.Ontology,
		maxEntries: defaultMaxEntries,
		entries:    map[string]*cacheEntry{},
		entryLRU:   list.New(),
	}
}

// Rewrite is RewriteContext without cancellation.
func (c *Cache) Rewrite(omq *OMQ) (*Result, error) {
	return c.RewriteContext(context.Background(), omq)
}

// RewriteContext returns the rewriting result for the OMQ, served from cache
// when the entry's footprint survived every release since it was computed,
// and otherwise rebuilt on one view of the ontology. A build aborted by ctx
// (or a budget) returns the cancellation error without caching a result, and
// it can never poison the cache: results are only memoized when the build
// completed without error.
func (c *Cache) RewriteContext(ctx context.Context, omq *OMQ) (*Result, error) {
	res, _, err := c.rewrite(ctx, omq)
	return res, err
}

// Answer rewrites the OMQ as RewriteContext does and executes the result
// (Result.Execute). A still cached result's entry then becomes the
// most recently used and is charged what its result keeps; the least recently
// used lose their dictionaries while the charges exceed keptValuesMax.
func (c *Cache) Answer(ctx context.Context, omq *OMQ, resolver relational.WrapperResolver, limit int) (*relational.IDRelation, *Result, error) {
	res, e, err := c.rewrite(ctx, omq)
	if err != nil {
		return nil, nil, err
	}
	answer, err := res.Execute(ctx, resolver, limit)
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
	v := c.ontology.View()
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

	res, err := rewriteOn(ctx, v, omq, PolicyOptions{})
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

// revalidateLocked brings the cache up to the generation of v, retiring
// exactly the entries whose footprint a release since c.generation touches
// — or everything when the interval is not explained by releases. An empty
// cache derives nothing.
func (c *Cache) revalidateLocked(v *core.View) {
	// A view pinned under c.mu is never behind the cache: gen < c.generation
	// does not happen.
	from := c.generation
	if v.Generation() <= from {
		return
	}
	c.generation = v.Generation()
	if len(c.entries) == 0 {
		return
	}
	changed, covered := v.ChangedSince(from)
	if !covered {
		c.stats.EntriesInvalidated += len(c.entries)
		c.stats.FullFlushes++
		c.stats.KeptValues = 0
		c.entries = map[string]*cacheEntry{}
		c.entryLRU.Init()
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

// evictLocked drops least-recently-used entries over capacity.
func (c *Cache) evictLocked() {
	for len(c.entries) > c.maxEntries {
		e := c.entryLRU.Remove(c.entryLRU.Back()).(*cacheEntry)
		delete(c.entries, e.key)
		c.stats.KeptValues -= e.kept
		c.stats.Evictions++
	}
}

// Stats returns a copy of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.Entries = len(c.entries)
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
