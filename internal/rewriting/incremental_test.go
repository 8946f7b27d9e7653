package rewriting

import (
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
)

// lagRatioOMQ is a single-concept query over InfoMonitor, answerable with
// W1 alone.
func lagRatioOMQ() *OMQ {
	return NewOMQ(
		[]rdf.IRI{core.SupLagRatio},
		rdf.T(core.SupInfoMonitor, core.GHasFeature, core.SupLagRatio),
	)
}

func TestCacheEntrySurvivesUnrelatedRelease(t *testing.T) {
	o := core.NewOntology()
	if err := core.BuildSupersedeGlobalGraph(o); err != nil {
		t.Fatal(err)
	}
	if _, err := o.NewRelease(core.SupersedeReleaseW1()); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(NewRewriter(o))
	res1, err := cache.Rewrite(lagRatioOMQ())
	if err != nil {
		t.Fatal(err)
	}
	// W2 covers FeedbackGathering and UserFeedback only — its delta is
	// disjoint from the lagRatio query footprint.
	if _, err := o.NewRelease(core.SupersedeReleaseW2()); err != nil {
		t.Fatal(err)
	}
	res2, err := cache.Rewrite(lagRatioOMQ())
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("memoized result must survive an unrelated release (delta-disjoint footprint)")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.EntriesRetained < 1 || st.EntriesInvalidated != 0 || st.FullFlushes != 0 {
		t.Errorf("stats = %+v, want the entry retained and served as a hit", st)
	}

	// W4 (a new D1 schema version) touches InfoMonitor: the entry must go.
	if _, err := o.NewRelease(core.SupersedeReleaseW4()); err != nil {
		t.Fatal(err)
	}
	res3, err := cache.Rewrite(lagRatioOMQ())
	if err != nil {
		t.Fatal(err)
	}
	if res3 == res1 {
		t.Error("related release must retire the memoized result")
	}
	if res3.UCQ.Len() != 2 {
		t.Errorf("post-W4 walks = %d, want 2 (w1 and w4)", res3.UCQ.Len())
	}
	st = cache.Stats()
	if st.EntriesInvalidated < 1 {
		t.Errorf("stats = %+v, want at least one invalidated entry", st)
	}
	if st.InvalidatedByConcept[string(core.SupInfoMonitor)] == 0 {
		t.Errorf("per-concept invalidation stats = %v, want InfoMonitor counted", st.InvalidatedByConcept)
	}
	// The rebuild is byte-identical to a full recompute.
	full, err := NewRewriter(o).Rewrite(lagRatioOMQ())
	if err != nil {
		t.Fatal(err)
	}
	if res3.UCQ.String() != full.UCQ.String() {
		t.Errorf("rebuilt UCQ diverges from full recompute:\n%s\nvs\n%s", res3.UCQ, full.UCQ)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	o := buildOntology(t, false)
	cache := NewCache(NewRewriter(o))
	cache.SetLimits(1)
	if _, err := cache.Rewrite(runningExampleOMQ()); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Rewrite(lagRatioOMQ()); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (capacity bound)", st.Entries)
	}
	if st.Evictions == 0 {
		t.Error("expected LRU evictions")
	}
	// The running-example entry was evicted; re-rewriting it is a miss, and
	// the lagRatio entry (most recently used) is the survivor.
	if _, err := cache.Rewrite(runningExampleOMQ()); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 {
		t.Errorf("hits = %d, want 0 after eviction", st.Hits)
	}
}

func TestCacheFlushedByNonReleaseMutation(t *testing.T) {
	o := buildOntology(t, false)
	cache := NewCache(NewRewriter(o))
	if _, err := cache.Rewrite(runningExampleOMQ()); err != nil {
		t.Fatal(err)
	}
	// A Global-graph edit is not explained by release deltas: everything
	// must be flushed even though the footprints are disjoint.
	if err := o.AddConcept(rdf.IRI(core.NSSupersede + "Fresh")); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Rewrite(runningExampleOMQ()); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.FullFlushes != 1 {
		t.Errorf("full flushes = %d, want 1", st.FullFlushes)
	}
	if st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want two misses and no hits", st)
	}
}
