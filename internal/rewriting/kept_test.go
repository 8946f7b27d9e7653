package rewriting

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"bdi/internal/core"
	"bdi/internal/rdf"
	"bdi/internal/relational"
	"bdi/internal/wrapper"
)

// The kept-state suite: a cache charges each answered result the values its
// kept dictionary holds and keeps the charges within keptValuesMax, dropping
// dictionaries from the least recently used end; a removed entry stops
// counting at once, and one cache's answers never touch another's results.

// seqWrapper serves n rows, generated on every fetch: row r has the integer
// ID lo+r and the value lo+r+0.5, so wrappers with disjoint ranges share no
// value and an answer keeps 2n values.
type seqWrapper struct {
	name, source string
	lo, n        int
}

func (w *seqWrapper) Name() string   { return w.name }
func (w *seqWrapper) Source() string { return w.source }
func (w *seqWrapper) Schema() relational.Schema {
	return relational.NewSchema([]string{"id"}, []string{"v"})
}

func (w *seqWrapper) Rows(ctx context.Context, p relational.Pushdown, d *relational.ValueDict) (*relational.ColRelation, error) {
	_, src := p.Project(w.Schema())
	cells := make([]relational.Value, len(src))
	rows := func(yield func([]relational.Value) bool) {
		for r := w.lo; r < w.lo+w.n; r++ {
			for i, a := range src {
				cells[i] = r
				if a == "v" {
					cells[i] = float64(r) + 0.5
				}
			}
			if !yield(cells) {
				return
			}
		}
	}
	return p.Apply(w.name, w.Schema(), rows, d), nil
}

// keptFixture is an ontology of concepts that each have an ID and a value
// feature and one wrapper of their own; keptOMQ(i) asks for concept i's two
// features, so its answer is that wrapper's rows.
type keptFixture struct {
	o        *core.Ontology
	reg      *wrapper.Registry
	resolver relational.WrapperResolver
	rows     int
}

func keptConcept(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://ex/kept/C%d", i)) }
func keptID(i int) rdf.IRI      { return rdf.IRI(fmt.Sprintf("http://ex/kept/id%d", i)) }
func keptValue(i int) rdf.IRI   { return rdf.IRI(fmt.Sprintf("http://ex/kept/v%d", i)) }

func newKeptFixture(t testing.TB, concepts, rows int) *keptFixture {
	t.Helper()
	f := &keptFixture{o: core.NewOntology(), reg: wrapper.NewRegistry(), rows: rows}
	for i := 0; i < concepts; i++ {
		if err := f.o.AddConcept(keptConcept(i)); err != nil {
			t.Fatal(err)
		}
		if err := f.o.AddIdentifier(keptConcept(i), keptID(i), rdf.XSDInteger); err != nil {
			t.Fatal(err)
		}
		if err := f.o.AddFeatureTo(keptConcept(i), keptValue(i), rdf.XSDDouble); err != nil {
			t.Fatal(err)
		}
		f.release(t, i, fmt.Sprintf("w%d", i), i*rows)
	}
	f.resolver = wrapper.NewQualifiedResolver(f.reg)
	return f
}

// release registers a wrapper of concept i serving the rows from lo.
func (f *keptFixture) release(t testing.TB, i int, name string, lo int) {
	t.Helper()
	g := rdf.NewGraph("")
	g.Add(
		rdf.T(keptConcept(i), core.GHasFeature, keptID(i)),
		rdf.T(keptConcept(i), core.GHasFeature, keptValue(i)),
	)
	w := &seqWrapper{name: name, source: name + "_src", lo: lo, n: f.rows}
	spec := core.WrapperSpec{Name: name, Source: w.source, IDAttributes: []string{"id"}, NonIDAttributes: []string{"v"}}
	if _, err := f.o.NewRelease(core.Release{Wrapper: spec, Subgraph: g, F: map[string]rdf.IRI{"id": keptID(i), "v": keptValue(i)}}); err != nil {
		t.Fatal(err)
	}
	f.reg.Register(w)
}

func keptOMQ(i int) *OMQ {
	return NewOMQ([]rdf.IRI{keptID(i), keptValue(i)},
		rdf.T(keptConcept(i), core.GHasFeature, keptID(i)),
		rdf.T(keptConcept(i), core.GHasFeature, keptValue(i)))
}

// keeps returns the values res's kept dictionary holds.
func keeps(res *Result) int { return res.union.TrimKept(math.MaxInt) }

// cachedKeeps sums what the cached results' kept dictionaries hold.
func cachedKeeps(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		n += keeps(e.res)
	}
	return n
}

func answer(t testing.TB, c *Cache, f *keptFixture, i int) *Result {
	t.Helper()
	a, res, err := c.Answer(context.Background(), keptOMQ(i), f.resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != f.rows {
		t.Fatalf("OMQ %d answered %d rows, want %d", i, len(a.Rows), f.rows)
	}
	return res
}

// TestCacheBoundsKeptValues answers six OMQs, each keeping a quarter of
// keptValuesMax: the charges never exceed the cap and always equal what the
// cached results keep, the latest answer keeps its dictionary, and the least
// recently used results lose theirs first. An evicted, invalidated or
// flushed entry stops counting at once.
func TestCacheBoundsKeptValues(t *testing.T) {
	const omqs = 6
	per := keptValuesMax / 4
	f := newKeptFixture(t, omqs, per/2)
	c := NewCache(NewRewriter(f.o))
	check := func(when string) {
		t.Helper()
		st := c.Stats()
		if st.KeptValues > keptValuesMax || st.KeptValues != cachedKeeps(c) {
			t.Fatalf("%s: the cache charges %d values, its results keep %d, the cap is %d", when, st.KeptValues, cachedKeeps(c), keptValuesMax)
		}
	}
	res := make([]*Result, omqs)
	for i := range res {
		res[i] = answer(t, c, f, i)
		check(fmt.Sprintf("after answering OMQ %d", i))
		if keeps(res[i]) != per {
			t.Fatalf("the latest answer keeps %d values, want %d", keeps(res[i]), per)
		}
	}
	for i, want := range []int{0, 0, per, per, per, per} {
		if keeps(res[i]) != want {
			t.Fatalf("OMQ %d keeps %d values, want %d: the least recently answered lose theirs first", i, keeps(res[i]), want)
		}
	}

	// A hit makes OMQ 2 recently used, so answering OMQ 0 again drops OMQ 3's
	// dictionary, the least recently used one that has any.
	if _, err := c.Rewrite(keptOMQ(2)); err != nil {
		t.Fatal(err)
	}
	if answer(t, c, f, 0) != res[0] {
		t.Fatal("OMQ 0 was not served from the cache")
	}
	check("after answering OMQ 0 again")
	for i, want := range []int{per, 0, per, 0, per, per} {
		if keeps(res[i]) != want {
			t.Fatalf("after the hit on OMQ 2, OMQ %d keeps %d values, want %d", i, keeps(res[i]), want)
		}
	}

	// Eviction: of the entries 0, 2, 5, 4, 3, 1, most recent first, OMQs 0
	// and 2 stay.
	c.mu.Lock()
	c.maxEntries = 2
	c.evictLocked()
	c.mu.Unlock()
	check("after shrinking to 2 entries")
	if st := c.Stats(); st.KeptValues != 2*per {
		t.Fatalf("after evicting OMQs 1, 3, 4 and 5 the cache charges %d values, want %d", st.KeptValues, 2*per)
	}

	// Invalidation: a release over concept 0 retires OMQ 0's entry at the next
	// lookup, which need not be OMQ 0's.
	f.release(t, 0, "w0b", omqs*f.rows)
	if _, err := c.Rewrite(keptOMQ(2)); err != nil {
		t.Fatal(err)
	}
	check("after a release retired OMQ 0")
	if st := c.Stats(); st.KeptValues != per || st.EntriesInvalidated != 1 {
		t.Fatalf("after a release retired OMQ 0 the cache charges %d values (%d invalidated), want %d", st.KeptValues, st.EntriesInvalidated, per)
	}

	// A full flush drops every charge.
	if err := f.o.AddConcept("http://ex/kept/Fresh"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rewrite(keptOMQ(2)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.KeptValues != 0 || st.FullFlushes != 1 {
		t.Fatalf("after a full flush the cache charges %d values (%d flushes), want 0", st.KeptValues, st.FullFlushes)
	}
}

// TestCachesKeepIndependently answers one OMQ through one cache, then more
// OMQs than keptValuesMax holds through a second cache over the same
// ontology: the second cache stays within the cap by dropping its own
// results' dictionaries, and the first cache's result keeps its own.
func TestCachesKeepIndependently(t *testing.T) {
	per := keptValuesMax / 4
	f := newKeptFixture(t, 6, per/2)
	first, second := NewCache(NewRewriter(f.o)), NewCache(NewRewriter(f.o))
	mine := answer(t, first, f, 0)
	for i := 1; i < 6; i++ {
		answer(t, second, f, i)
	}
	if st := second.Stats(); st.KeptValues != keptValuesMax {
		t.Fatalf("the second cache charges %d values, want %d", st.KeptValues, keptValuesMax)
	}
	if keeps(mine) != per || first.Stats().KeptValues != per {
		t.Fatalf("the first cache's result keeps %d values (charged %d) after the second cache's answers, want %d",
			keeps(mine), first.Stats().KeptValues, per)
	}
}

// TestKeptValuesBoundedUnderConcurrentAnswers answers ten OMQs, together
// past keptValuesMax, from four goroutines on one cache while two others
// rewrite them: every answer equals a fresh cache's, every charge total stays
// within the cap, and once the answers are done the cached results keep
// exactly what the cache charges.
func TestKeptValuesBoundedUnderConcurrentAnswers(t *testing.T) {
	const omqs, answerers, rounds = 10, 4, 2
	f := newKeptFixture(t, omqs, keptValuesMax/16)
	want := make([][]byte, omqs)
	for i := range want {
		a, _, err := NewCache(NewRewriter(f.o)).Answer(context.Background(), keptOMQ(i), f.resolver, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = a.AppendJSON(nil); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(NewRewriter(f.o))
	var wg sync.WaitGroup
	errs := make(chan error, answerers+2)
	done := make(chan struct{})
	for g := 0; g < answerers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := g; i < omqs; i += answerers {
					a, _, err := c.Answer(context.Background(), keptOMQ(i), f.resolver, 0)
					if err != nil {
						errs <- err
						return
					}
					got, err := a.AppendJSON(nil)
					if err != nil || !bytes.Equal(got, want[i]) {
						errs <- fmt.Errorf("OMQ %d answered unlike a fresh cache (%v)", i, err)
						return
					}
					if n := c.Stats().KeptValues; n > keptValuesMax {
						errs <- fmt.Errorf("the cache charges %d values, over the cap %d", n, keptValuesMax)
						return
					}
				}
			}
		}()
	}
	var rewriters sync.WaitGroup
	for g := 0; g < 2; g++ {
		rewriters.Add(1)
		go func() {
			defer rewriters.Done()
			for k := g; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := c.Rewrite(keptOMQ(k % omqs)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rewriters.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.KeptValues > keptValuesMax || st.KeptValues != cachedKeeps(c) {
		t.Fatalf("the cache charges %d values and its results keep %d; the cap is %d", st.KeptValues, cachedKeeps(c), keptValuesMax)
	}
}
